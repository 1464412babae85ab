#include "client/psm_client.hpp"

#include <utility>

namespace pp::client {

PsmClient::PsmClient(sim::Simulator& sim, net::WirelessMedium& medium,
                     net::Ipv4Addr ip, std::string name, PsmParams params)
    : sim_{sim},
      node_{sim, ip, std::move(name)},
      params_{params},
      ledger_{params.power},
      acc_{ledger_, sim.now(), energy::WnicMode::Idle},
      start_time_{sim.now()} {
  const auto station_id = medium.attach_station(*this, ip);
  node_.set_transmitter([this, &medium, station_id](net::Packet pkt) {
    if (!awake_) wake();
    hold_until_ = sim_.now() + params_.activity_hold;
    medium.transmit(station_id, std::move(pkt));
    sim::Time base = medium.busy_until();
    if (base + params_.activity_hold > hold_until_)
      hold_until_ = base + params_.activity_hold;
  });
}

void PsmClient::wake() {
  awake_ = true;
  acc_.set_mode(sim_.now(), energy::WnicMode::Idle);
}

void PsmClient::doze_until(sim::Time t) {
  wake_timer_.cancel();
  sim::Time now = sim_.now();
  if (t < now) t = now;
  if (now < hold_until_) {
    // Uplink activity in flight: re-evaluate when the hold expires.
    wake_timer_ = sim_.at(std::max(hold_until_, now),
                          [this, t] { doze_until(t); });
    return;
  }
  if (t - now > params_.min_sleep) {
    awake_ = false;
    acc_.set_mode(now, energy::WnicMode::Sleep);
  }
  wake_timer_ = sim_.at(t, [this] {
    wake();
    // If the beacon never shows, stay awake until one does.
    grace_timer_.cancel();
    grace_timer_ = sim_.at(sim_.now() + params_.early + params_.beacon_grace,
                           [this] { ++beacons_missed_; });
  });
}

void PsmClient::on_beacon(const net::BeaconMessage& b) {
  ++beacons_received_;
  grace_timer_.cancel();
  last_beacon_arrival_ = sim_.now();
  beacon_interval_ = b.beacon_interval;
  if (b.indicates(ip())) {
    draining_ = true;  // stay awake until the final buffered frame
    return;
  }
  draining_ = false;
  doze_until(last_beacon_arrival_ + beacon_interval_ - params_.early);
}

void PsmClient::deliver(net::Packet pkt, sim::Duration airtime) {
  acc_.add_transient(energy::WnicMode::Receive, airtime);
  traffic_.receive_airtime += airtime;

  if (pkt.is_broadcast() && pkt.dst_port == net::kBeaconPort) {
    if (const auto* b =
            dynamic_cast<const net::BeaconMessage*>(pkt.data.get())) {
      on_beacon(*b);
    }
    return;
  }
  ++traffic_.packets_received;
  traffic_.bytes_received += pkt.payload;
  const bool marked = pkt.marked;
  node_.handle_packet(std::move(pkt));
  if (draining_ && marked) {
    draining_ = false;
    doze_until(last_beacon_arrival_ + beacon_interval_ - params_.early);
  }
}

void PsmClient::missed(const net::Packet& pkt, sim::Duration airtime) {
  traffic_.missed_airtime += airtime;
  if (pkt.is_broadcast()) {
    ++traffic_.broadcasts_missed;
  } else {
    ++traffic_.packets_missed;
  }
}

void PsmClient::on_air(sim::Time /*start*/, sim::Duration dur) {
  acc_.add_transient(energy::WnicMode::Transmit, dur);
  traffic_.transmit_airtime += dur;
}

double PsmClient::naive_energy_mj(sim::Time now) const {
  const auto& m = acc_.model();
  const double total_s = (now - start_time_).to_seconds();
  const double recv_s =
      (traffic_.receive_airtime + traffic_.missed_airtime).to_seconds();
  const double tx_s = traffic_.transmit_airtime.to_seconds();
  return m.mw(energy::WnicMode::Idle) * total_s +
         (m.mw(energy::WnicMode::Receive) - m.mw(energy::WnicMode::Idle)) *
             recv_s +
         (m.mw(energy::WnicMode::Transmit) - m.mw(energy::WnicMode::Idle)) *
             tx_s;
}

double PsmClient::energy_saved_fraction(sim::Time now) const {
  const double naive = naive_energy_mj(now);
  return naive > 0 ? 1.0 - energy_mj(now) / naive : 0;
}

double PsmClient::loss_fraction() const {
  const double total = static_cast<double>(traffic_.packets_received +
                                           traffic_.packets_missed);
  return total > 0
             ? static_cast<double>(traffic_.packets_missed) / total
             : 0;
}

}  // namespace pp::client
