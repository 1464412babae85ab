#include "client/psm_client.hpp"

#include <utility>

namespace pp::client {

PsmClient::PsmClient(sim::Simulator& sim, net::WirelessMedium& medium,
                     energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                     std::string name)
    : MobileStation{sim, medium, ledger, ip, std::move(name)} {
  node_.set_transmitter([this](net::Packet pkt) {
    if (!awake_) wake();
    hold_until_ = sim_.now() + kActivityHold;
    transmit(std::move(pkt));
    sim::Time base = this->medium().busy_until();
    if (base + kActivityHold > hold_until_)
      hold_until_ = base + kActivityHold;
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
  if (t - now > kMinSleep) {
    awake_ = false;
    acc_.set_mode(now, energy::WnicMode::Sleep);
  }
  wake_timer_ = sim_.at(t, [this] {
    wake();
    // If the beacon never shows, stay awake until one does.
    grace_timer_.cancel();
    grace_timer_ = sim_.at(sim_.now() + kEarly + kBeaconGrace,
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
  doze_until(last_beacon_arrival_ + beacon_interval_ - kEarly);
}

void PsmClient::deliver(net::Packet pkt, sim::Duration airtime) {
  charge_receive(airtime);

  if (pkt.is_broadcast() && pkt.dst_port == net::kBeaconPort) {
    if (const auto* b =
            dynamic_cast<const net::BeaconMessage*>(pkt.data.get())) {
      on_beacon(*b);
    }
    return;
  }
  count_received(pkt.payload);
  const bool marked = pkt.marked;
  node_.handle_packet(std::move(pkt));
  if (draining_ && marked) {
    draining_ = false;
    doze_until(last_beacon_arrival_ + beacon_interval_ - kEarly);
  }
}

}  // namespace pp::client
