#include "client/energy_client.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace pp::client {

EnergyAwareClient::EnergyAwareClient(sim::Simulator& sim,
                                     net::WirelessMedium& medium,
                                     energy::EnergyLedger& ledger,
                                     net::Ipv4Addr ip, std::string name,
                                     ClientParams params)
    : sim_{sim},
      node_{sim, ip, std::move(name)},
      params_{params},
      acc_{ledger, sim.now(), energy::WnicMode::Idle},
      daemon_{sim, ip, params.daemon,
              [this](bool awake) {
                acc_.set_mode(sim_.now(), awake ? energy::WnicMode::Idle
                                                : energy::WnicMode::Sleep);
                record_power_state(awake);
              }},
      start_time_{sim.now()} {
  const auto station_id = medium.attach_station(*this, ip);
  node_.set_transmitter([this, &medium, station_id](net::Packet pkt) {
    // Uplink requires the radio on; app-initiated sends wake it and extend
    // the activity hold so the response is not slept through.  Pure TCP
    // ACKs (sent while receiving a burst) must NOT hold the radio awake,
    // or the post-burst sleep would be lost.
    const bool request_like =
        pkt.proto == net::Protocol::Tcp &&
        (pkt.tcp.syn || pkt.tcp.fin || pkt.payload > 0);
    if (!params_.naive && request_like) daemon_.force_awake();
    medium.transmit(station_id, std::move(pkt));
    // The channel may be busy for a while before the frame even airs;
    // measure the response hold from when it clears.
    if (!params_.naive && request_like)
      daemon_.extend_hold(medium.busy_until());
  });
  if (params_.assoc.enabled) {
    assoc_ = std::make_unique<AssociationAgent>(
        sim_, ip, params_.assoc,
        [this, &medium, station_id](net::Packet pkt) {
          // Control frames ride the raw medium path: the energy and airtime
          // accounting comes through on_air like any other uplink frame.
          medium.transmit(station_id, std::move(pkt));
        },
        [this] {
          // Departed for good: radio off (naive baselines stay listening —
          // they never sleep by definition).
          if (!params_.naive) daemon_.stop();
        });
  }
}

void EnergyAwareClient::start() {
  if (assoc_) assoc_->start_associated();
  if (!params_.naive) daemon_.start();
}

void EnergyAwareClient::set_away(bool away) {
  if (!assoc_) return;
  if (away) {
    assoc_->leave();
  } else {
    // Radio up first: the JoinAck and the renegotiated schedule must be
    // heard.  The daemon resets to AwaitingSchedule, so it stays awake
    // until the fresh broadcast anchors it.
    if (!params_.naive) daemon_.start();
    assoc_->join();
  }
}

void EnergyAwareClient::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = hook; if (auto* m = obs_.metrics()) {
    twg_awake_ = m->time_gauge("client." + ip().str() + ".awake");
    twg_awake_->set(sim_.now(), listening() ? 1.0 : 0.0);
  } daemon_.set_obs(hook, ip().raw());
    if (assoc_) assoc_->set_obs(hook));
}

void EnergyAwareClient::record_power_state(bool awake) {
  (void)awake;
  PP_OBS(if (twg_awake_) twg_awake_->set(sim_.now(), awake ? 1.0 : 0.0);
         if (auto* tl = obs_.timeline())
             tl->record(sim_.now(),
                        awake ? obs::EventKind::Wake : obs::EventKind::Sleep,
                        ip().raw()));
}

bool EnergyAwareClient::listening() const {
  // An in-flight association handshake pins the radio up even where the
  // daemon would sleep: the acks it is waiting for arrive outside any
  // scheduled slot.
  return params_.naive || daemon_.awake() || (assoc_ && assoc_->needs_radio());
}

void EnergyAwareClient::deliver(net::Packet pkt, sim::Duration airtime) {
  acc_.add_transient(energy::WnicMode::Receive, airtime);
  traffic_.receive_airtime += airtime;

  // Association control (unicast, both ports == kAssocPort): control
  // plane like the schedule broadcast — charged for energy, not counted
  // as traffic.
  if (pkt.proto == net::Protocol::Udp && !pkt.is_broadcast() &&
      pkt.dst_port == proxy::kAssocPort &&
      pkt.src_port == proxy::kAssocPort) {
    if (assoc_) {
      if (auto msg =
              std::dynamic_pointer_cast<const proxy::AssocMessage>(pkt.data))
        assoc_->on_packet(*msg);
    }
    return;
  }

  const bool is_schedule =
      pkt.proto == net::Protocol::Udp && pkt.is_broadcast() &&
      pkt.dst_port == proxy::kSchedulePort;
  if (is_schedule) {
    // Control plane: charged for energy (airtime above) but not counted as
    // received traffic.
    if (assoc_) assoc_->note_schedule();
    if (params_.naive) return;
    if (auto msg =
            std::dynamic_pointer_cast<const proxy::ScheduleMessage>(pkt.data)) {
      daemon_.on_schedule(std::move(msg));
    }
    return;
  }
  ++traffic_.packets_received;
  traffic_.bytes_received += pkt.payload;
  // Downlink datagram delay: UDP data keeps its origin timestamp through
  // the proxy queue, so now - sent_at is the end-to-end buffering delay.
  // Burst markers (proxy-originated, src_port == kSchedulePort) are control
  // plane and excluded.
  if (pkt.proto == net::Protocol::Udp && !pkt.is_broadcast() &&
      pkt.src_port != proxy::kSchedulePort) {
    traffic_.delay_sum += sim_.now() - pkt.sent_at;
    ++traffic_.delay_samples;
  }
  // Hand to the stack first (so ACKs go out while we are still awake),
  // then let the daemon act on the marked bit — a marked packet may put
  // the radio to sleep immediately.
  const std::uint32_t payload = pkt.payload;
  const bool marked = pkt.marked;
  node_.handle_packet(std::move(pkt));
  if (!params_.naive) daemon_.on_data(payload, marked);
}

void EnergyAwareClient::missed(const net::Packet& pkt, sim::Duration airtime) {
  traffic_.missed_airtime += airtime;
  if (pkt.is_broadcast()) {
    ++traffic_.broadcasts_missed;
  } else {
    ++traffic_.packets_missed;
  }
}

void EnergyAwareClient::on_air(sim::Time /*start*/, sim::Duration dur) {
  acc_.add_transient(energy::WnicMode::Transmit, dur);
  traffic_.transmit_airtime += dur;
}

double EnergyAwareClient::naive_energy_mj(sim::Time now) const {
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

double EnergyAwareClient::energy_saved_fraction(sim::Time now) const {
  const double naive = naive_energy_mj(now);
  if (naive <= 0) return 0;
  return 1.0 - energy_mj(now) / naive;
}

double EnergyAwareClient::loss_fraction() const {
  const double total = static_cast<double>(traffic_.packets_received +
                                           traffic_.packets_missed);
  if (total <= 0) return 0;
  return static_cast<double>(traffic_.packets_missed) / total;
}

}  // namespace pp::client
