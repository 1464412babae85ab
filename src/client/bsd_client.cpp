#include "client/bsd_client.hpp"

#include <algorithm>
#include <utility>

namespace pp::client {

BsdClient::BsdClient(sim::Simulator& sim, net::WirelessMedium& medium,
                     energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                     std::string name)
    : MobileStation{sim, medium, ledger, ip, std::move(name)} {
  node_.set_transmitter([this](net::Packet pkt) {
    const bool request_like =
        pkt.proto == net::Protocol::Tcp &&
        (pkt.tcp.syn || pkt.tcp.fin || pkt.payload > 0);
    if (request_like) enter_awake_window();
    if (!awake_) wake();
    transmit(std::move(pkt));
  });
}

void BsdClient::wake() {
  awake_ = true;
  acc_.set_mode(sim_.now(), energy::WnicMode::Idle);
}

void BsdClient::enter_awake_window() {
  // Fresh request: listen continuously; reset the skip ladder.
  skip_ = 1;
  window_until_ = sim_.now() + kAwakeWindow;
  wake();
  wake_timer_.cancel();
  window_timer_.cancel();
  window_timer_ = sim_.at(window_until_, [this] {
    // Window over: fall back to beacon-skipping sleep.
    if (sim_.now() >= window_until_) doze_for_skip();
  });
}

void BsdClient::doze_for_skip() {
  wake_timer_.cancel();
  const sim::Time t = last_beacon_arrival_ +
                      beacon_interval_ * skip_ - kEarly;
  const sim::Time now = sim_.now();
  const sim::Time target = std::max(t, now);
  if (target - now > kMinSleep) {
    awake_ = false;
    acc_.set_mode(now, energy::WnicMode::Sleep);
  }
  wake_timer_ = sim_.at(target, [this] { wake(); });
}

void BsdClient::on_beacon(const net::BeaconMessage& b) {
  last_beacon_arrival_ = sim_.now();
  beacon_interval_ = b.beacon_interval;
  if (b.indicates(ip())) {
    draining_ = true;  // stay up for the parked frames
    return;
  }
  if (sim_.now() < window_until_) return;  // inside the awake window
  // Nothing for us: grow the skip ladder (bounding the added latency) and
  // doze until the k-th next beacon.
  skip_ = std::min(skip_ * 2, kMaxBeaconSkip);
  doze_for_skip();
}

void BsdClient::deliver(net::Packet pkt, sim::Duration airtime) {
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
  // Traffic resets the ladder: more may follow soon.
  skip_ = 1;
  if (draining_ && marked) {
    draining_ = false;
    if (sim_.now() >= window_until_) doze_for_skip();
  }
}

}  // namespace pp::client
