// Bounded-Slowdown (BSD) baseline — the paper's reference [9] (Krashinsky
// & Balakrishnan, MobiCom 2002), contrasted in Section 2.
//
// BSD minimizes energy subject to a maximum RTT slowdown factor p: after
// uplink activity the client listens continuously for a base window (so
// short responses suffer no slowdown), then dozes with listen intervals
// that grow so the added latency never exceeds p times the elapsed wait.
// Like 802.11 PSM it rides the access point's beacon/TIM machinery; the
// paper's point is that this suits request/response web traffic but not
// long-lived multimedia streams, where packets keep arriving forever.
//
// Model: kAwakeWindow after each request-like uplink; afterwards the
// client wakes only for every k-th beacon, with k doubling (capped at
// kMaxBeaconSkip so the slowdown stays bounded) until traffic arrives,
// which resets the ladder.
#pragma once

#include <cstdint>
#include <string>

#include "client/station.hpp"
#include "energy/wnic.hpp"
#include "net/psm.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

class BsdClient : public MobileStation {
 public:
  // Listen continuously this long after a request (the "1/p RTT" base
  // window: responses inside it see no slowdown at all).
  static constexpr sim::Duration kAwakeWindow = sim::Time::ms(300);
  // Beacon skip ladder: wake every k-th beacon, k doubling up to the cap.
  static constexpr int kMaxBeaconSkip = 8;
  // Wake this long before the target beacon.
  static constexpr sim::Duration kEarly = sim::Time::ms(2);
  // Gaps shorter than this are not worth the wake transition penalty.
  static constexpr sim::Duration kMinSleep = sim::Time::ms(4);

  // The station's energy row lives in `ledger`, which must outlive it.
  BsdClient(sim::Simulator& sim, net::WirelessMedium& medium,
            energy::EnergyLedger& ledger, net::Ipv4Addr ip, std::string name);

  int current_beacon_skip() const { return skip_; }

  // net::WirelessStation.
  bool listening() const override { return awake_; }
  void deliver(net::Packet pkt, sim::Duration airtime) override;

 private:
  void on_beacon(const net::BeaconMessage& b);
  void enter_awake_window();
  void doze_for_skip();
  void wake();

  bool awake_ = true;
  bool draining_ = false;
  int skip_ = 1;  // wake every skip-th beacon
  sim::Time last_beacon_arrival_;
  sim::Duration beacon_interval_ = sim::Time::ms(100);
  sim::Time window_until_;  // end of the current always-awake window
  sim::EventHandle wake_timer_;
  sim::EventHandle window_timer_;
};

}  // namespace pp::client
