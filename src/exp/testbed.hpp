// Experiment testbed: the full topology of Figure 1.
//
//   servers --- 100 Mbps Ethernet --- [transparent proxy] --- access point
//                                                                  |
//                                       shared 11 Mbps wireless medium
//                                          |        |          |
//                                       client1  client2 ... monitoring
//                                                             station
//
// The proxy is the LAN's default (bridge) port, so all traffic destined to
// wireless clients flows through it, and a point-to-point link joins it to
// the access point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "channel/model.hpp"
#include "check/audit.hpp"
#include "client/energy_client.hpp"
#include "fault/plan.hpp"
#include "net/access_point.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/wireless.hpp"
#include "obs/observer.hpp"
#include "proxy/scheduler.hpp"
#include "proxy/transparent_proxy.hpp"
#include "sim/simulator.hpp"
#include "trace/monitor.hpp"

namespace pp::exp {

// Client addresses are a 16-bit index (see testbed_client_ip), so a testbed
// holds at most this many clients.
inline constexpr int kMaxTestbedClients = 65534;

struct TestbedParams {
  std::uint64_t seed = 1;
  // At most kMaxTestbedClients; the Testbed throws std::invalid_argument
  // beyond that.
  int num_clients = 10;
  net::WirelessParams wireless{};  // shared 11 Mbps medium
  net::AccessPointParams ap{};
  client::ClientParams client{};
  proxy::ProxyParams proxy{};
  // Fault-injection plan (see src/fault/).  When any() is true a FaultPlan
  // is constructed and wired to the medium (deep fades), AP, the
  // proxy <-> AP link, and the proxy's pause control; arm() runs at start().
  fault::FaultSpec fault{};
  // Channel-quality model (see src/channel/).  With rungs, a ChannelModel
  // with per-client deterministic streams replaces the medium's flat p_loss
  // and the proxy observes per-client state at each SRP.  Composes with
  // `fault`: a faded station loses its frames before the channel is asked.
  channel::ChannelSpec channel{};
  // Attach a MetricsRegistry + Timeline to every component.  Disable to
  // run with all instrumentation hooks detached (near-zero overhead; see
  // bench/micro_obs_overhead.cpp for the compile-time-off path).
  bool observe = true;
  // Attach the observer hook to every individual client (awake time-gauge
  // per client, per-client timeline events).  At 100k clients that is the
  // dominant observability cost, so scale runs disable it and keep the
  // cell-level streams (proxy, AP, medium) only.  No effect when
  // `observe` is false.
  bool per_client_obs = true;
};

class Testbed {
 public:
  Testbed(TestbedParams params, std::unique_ptr<proxy::Scheduler> scheduler);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // -- Topology access ------------------------------------------------------------
  sim::Simulator& sim() { return sim_; }
  net::WirelessMedium& medium() { return medium_; }
  proxy::TransparentProxy& proxy() { return *proxy_; }
  trace::MonitoringStation& monitor() { return monitor_; }
  net::AccessPoint& access_point() { return ap_; }

  // The unified observer (null when params.observe is false or the build
  // defines PP_OBS_DISABLED).  Shared so results can outlive the testbed.
  std::shared_ptr<obs::Observer> observer() { return observer_; }
  obs::MetricsRegistry* metrics() {
    return observer_ ? &observer_->metrics : nullptr;
  }
  obs::Timeline* timeline() {
    return observer_ ? &observer_->timeline : nullptr;
  }

  // Add a wired server (10.0.0.<n>).  Must precede start().
  net::Node& add_server(const std::string& name);

  int num_clients() const { return static_cast<int>(clients_.size()); }
  client::EnergyAwareClient& client(int i) { return *clients_.at(i); }
  net::Ipv4Addr client_ip(int i) const { return clients_.at(i)->ip(); }
  std::vector<net::Ipv4Addr> client_ips() const;

  // Calibrate the proxy's cost model, start the schedule loop at
  // `first_srp`, and start every client daemon.
  void start(sim::Time first_srp = sim::Time::ms(500));

  void run_until(sim::Time t) { sim_.run_until(t); }

  // Run every component's invariant audit (see src/check/): AP and proxy
  // packet/byte conservation, per-client energy accounting, and the
  // streaming timeline auditor's horizon check.  Call at the end of a run;
  // aborts (or throws under a test handler) on the first violation.
  void finalize_audit(sim::Time horizon);

  // Snapshot the event engine's sim.events.* counters into
  // the metrics registry (no-op when not observing; idempotent).  Called
  // by finalize_audit; exposed for drivers that skip the audit.
  void publish_sim_metrics();

  // The streaming timeline auditor (null when not observing).
  check::Auditor* auditor() { return auditor_.get(); }
  // The fault plan (null when params.fault is empty).
  fault::FaultPlan* fault_plan() { return fault_.get(); }
  // The channel model (null when params.channel has no rungs).
  channel::ChannelModel* channel_model() { return channel_.get(); }

 private:
  TestbedParams params_;
  sim::Simulator sim_;
  net::EthernetLan lan_;
  std::unique_ptr<proxy::TransparentProxy> proxy_;
  net::EthernetLan::PortId bridge_port_;
  net::WirelessMedium medium_;
  net::AccessPoint ap_;
  std::unique_ptr<net::PointToPointLink> proxy_ap_link_;
  std::unique_ptr<net::ChannelSink> ap_uplink_sink_;
  trace::MonitoringStation monitor_;
  std::unique_ptr<fault::FaultPlan> fault_;
  std::unique_ptr<channel::ChannelModel> channel_;
  std::shared_ptr<obs::Observer> observer_;
  std::unique_ptr<check::Auditor> auditor_;
  // Fleet-wide flat energy state under the default WaveLAN power model;
  // every client's accountant is a row handle into this ledger.  Must
  // outlive clients_ (declared before it).
  energy::EnergyLedger energy_ledger_;
  std::vector<std::unique_ptr<client::EnergyAwareClient>> clients_;
  std::vector<std::unique_ptr<net::Node>> servers_;
  int next_server_ = 1;
  bool started_ = false;
  bool sim_metrics_published_ = false;
};

// Client address helper: 16-bit index over the low two octets —
// 172.16.<(i+1)>>8>.<(i+1)&0xff>; the first 255 clients keep the
// historical 172.16.0.<i+1> form.
net::Ipv4Addr testbed_client_ip(int i);

}  // namespace pp::exp
