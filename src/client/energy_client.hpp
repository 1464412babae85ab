// The live mobile client: a wireless station whose radio is governed by
// the PowerDaemon, with WNIC energy accounting attached.
//
// Applications (video player, web browser, ftp) attach sockets to node().
// Setting Params::naive produces the paper's baseline client that keeps
// its WNIC in high-power mode for the whole run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "client/association.hpp"
#include "client/power_daemon.hpp"
#include "energy/wnic.hpp"
#include "net/node.hpp"
#include "net/wireless.hpp"
#include "obs/hooks.hpp"
#include "proxy/schedule.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct ClientParams {
  DaemonConfig daemon{};
  // The WNIC power model; the Testbed builds its fleet ledger from it.
  energy::WnicPowerModel power{};
  bool naive = false;  // never sleep (the comparison baseline)
  // Dynamic membership (client churn).  When enabled the client carries an
  // AssociationAgent; set_away() drives leave/rejoin handshakes with the
  // proxy and powers the daemon down while disassociated.
  AssocParams assoc{};
};

struct ClientTraffic {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_missed = 0;  // addressed to us while asleep/corrupt
  std::uint64_t bytes_received = 0;
  std::uint64_t broadcasts_missed = 0;
  sim::Duration receive_airtime;
  sim::Duration missed_airtime;
  sim::Duration transmit_airtime;
  // Downlink UDP datagram delay (origin send to client delivery), data
  // plane only — schedule broadcasts and burst markers excluded.
  sim::Duration delay_sum;
  std::uint64_t delay_samples = 0;
};

class EnergyAwareClient : public net::WirelessStation {
 public:
  // The client's energy row lives in `ledger` (flat SoA — see
  // energy::EnergyLedger), whose power model applies; the ledger must
  // outlive the client.
  EnergyAwareClient(sim::Simulator& sim, net::WirelessMedium& medium,
                    energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                    std::string name, ClientParams params = {});

  EnergyAwareClient(const EnergyAwareClient&) = delete;
  EnergyAwareClient& operator=(const EnergyAwareClient&) = delete;

  // Begin the power daemon (no-op for naive clients).  An assoc-enabled
  // client starts Associated: the testbed pre-registers the fleet.
  void start();

  // Churn driver (FaultPlan ClientChurn windows).  away=true starts a
  // graceful leave — the radio stays up until the proxy's LeaveAck (or the
  // retry budget runs out), then the daemon stops.  away=false restarts
  // the daemon and re-joins.  No-op unless assoc is enabled.
  void set_away(bool away);
  // Present (non-null) only when assoc is enabled.
  const AssociationAgent* assoc() const { return assoc_.get(); }

  // Publish the per-client awake duty-cycle gauge ("client.<ip>.awake")
  // and sleep/wake timeline events; also hooks the daemon's miss counter.
  void set_obs(obs::Hook hook);

  net::Node& node() { return node_; }
  net::Ipv4Addr ip() const { return node_.ip(); }
  PowerDaemon& daemon() { return daemon_; }
  const DaemonStats& daemon_stats() const { return daemon_.stats(); }
  const ClientTraffic& traffic() const { return traffic_; }
  const energy::EnergyAccountant& accountant() const { return acc_; }

  // -- Energy results ------------------------------------------------------------
  double energy_mj(sim::Time now) const { return acc_.energy_mj(now); }
  // What a naive client would have used over the same trace: always idle,
  // receiving every frame addressed to it (including the ones we missed).
  double naive_energy_mj(sim::Time now) const;
  // 1 - energy/naive: the paper's headline metric.
  double energy_saved_fraction(sim::Time now) const;
  // Fraction of addressed packets missed.
  double loss_fraction() const;

  // -- net::WirelessStation --------------------------------------------------------
  bool listening() const override;
  void deliver(net::Packet pkt, sim::Duration airtime) override;
  void missed(const net::Packet& pkt, sim::Duration airtime) override;
  void on_air(sim::Time start, sim::Duration dur) override;

 private:
  void record_power_state(bool awake);

  sim::Simulator& sim_;
  net::Node node_;
  ClientParams params_;
  energy::EnergyAccountant acc_;
  PowerDaemon daemon_;
  std::unique_ptr<AssociationAgent> assoc_;
  ClientTraffic traffic_;
  sim::Time start_time_;

  obs::Hook obs_;
  obs::TimeWeightedGauge* twg_awake_ = nullptr;
};

}  // namespace pp::client
