// The live mobile client: a MobileStation whose radio is governed by the
// PowerDaemon, which writes the station's energy row directly.
//
// Applications (video player, web browser, ftp) attach sockets to node().
// Setting Params::naive produces the paper's baseline client that keeps
// its WNIC in high-power mode for the whole run.
#pragma once

#include <memory>
#include <string>

#include "client/association.hpp"
#include "client/power_daemon.hpp"
#include "client/station.hpp"
#include "energy/wnic.hpp"
#include "net/wireless.hpp"
#include "obs/hooks.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct ClientParams {
  DaemonConfig daemon{};
  bool naive = false;  // never sleep (the comparison baseline)
  // Dynamic membership (client churn).  When enabled the client carries an
  // AssociationAgent; set_away() drives leave/rejoin handshakes with the
  // proxy and powers the daemon down while disassociated.
  AssocParams assoc{};
};

class EnergyAwareClient : public MobileStation {
 public:
  // The client's energy row lives in `ledger` (flat SoA — see
  // energy::EnergyLedger), whose power model applies; the ledger must
  // outlive the client.
  EnergyAwareClient(sim::Simulator& sim, net::WirelessMedium& medium,
                    energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                    std::string name, ClientParams params = {});

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

  // Publish the daemon's per-client awake duty-cycle gauge
  // ("client.<ip>.awake"), sleep/wake timeline events and miss counters.
  void set_obs(obs::Hook hook);

  PowerDaemon& daemon() { return daemon_; }
  const DaemonStats& daemon_stats() const { return daemon_.stats(); }

  // -- net::WirelessStation --------------------------------------------------------
  bool listening() const override;
  void deliver(net::Packet pkt, sim::Duration airtime) override;

 private:
  bool naive_;
  PowerDaemon daemon_;
  std::unique_ptr<AssociationAgent> assoc_;
};

}  // namespace pp::client
