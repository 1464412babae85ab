// The shared core of every mobile station: the proxy-scheduled client, the
// 802.11 PSM client and the Bounded Slowdown client.
//
// A MobileStation owns the station's node and its medium attachment, one
// row of WNIC energy state in the caller's ledger, and the traffic counters
// the naive baseline is computed from.  Energy is charged here, the same way
// for every station kind, so their savings compare directly; a derived class
// adds only its power policy (when the radio listens, when it sleeps).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "energy/wnic.hpp"
#include "net/node.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

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

class MobileStation : public net::WirelessStation {
 public:
  MobileStation(const MobileStation&) = delete;
  MobileStation& operator=(const MobileStation&) = delete;

  net::Node& node() { return node_; }
  net::Ipv4Addr ip() const { return node_.ip(); }
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
  void missed(const net::Packet& pkt, sim::Duration airtime) override;
  void on_air(sim::Time start, sim::Duration dur) override;

 protected:
  // The station's energy row lives in `ledger`, whose power model applies;
  // the ledger must outlive the station.  The radio starts idle.
  MobileStation(sim::Simulator& sim, net::WirelessMedium& medium,
                energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                std::string name);

  // Charge a received frame's airtime (control frames included).
  void charge_receive(sim::Duration airtime) {
    acc_.add_transient(energy::WnicMode::Receive, airtime);
    traffic_.receive_airtime += airtime;
  }
  // Count a received data frame as traffic.
  void count_received(std::uint32_t payload) {
    ++traffic_.packets_received;
    traffic_.bytes_received += payload;
  }
  // Put a frame on the air from this station.
  void transmit(net::Packet pkt) { medium_.transmit(station_id_, std::move(pkt)); }
  net::WirelessMedium& medium() { return medium_; }

  sim::Simulator& sim_;
  net::Node node_;
  energy::EnergyAccountant acc_;
  ClientTraffic traffic_;

 private:
  net::WirelessMedium& medium_;
  net::WirelessMedium::StationId station_id_;
  sim::Time start_time_;
};

}  // namespace pp::client
