#include "client/station.hpp"

namespace pp::client {

MobileStation::MobileStation(sim::Simulator& sim, net::WirelessMedium& medium,
                             energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                             std::string name)
    : sim_{sim},
      node_{sim, ip, std::move(name)},
      acc_{ledger, sim.now(), energy::WnicMode::Idle},
      medium_{medium},
      station_id_{medium.attach_station(*this, ip)},
      start_time_{sim.now()} {}

void MobileStation::missed(const net::Packet& pkt, sim::Duration airtime) {
  traffic_.missed_airtime += airtime;
  if (pkt.is_broadcast()) {
    ++traffic_.broadcasts_missed;
  } else {
    ++traffic_.packets_missed;
  }
}

void MobileStation::on_air(sim::Time /*start*/, sim::Duration dur) {
  acc_.add_transient(energy::WnicMode::Transmit, dur);
  traffic_.transmit_airtime += dur;
}

double MobileStation::naive_energy_mj(sim::Time now) const {
  return energy::naive_energy_mj(
      acc_.model(), now - start_time_,
      traffic_.receive_airtime + traffic_.missed_airtime,
      traffic_.transmit_airtime);
}

double MobileStation::energy_saved_fraction(sim::Time now) const {
  const double naive = naive_energy_mj(now);
  if (naive <= 0) return 0;
  return 1.0 - energy_mj(now) / naive;
}

double MobileStation::loss_fraction() const {
  const double total = static_cast<double>(traffic_.packets_received +
                                           traffic_.packets_missed);
  if (total <= 0) return 0;
  return static_cast<double>(traffic_.packets_missed) / total;
}

}  // namespace pp::client
