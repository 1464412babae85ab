// The proxy, PSM and BSD clients share one traffic/energy core: driven
// through the same frames they must count them, and price the naive
// baseline, identically — whatever their power policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "client/bsd_client.hpp"
#include "client/energy_client.hpp"
#include "client/psm_client.hpp"
#include "exp/testbed.hpp"
#include "proxy/scheduler.hpp"
#include "transport/udp.hpp"

namespace pp::client {
namespace {

using sim::Time;

enum class Kind { Proxy, Psm, Bsd };

struct Outcome {
  ClientTraffic traffic;
  double naive_mj = 0;
};

// One uplink datagram, then one unicast and one broadcast frame that end
// while the radio is not listening.
Outcome drive(Kind kind) {
  exp::TestbedParams tp;
  tp.num_clients = 0;
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           Time::ms(500))};
  net::Node& server = bed.add_server("srv");
  transport::UdpSocket server_sock{server, 7000};

  energy::EnergyLedger ledger;
  const net::Ipv4Addr ip = exp::testbed_client_ip(0);
  std::unique_ptr<MobileStation> st;
  switch (kind) {
    case Kind::Proxy:
      st = std::make_unique<EnergyAwareClient>(bed.sim(), bed.medium(),
                                               ledger, ip, "proxy0");
      break;
    case Kind::Psm:
      st = std::make_unique<PsmClient>(bed.sim(), bed.medium(), ledger, ip,
                                       "psm0");
      break;
    case Kind::Bsd:
      st = std::make_unique<BsdClient>(bed.sim(), bed.medium(), ledger, ip,
                                       "bsd0");
      break;
  }

  transport::UdpSocket sock{st->node(), 7100};
  bed.sim().at(Time::ms(100), [&] { sock.send_to(server.ip(), 7000, 500); });
  net::Packet unicast = net::make_packet();
  unicast.proto = net::Protocol::Udp;
  unicast.dst = ip;
  unicast.payload = 800;
  net::Packet broadcast = unicast;
  broadcast.dst = net::Ipv4Addr::broadcast();
  bed.sim().at(Time::ms(200), [&] {
    net::WirelessStation& radio = *st;
    radio.missed(unicast, Time::ms(3));
    radio.missed(broadcast, Time::ms(1));
  });
  bed.run_until(Time::sec(1));
  st->accountant().audit(Time::sec(1), "energy.accountant.station_test");
  return {st->traffic(), st->naive_energy_mj(Time::sec(1))};
}

class SharedAccounting : public ::testing::TestWithParam<Kind> {};

TEST_P(SharedAccounting, SameFramesGiveSameTrafficAndNaiveEnergy) {
  const Outcome ref = drive(Kind::Proxy);
  const Outcome got = drive(GetParam());

  EXPECT_EQ(got.traffic.packets_received, 0u);
  EXPECT_EQ(got.traffic.packets_missed, 1u);
  EXPECT_EQ(got.traffic.broadcasts_missed, 1u);
  EXPECT_EQ(got.traffic.missed_airtime, Time::ms(4));
  EXPECT_GT(got.traffic.transmit_airtime, Time::zero());

  EXPECT_EQ(got.traffic.packets_received, ref.traffic.packets_received);
  EXPECT_EQ(got.traffic.packets_missed, ref.traffic.packets_missed);
  EXPECT_EQ(got.traffic.bytes_received, ref.traffic.bytes_received);
  EXPECT_EQ(got.traffic.broadcasts_missed, ref.traffic.broadcasts_missed);
  EXPECT_EQ(got.traffic.receive_airtime, ref.traffic.receive_airtime);
  EXPECT_EQ(got.traffic.missed_airtime, ref.traffic.missed_airtime);
  EXPECT_EQ(got.traffic.transmit_airtime, ref.traffic.transmit_airtime);
  EXPECT_EQ(got.naive_mj, ref.naive_mj);
  EXPECT_EQ(got.naive_mj,
            energy::naive_energy_mj(energy::WnicPowerModel::wavelan(),
                                    Time::sec(1),
                                    got.traffic.receive_airtime +
                                        got.traffic.missed_airtime,
                                    got.traffic.transmit_airtime));
}

INSTANTIATE_TEST_SUITE_P(
    StationKinds, SharedAccounting,
    ::testing::Values(Kind::Proxy, Kind::Psm, Kind::Bsd),
    [](const ::testing::TestParamInfo<Kind>& info) -> std::string {
      switch (info.param) {
        case Kind::Proxy: return "Proxy";
        case Kind::Psm: return "Psm";
        case Kind::Bsd: return "Bsd";
      }
      return "?";
    });

}  // namespace
}  // namespace pp::client
