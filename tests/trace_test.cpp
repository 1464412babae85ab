#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>

#include "exp/builder.hpp"
#include "exp/scenario.hpp"
#include "trace/io.hpp"
#include "trace/monitor.hpp"
#include "trace/postmortem.hpp"

namespace pp::trace {
namespace {

using sim::Time;

TraceRecord make_record(std::int64_t us, bool from_ap = true) {
  TraceRecord r;
  r.air_start = Time::us(us);
  r.airtime = Time::us(900);
  r.pkt_id = static_cast<std::uint64_t>(us);
  r.src = net::Ipv4Addr::octets(10, 0, 0, 1);
  r.src_port = 554;
  r.dst = net::Ipv4Addr::octets(172, 16, 0, 1);
  r.dst_port = 5004;
  r.proto = net::Protocol::Udp;
  r.payload = 1000;
  r.from_ap = from_ap;
  r.delivered = true;
  return r;
}

TEST(TraceIo, BinaryRoundTripPlainRecords) {
  TraceBuffer buf;
  for (int i = 0; i < 100; ++i) {
    auto r = make_record(1000 * i);
    r.marked = i % 7 == 0;
    r.delivered = i % 11 != 0;
    buf.push_back(r);
  }
  std::stringstream ss;
  write_trace(ss, buf);
  const TraceBuffer back = read_trace(ss);
  ASSERT_EQ(back.size(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(back[i].air_start, buf[i].air_start);
    EXPECT_EQ(back[i].airtime, buf[i].airtime);
    EXPECT_EQ(back[i].src, buf[i].src);
    EXPECT_EQ(back[i].dst, buf[i].dst);
    EXPECT_EQ(back[i].payload, buf[i].payload);
    EXPECT_EQ(back[i].marked, buf[i].marked);
    EXPECT_EQ(back[i].delivered, buf[i].delivered);
    EXPECT_EQ(back[i].proto, buf[i].proto);
  }
}

TEST(TraceIo, ScheduleMessagesRoundTrip) {
  auto sched = std::make_shared<proxy::ScheduleMessage>();
  sched->seq_no = 42;
  sched->srp_time = Time::ms(500);
  sched->interval = Time::ms(100);
  sched->reuse_next = true;
  sched->entries.push_back({net::Ipv4Addr::octets(172, 16, 0, 1), Time::ms(4),
                            Time::ms(20), proxy::SlotKind::TcpOnly});
  sched->entries.push_back({net::Ipv4Addr::octets(172, 16, 0, 2), Time::ms(24),
                            Time::ms(30), proxy::SlotKind::Any});
  TraceRecord r = make_record(0);
  r.dst = net::Ipv4Addr::broadcast();
  r.dst_port = proxy::kSchedulePort;
  r.data = sched;
  TraceBuffer buf{r};

  std::stringstream ss;
  write_trace(ss, buf);
  const TraceBuffer back = read_trace(ss);
  ASSERT_EQ(back.size(), 1u);
  const auto* got =
      dynamic_cast<const proxy::ScheduleMessage*>(back[0].data.get());
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->seq_no, 42u);
  EXPECT_EQ(got->srp_time, Time::ms(500));
  EXPECT_EQ(got->interval, Time::ms(100));
  EXPECT_TRUE(got->reuse_next);
  ASSERT_EQ(got->entries.size(), 2u);
  EXPECT_EQ(got->entries[0].kind, proxy::SlotKind::TcpOnly);
  EXPECT_EQ(got->entries[1].rp_offset, Time::ms(24));
}

TEST(TraceIo, BadMagicRejected) {
  std::stringstream ss;
  ss << "NOTATRACE";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, TruncatedInputRejected) {
  TraceBuffer buf{make_record(0), make_record(1000)};
  std::stringstream ss;
  write_trace(ss, buf);
  std::string s = ss.str();
  s.resize(s.size() / 2);
  std::stringstream cut{s};
  EXPECT_THROW(read_trace(cut), std::runtime_error);
}

TEST(TraceIo, FileSaveLoad) {
  TraceBuffer buf{make_record(0), make_record(5000)};
  const std::string path = "/tmp/pp_trace_test.bin";
  save_trace(path, buf);
  const TraceBuffer back = load_trace(path);
  EXPECT_EQ(back.size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIo, TextDumpContainsKeyFields) {
  TraceBuffer buf;
  auto r = make_record(0);
  r.marked = true;
  r.delivered = false;
  buf.push_back(r);
  std::ostringstream os;
  dump_trace(os, buf);
  const std::string s = os.str();
  EXPECT_NE(s.find("10.0.0.1:554"), std::string::npos);
  EXPECT_NE(s.find("[mark]"), std::string::npos);
  EXPECT_NE(s.find("[lost]"), std::string::npos);
}

// -- Monitoring + postmortem over a live scenario ---------------------------------

struct ScenarioTraceFixture : ::testing::Test {
  static const exp::ScenarioConfig& config() {
    static const exp::ScenarioConfig cfg =
        exp::ScenarioBuilder{}
            .video(3, 0)  // three 56K video clients
            .policy(exp::IntervalPolicy::Fixed500)
            .seed(11)
            .duration_s(60.0)
            .keep_trace()
            .build();
    return cfg;
  }
  static const exp::ScenarioResult& result() {
    static const exp::ScenarioResult res = exp::run_scenario(config());
    return res;
  }
};

TEST_F(ScenarioTraceFixture, MonitoringStationHeardTraffic) {
  const auto& res = result();
  EXPECT_GT(res.trace.size(), 500u);
  // The trace contains schedule broadcasts and marked packets.
  int schedules = 0, marks = 0;
  for (const auto& r : res.trace) {
    if (r.is_broadcast()) ++schedules;
    marks += r.marked;
  }
  EXPECT_GT(schedules, 100);
  EXPECT_GT(marks, 50);
}

TEST_F(ScenarioTraceFixture, PostmortemAgreesWithLiveClient) {
  const auto& res = result();
  PostmortemAnalyzer analyzer{res.trace};
  // Replay the policy the live clients ran (its jitter guard included).
  const client::DaemonConfig cfg = exp::daemon_config(config());
  for (const auto& live : res.clients) {
    const auto rep = analyzer.analyze(live.ip, cfg, res.horizon);
    // Same daemon code, same trace: savings agree closely.  Exact equality
    // is not expected — the replay cannot re-roll per-receiver frame
    // corruption (it assumes an awake client receives every frame), so it
    // is mildly optimistic; the paper's tcpdump-based method shares this
    // limitation.
    EXPECT_NEAR(rep.saved_fraction * 100.0, live.saved_pct, 6.0)
        << "client " << live.ip.str();
    EXPECT_GE(rep.saved_fraction * 100.0, live.saved_pct - 1.0)
        << "replay should not be pessimistic; client " << live.ip.str();
    EXPECT_NEAR(static_cast<double>(rep.packets_received),
                static_cast<double>(live.packets_received),
                0.05 * static_cast<double>(live.packets_received) + 20);
  }
}

TEST_F(ScenarioTraceFixture, PostmortemNaiveBaselineDominates) {
  const auto& res = result();
  PostmortemAnalyzer analyzer{res.trace};
  const client::DaemonConfig cfg = exp::daemon_config(config());
  for (const auto& live : res.clients) {
    const auto rep = analyzer.analyze(live.ip, cfg, res.horizon);
    EXPECT_GT(rep.naive_energy_mj, rep.energy_mj);
    EXPECT_GT(rep.saved_fraction, 0.5);
  }
}

TEST_F(ScenarioTraceFixture, EarlyTransitionSweepTradesWasteForMisses) {
  // Figure 6's mechanism: less early waking means less early-wait energy.
  const auto& res = result();
  PostmortemAnalyzer analyzer{res.trace};
  client::DaemonConfig lo, hi;
  lo.comp.early = Time::ms(0);
  hi.comp.early = Time::ms(10);
  const auto rep_lo = analyzer.analyze(res.clients[0].ip, lo, res.horizon);
  const auto rep_hi = analyzer.analyze(res.clients[0].ip, hi, res.horizon);
  EXPECT_LT(rep_lo.early_wait_mj, rep_hi.early_wait_mj);
}

TEST_F(ScenarioTraceFixture, TraceRoundTripPreservesPostmortem) {
  const auto& res = result();
  std::stringstream ss;
  write_trace(ss, res.trace);
  const TraceBuffer back = read_trace(ss);
  PostmortemAnalyzer a1{res.trace}, a2{back};
  client::DaemonConfig cfg;
  const auto r1 = a1.analyze(res.clients[0].ip, cfg, res.horizon);
  const auto r2 = a2.analyze(res.clients[0].ip, cfg, res.horizon);
  EXPECT_DOUBLE_EQ(r1.energy_mj, r2.energy_mj);
  EXPECT_EQ(r1.packets_received, r2.packets_received);
  EXPECT_EQ(r1.schedules_received, r2.schedules_received);
}

}  // namespace
}  // namespace pp::trace
