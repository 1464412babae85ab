// Multi-cell engine tests: the lockstep-epoch exchange must produce
// bit-identical replay digests regardless of worker count, hash salt, and
// the order cells are dispatched in — and the backbone must actually carry
// traffic between cells.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exp/digest.hpp"
#include "exp/multicell.hpp"
#include "exp/scenario.hpp"
#include "net/addr.hpp"
#include "obs/hooks.hpp"

namespace pp::exp {
namespace {

using sim::Time;

// Restores the process-wide hash salt on scope exit so tests compose.
struct ScopedHashSalt {
  explicit ScopedHashSalt(std::uint64_t salt) : prev_(net::hash_salt()) {
    net::set_hash_salt(salt);
  }
  ~ScopedHashSalt() { net::set_hash_salt(prev_); }

 private:
  std::uint64_t prev_;
};

// A small but non-trivial fleet: three cells of mixed video/web/idle
// clients, short horizon, cross-traffic on.
MultiCellConfig small_fleet() {
  MultiCellConfig mc;
  mc.num_cells = 3;
  mc.cell.roles = {1, kRoleWeb, kRoleIdle, kRoleIdle};
  mc.cell.policy = IntervalPolicy::Fixed500;
  mc.cell.seed = 42;
  mc.cell.duration_s = 6.0;
  mc.cell.web_pages = 3;
  mc.backbone_latency = Time::ms(20);
  mc.cross.period = Time::ms(150);
  mc.cross.bytes = 400;
  return mc;
}

// The results that exist with observability compiled out: event and
// backbone totals plus every client's bytes and energy, cell by cell.
void expect_same_outcomes(const MultiCellResult& a, const MultiCellResult& b,
                          const char* what) {
  EXPECT_EQ(a.events_total, b.events_total) << what;
  EXPECT_EQ(a.backbone_messages, b.backbone_messages) << what;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t k = 0; k < a.cells.size(); ++k) {
    const auto& ca = a.cells[k].clients;
    const auto& cb = b.cells[k].clients;
    ASSERT_EQ(ca.size(), cb.size()) << what;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].bytes_received, cb[i].bytes_received)
          << what << ": cell " << k << " client " << i;
      EXPECT_EQ(ca[i].energy_mj, cb[i].energy_mj)
          << what << ": cell " << k << " client " << i;
    }
  }
}

TEST(MultiCell, BackboneCarriesTrafficBetweenCells) {
  const MultiCellConfig mc = small_fleet();
  MultiCellResult res = MultiCellTestbed{mc}.run(/*threads=*/1);
  ASSERT_EQ(static_cast<int>(res.cells.size()), mc.num_cells);
  EXPECT_GT(res.backbone_messages, 0u);
  EXPECT_GT(res.events_total, 0u);
  // Idle clients run no application; any bytes they received arrived over
  // the backbone through the proxy's normal downlink path.
  std::uint64_t idle_bytes = 0;
  for (const ScenarioResult& cell : res.cells) {
    for (const ClientResult& c : cell.clients) {
      if (c.role == kRoleIdle) idle_bytes += c.bytes_received;
    }
  }
  EXPECT_GT(idle_bytes, 0u);
}

TEST(MultiCell, DigestIndependentOfWorkerCount) {
  const MultiCellConfig mc = small_fleet();
  const MultiCellResult serial = MultiCellTestbed{mc}.run(1);
  EXPECT_GT(serial.events_total, 0u);
#if PP_OBS_ENABLED
  ASSERT_NE(serial.digest, 0u);
#endif
  for (const unsigned threads : {2u, 4u, 8u}) {
    const MultiCellResult par = MultiCellTestbed{mc}.run(threads);
    expect_same_outcomes(serial, par, "worker count");
#if PP_OBS_ENABLED
    EXPECT_EQ(serial.digest, par.digest)
        << "digest diverged at " << threads << " workers";
#endif
  }
}

TEST(MultiCell, DigestInvariantUnderHashSalt) {
  const MultiCellConfig mc = small_fleet();
  std::uint64_t a, b;
  {
    ScopedHashSalt s{1};
    a = MultiCellTestbed{mc}.run(2).digest;
  }
  {
    ScopedHashSalt s{0x9E3779B97F4A7C15ULL};
    b = MultiCellTestbed{mc}.run(2).digest;
  }
  EXPECT_EQ(a, b) << "hash-bucket iteration order leaked into behaviour";
}

TEST(MultiCell, DigestInvariantUnderCellDispatchOrder) {
  const MultiCellConfig mc = small_fleet();
  MultiCellTestbed forward{mc};
  const MultiCellResult fr = forward.run(2, {0, 1, 2});
  MultiCellTestbed reversed{mc};
  const MultiCellResult rr = reversed.run(2, {2, 1, 0});
  expect_same_outcomes(fr, rr, "dispatch order");
#if PP_OBS_ENABLED
  ASSERT_NE(fr.digest, 0u);
  EXPECT_EQ(fr.digest, rr.digest);
#endif
}

// Only meaningful with observability: the registries are what it checks.
#if PP_OBS_ENABLED
TEST(MultiCell, MergedRegistryAggregatesCells) {
  MultiCellConfig mc = small_fleet();
  mc.cell.keep_obs = true;  // retain per-cell registries to check against
  MultiCellResult res = MultiCellTestbed{mc}.run(1);
  // Counter names are cell-agnostic, so the merged registry must hold the
  // exact sum of the per-cell values, name by name.
  std::uint64_t merged = 0;
  if (const auto* c = res.merged.find_counter("proxy.schedules_sent"))
    merged = c->value();
  std::uint64_t per_cell_sum = 0;
  for (const ScenarioResult& cell : res.cells) {
    ASSERT_NE(cell.obs, nullptr);
    if (const auto* c = cell.obs->metrics.find_counter("proxy.schedules_sent"))
      per_cell_sum += c->value();
  }
  EXPECT_GT(per_cell_sum, 0u);
  EXPECT_EQ(merged, per_cell_sum);
}
#endif  // PP_OBS_ENABLED

TEST(MultiCell, SingleCellNoCrossTrafficMatchesPlainScenario) {
  // One cell emits no cross traffic and is exactly run_scenario: same
  // events, same results — the epoch loop must not perturb anything.
  MultiCellConfig mc;
  mc.num_cells = 1;
  mc.cell.roles = {1, kRoleWeb};
  mc.cell.seed = 7;
  mc.cell.duration_s = 6.0;
  mc.cell.web_pages = 3;
  const MultiCellResult res = MultiCellTestbed{mc}.run(1);
  const ScenarioResult plain = run_scenario(mc.cell);
  ASSERT_EQ(res.cells.size(), 1u);
  EXPECT_EQ(res.backbone_messages, 0u);
  ASSERT_EQ(res.cells[0].clients.size(), plain.clients.size());
  for (std::size_t i = 0; i < plain.clients.size(); ++i) {
    EXPECT_EQ(res.cells[0].clients[i].packets_received,
              plain.clients[i].packets_received);
    EXPECT_EQ(res.cells[0].clients[i].bytes_received,
              plain.clients[i].bytes_received);
    EXPECT_DOUBLE_EQ(res.cells[0].clients[i].energy_mj,
                     plain.clients[i].energy_mj);
  }
#if PP_OBS_ENABLED
  ASSERT_NE(res.digest, 0u);
  EXPECT_EQ(res.digest, fnv1a_u64(kFnvOffset, run_digest(mc.cell)));
#endif
}

// Cross traffic divides by the cell's client count and re-arms every
// period, so a fleet that would crash or never finish an epoch is refused
// at construction.
TEST(MultiCell, RejectsEmptyCellsWithCrossTraffic) {
  MultiCellConfig mc = small_fleet();
  mc.cell.roles.clear();
  EXPECT_THROW(MultiCellTestbed{mc}, std::invalid_argument);
}

TEST(MultiCell, RejectsNonPositiveCrossPeriod) {
  MultiCellConfig mc = small_fleet();
  mc.cross.period = Time::zero();
  EXPECT_THROW(MultiCellTestbed{mc}, std::invalid_argument);
  mc.cross.period = Time::ms(-150);
  EXPECT_THROW(MultiCellTestbed{mc}, std::invalid_argument);
}

TEST(MultiCell, SixteenBitClientAddressing) {
  EXPECT_EQ(testbed_client_ip(0).str(), "172.16.0.1");
  EXPECT_EQ(testbed_client_ip(254).str(), "172.16.0.255");
  EXPECT_EQ(testbed_client_ip(255).str(), "172.16.1.0");
  EXPECT_EQ(testbed_client_ip(6249).str(), "172.16.24.106");
  // Distinctness over a large prefix of the index space.
  EXPECT_NE(testbed_client_ip(255).raw(), testbed_client_ip(511).raw());
}

TEST(MultiCell, PerClientObsOffStillYieldsClientResults) {
  MultiCellConfig mc = small_fleet();
  mc.cell.per_client_obs = false;
  const MultiCellResult res = MultiCellTestbed{mc}.run(1);
#if PP_OBS_ENABLED
  ASSERT_NE(res.digest, 0u);
#endif
  EXPECT_GT(res.events_total, 0u);
  for (const ScenarioResult& cell : res.cells) {
    for (const ClientResult& c : cell.clients) {
      if (c.role == kRoleIdle) continue;
      EXPECT_GT(c.energy_mj, 0.0);
      EXPECT_GT(c.naive_mj, 0.0);
    }
  }
}

// An idle-heavy fleet whose results are pinned: three cells of 300
// clients (four video, four web, the rest idle) with cross traffic, the
// shape of the perfbench fleet in miniature.  Idle clients that heard the
// same broadcast share their wake instants, so this pins the outcome of
// the shared-instant timer path against the per-client timers it stands
// in for.
MultiCellConfig idle_fleet(bool per_client_obs) {
  MultiCellConfig mc;
  mc.num_cells = 3;
  mc.cell.roles.assign(300, kRoleIdle);
  for (int i = 0; i < 4; ++i) mc.cell.roles[i] = 1;
  for (int i = 4; i < 8; ++i) mc.cell.roles[i] = kRoleWeb;
  mc.cell.policy = IntervalPolicy::Fixed500;
  mc.cell.seed = 7;
  mc.cell.duration_s = 8.0;
  mc.cell.video_start_s = 1.0;
  mc.cell.video_spacing_s = 0.25;
  mc.cell.web_pages = 2;
  mc.cell.per_client_obs = per_client_obs;
  mc.backbone_latency = Time::ms(20);
  mc.cross.period = Time::ms(100);
  mc.cross.bytes = 600;
  mc.cross.fanout = 4;
  return mc;
}

// FNV-1a fold of every client's energy bits and daemon counters, cell by
// cell.
std::uint64_t client_outcome_hash(const MultiCellResult& res) {
  std::uint64_t h = kFnvOffset;
  for (const ScenarioResult& cell : res.cells) {
    for (const ClientResult& c : cell.clients) {
      h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(c.energy_mj));
      h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(c.naive_mj));
      h = fnv1a_u64(h, c.schedules_received);
      h = fnv1a_u64(h, c.schedules_missed);
      h = fnv1a_u64(h, c.sleeps);
      h = fnv1a_u64(h, c.packets_missed);
      h = fnv1a_u64(h, c.resyncs);
    }
  }
  return h;
}

#if defined(__GLIBCXX__) && defined(__x86_64__)
TEST(MultiCell, PinnedIdleFleetOutcomes) {
  ScopedHashSalt s{1};
  const MultiCellResult on = MultiCellTestbed{idle_fleet(true)}.run(1);
  const MultiCellResult off = MultiCellTestbed{idle_fleet(false)}.run(1);
  EXPECT_EQ(client_outcome_hash(on), 0xfc03170913618cd6ull);
  EXPECT_EQ(client_outcome_hash(off), 0xfc03170913618cd6ull);
  EXPECT_EQ(on.events_total, 30203u);
  EXPECT_EQ(off.events_total, 30203u);
#if PP_OBS_ENABLED
  EXPECT_EQ(on.digest, 0x6a95e25ea593a6beull);
  EXPECT_EQ(off.digest, 0xba28e5f26f23f05full);
#endif
}
#endif  // __GLIBCXX__ && __x86_64__

#if PP_OBS_ENABLED
TEST(MultiCell, IdleFleetRunsMoreCallbacksThanHeapEvents) {
  // Idle clients that heard one broadcast share one heap event per wake
  // instant, so the callbacks run (every group member counts) outnumber
  // the heap events fired.
  const MultiCellResult res = MultiCellTestbed{idle_fleet(false)}.run(1);
  const obs::Counter* callbacks = res.merged.find_counter("sim.callbacks.fired");
  const obs::Counter* events = res.merged.find_counter("sim.events.fired");
  ASSERT_NE(callbacks, nullptr);
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->value(), 0u);
  EXPECT_GT(callbacks->value(), events->value());
}
#endif  // PP_OBS_ENABLED

}  // namespace
}  // namespace pp::exp
