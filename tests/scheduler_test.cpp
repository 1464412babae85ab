#include <gtest/gtest.h>

#include "proxy/policies.hpp"
#include "proxy/scheduler.hpp"

namespace pp::proxy {
namespace {

using sim::Time;

net::Ipv4Addr ip(int i) {
  return net::Ipv4Addr::octets(172, 16, 0, static_cast<std::uint8_t>(i));
}

BandwidthEstimator linear_est() {
  std::vector<BandwidthEstimator::Sample> samples;
  for (std::uint32_t n : {100u, 700u, 1400u})
    samples.push_back({n, 1e-3 + 2e-6 * n});
  return BandwidthEstimator{samples};
}

// Entries must be back-to-back, non-overlapping, inside the interval.
void check_layout(const BuiltSchedule& b, bool allow_overlap = false) {
  ASSERT_FALSE(b.entries.empty());
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    const auto& e = b.entries[i];
    EXPECT_GE(e.rp_offset, Time::zero());
    EXPECT_GE(e.duration, Time::zero());
    EXPECT_LE((e.rp_offset + e.duration).count_ns(),
              b.interval.count_ns() + 1000);
    if (i > 0 && !allow_overlap) {
      EXPECT_GE(e.rp_offset, b.entries[i - 1].rp_offset);
    }
  }
}

TEST(FixedIntervalScheduler, EmptyDemandsYieldNoEntries) {
  FixedIntervalScheduler sched{Time::ms(100)};
  const auto est = linear_est();
  const auto b = sched.build({}, est);
  EXPECT_EQ(b.interval, Time::ms(100));
  EXPECT_TRUE(b.entries.empty());
  EXPECT_FALSE(b.reuse_next);
}

TEST(FixedIntervalScheduler, IdleClientsGetNoSlot) {
  FixedIntervalScheduler sched{Time::ms(100)};
  const auto est = linear_est();
  std::vector<ClientDemand> d{{ip(1), 5000, 0}, {ip(2), 0, 0}};
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_EQ(b.entries[0].client, ip(1));
}

TEST(FixedIntervalScheduler, SlotCoversDrainCost) {
  FixedIntervalScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  std::vector<ClientDemand> d{{ip(1), 20000, 0}};
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_GE(b.entries[0].duration, est.bulk_cost(20000, 1400));
  check_layout(b);
}

TEST(FixedIntervalScheduler, OvercommitSharesProportionally) {
  FixedIntervalScheduler sched{Time::ms(100)};
  const auto est = linear_est();
  // Way more demand than 100 ms can carry; 3:1 queue ratio.
  std::vector<ClientDemand> d{{ip(1), 300000, 0}, {ip(2), 100000, 0}};
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 2u);
  const double ratio = b.entries[0].duration.ratio(b.entries[1].duration);
  EXPECT_NEAR(ratio, 3.0, 0.05);
  // Slots fill (nearly) the whole interval.
  const auto total = b.entries[0].duration + b.entries[1].duration;
  EXPECT_GE(total.count_ns(), (b.interval - Time::ms(5)).count_ns() * 9 / 10);
  check_layout(b);
}

TEST(FixedIntervalScheduler, TcpDemandCostsMoreThanUdp) {
  FixedIntervalScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  std::vector<ClientDemand> udp{{ip(1), 50000, 0}};
  std::vector<ClientDemand> tcp{{ip(1), 0, 50000}};
  const auto bu = sched.build(udp, est);
  const auto bt = sched.build(tcp, est);
  EXPECT_GT(bt.entries[0].duration, bu.entries[0].duration);
}

TEST(VariableIntervalScheduler, ShrinksToMinWhenIdle) {
  VariableIntervalScheduler sched;
  const auto est = linear_est();
  const auto b = sched.build({{ip(1), 100, 0}}, est);
  EXPECT_EQ(b.interval, Time::ms(100));
}

TEST(VariableIntervalScheduler, GrowsWithDemand) {
  VariableIntervalScheduler sched;
  const auto est = linear_est();
  // ~75000 bytes ~= 204 ms of channel time: interval must stretch.
  const auto b = sched.build({{ip(1), 75000, 0}}, est);
  EXPECT_GT(b.interval, Time::ms(150));
  EXPECT_LT(b.interval, Time::ms(500));
  // Slot drains the queue.
  EXPECT_GE(b.entries[0].duration, est.bulk_cost(75000, 1400));
}

TEST(VariableIntervalScheduler, CapsAtMaxAndScalesSlots) {
  VariableIntervalScheduler sched;
  const auto est = linear_est();
  const auto b =
      sched.build({{ip(1), 400000, 0}, {ip(2), 400000, 0}}, est);
  EXPECT_EQ(b.interval, Time::ms(500));
  check_layout(b);
  // Equal demands -> equal scaled slots.
  EXPECT_NEAR(b.entries[0].duration.ratio(b.entries[1].duration), 1.0, 0.01);
}

TEST(VariableIntervalScheduler, IntervalBetweenBounds) {
  VariableIntervalScheduler sched;
  const auto est = linear_est();
  for (std::uint64_t bytes : {0ull, 1000ull, 50000ull, 200000ull, 900000ull}) {
    const auto b = sched.build({{ip(1), bytes, 0}}, est);
    EXPECT_GE(b.interval, Time::ms(100));
    EXPECT_LE(b.interval, Time::ms(500));
  }
}

TEST(StaticScheduler, EqualSlotsForAllClientsRegardlessOfDemand) {
  StaticScheduler sched{Time::ms(100), {ip(1), ip(2), ip(3), ip(4)}};
  const auto est = linear_est();
  // No demand at all: entries still exist.
  const auto b = sched.build({}, est);
  ASSERT_EQ(b.entries.size(), 4u);
  for (const auto& e : b.entries)
    EXPECT_EQ(e.duration, b.entries[0].duration);
  EXPECT_TRUE(b.reuse_next);
  check_layout(b);
}

TEST(StaticScheduler, ScheduleIsIdenticalAcrossTicks) {
  StaticScheduler sched{Time::ms(100), {ip(1), ip(2)}};
  const auto est = linear_est();
  const auto b1 = sched.build({{ip(1), 99999, 0}}, est);
  const auto b2 = sched.build({{ip(2), 5, 0}}, est);
  ASSERT_EQ(b1.entries.size(), b2.entries.size());
  for (std::size_t i = 0; i < b1.entries.size(); ++i) {
    EXPECT_EQ(b1.entries[i].client, b2.entries[i].client);
    EXPECT_EQ(b1.entries[i].rp_offset, b2.entries[i].rp_offset);
    EXPECT_EQ(b1.entries[i].duration, b2.entries[i].duration);
  }
}

TEST(SlottedStaticScheduler, TcpSlotThenUdpSlots) {
  SlottedStaticScheduler sched{Time::ms(500), 0.33, {ip(1), ip(2)}, {ip(3)}};
  const auto est = linear_est();
  const auto b = sched.build({}, est);
  // 3 TCP-slot entries (everyone awake) + 2 UDP slots.
  ASSERT_EQ(b.entries.size(), 5u);
  int tcp_entries = 0, udp_entries = 0;
  sim::Duration tcp_end;
  for (const auto& e : b.entries) {
    if (e.kind == SlotKind::TcpOnly) {
      ++tcp_entries;
      tcp_end = e.rp_offset + e.duration;
    } else if (e.kind == SlotKind::UdpOnly) {
      ++udp_entries;
      EXPECT_GE(e.rp_offset, tcp_end);  // UDP slots follow the TCP slot
    }
  }
  EXPECT_EQ(tcp_entries, 3);
  EXPECT_EQ(udp_entries, 2);
  EXPECT_TRUE(b.reuse_next);
}

TEST(SlottedStaticScheduler, TcpWeightControlsSlotSize) {
  const auto est = linear_est();
  SlottedStaticScheduler small{Time::ms(500), 0.10, {ip(1)}, {ip(2)}};
  SlottedStaticScheduler large{Time::ms(500), 0.56, {ip(1)}, {ip(2)}};
  const auto bs = small.build({}, est);
  const auto bl = large.build({}, est);
  sim::Duration ds, dl;
  for (const auto& e : bs.entries)
    if (e.kind == SlotKind::TcpOnly) ds = e.duration;
  for (const auto& e : bl.entries)
    if (e.kind == SlotKind::TcpOnly) dl = e.duration;
  EXPECT_NEAR(dl.ratio(ds), 5.6, 0.05);
}

// Parameterized sweep: every scheduler respects basic layout invariants for
// a range of demand mixes.  gtest names each case by the struct's raw bytes,
// so every field is 8 bytes wide: no padding, hence stable test ids.
struct SchedCase {
  std::uint64_t udp;
  std::uint64_t tcp;
  std::int64_t clients;
};

class SchedulerLayoutSweep : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerLayoutSweep, FixedLayoutInvariants) {
  const auto p = GetParam();
  FixedIntervalScheduler sched{Time::ms(100)};
  const auto est = linear_est();
  std::vector<ClientDemand> d;
  for (int i = 0; i < p.clients; ++i) d.push_back({ip(i + 1), p.udp, p.tcp});
  const auto b = sched.build(d, est);
  if (p.udp + p.tcp == 0) {
    EXPECT_TRUE(b.entries.empty());
    return;
  }
  check_layout(b);
  EXPECT_EQ(b.entries.size(), static_cast<std::size_t>(p.clients));
}

TEST_P(SchedulerLayoutSweep, VariableLayoutInvariants) {
  const auto p = GetParam();
  VariableIntervalScheduler sched;
  const auto est = linear_est();
  std::vector<ClientDemand> d;
  for (int i = 0; i < p.clients; ++i) d.push_back({ip(i + 1), p.udp, p.tcp});
  const auto b = sched.build(d, est);
  EXPECT_GE(b.interval, Time::ms(100));
  EXPECT_LE(b.interval, Time::ms(500));
  if (p.udp + p.tcp > 0) check_layout(b);
}

INSTANTIATE_TEST_SUITE_P(
    DemandMixes, SchedulerLayoutSweep,
    ::testing::Values(SchedCase{0, 0, 3}, SchedCase{1000, 0, 1},
                      SchedCase{0, 1000, 1}, SchedCase{5000, 5000, 4},
                      SchedCase{50000, 0, 10}, SchedCase{0, 80000, 10},
                      SchedCase{200000, 200000, 10}, SchedCase{1, 1, 2}));

// -- Slot non-overlap invariant ----------------------------------------------------

// Every slot carries data (no zero-length entries) and no pair illegally
// shares channel time (the proxy's schedule_tick PP_CHECK predicate).
void check_slots(const BuiltSchedule& b) {
  for (const auto& e : b.entries) {
    EXPECT_GT(e.duration, Time::zero());
    EXPECT_LE((e.rp_offset + e.duration).count_ns(),
              b.interval.count_ns() + 1000);
  }
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    for (std::size_t j = i + 1; j < b.entries.size(); ++j) {
      EXPECT_FALSE(slots_conflict(b.entries[i], b.entries[j]))
          << "entries " << i << " and " << j;
    }
  }
}

TEST(SlotsConflict, DetectsSharedChannelTime) {
  const ScheduleEntry a{ip(1), Time::ms(4), Time::ms(10)};
  const ScheduleEntry overlapping{ip(2), Time::ms(8), Time::ms(10)};
  const ScheduleEntry adjacent{ip(2), Time::ms(14), Time::ms(10)};
  EXPECT_TRUE(slots_conflict(a, overlapping));
  EXPECT_TRUE(slots_conflict(overlapping, a));
  EXPECT_FALSE(slots_conflict(a, adjacent));
  // TcpOnly pairs deliberately share one listening slot.
  ScheduleEntry ta = a, tb = overlapping;
  ta.kind = tb.kind = SlotKind::TcpOnly;
  EXPECT_FALSE(slots_conflict(ta, tb));
  // Mixed kinds still conflict.
  tb.kind = SlotKind::UdpOnly;
  EXPECT_TRUE(slots_conflict(ta, tb));
}

// -- Edge cases: zero demand, over-capacity single client, packet-count ------------

TEST(SchedulerEdgeCases, ZeroDemandSetYieldsNoEntries) {
  const auto est = linear_est();
  std::vector<ClientDemand> idle{{ip(1), 0, 0}, {ip(2), 0, 0}, {ip(3), 0, 0}};
  FixedIntervalScheduler fixed{Time::ms(500)};
  VariableIntervalScheduler variable;
  LongestQueueFirstScheduler lqf{Time::ms(500)};
  ChannelAwareOpportunisticScheduler opp{Time::ms(500)};
  BufferAwareProbabilisticScheduler prob{Time::ms(500), 42};
  EXPECT_TRUE(fixed.build(idle, est).entries.empty());
  EXPECT_TRUE(variable.build(idle, est).entries.empty());
  EXPECT_TRUE(lqf.build(idle, est).entries.empty());
  EXPECT_TRUE(opp.build(idle, est).entries.empty());
  EXPECT_TRUE(prob.build(idle, est).entries.empty());
}

TEST(SchedulerEdgeCases, SingleClientExceedingMaxIntervalStaysInBounds) {
  const auto est = linear_est();
  // ~10 MB is far more than any 500 ms interval can carry.
  std::vector<ClientDemand> d{{ip(1), 10'000'000, 0}};
  FixedIntervalScheduler fixed{Time::ms(500)};
  const auto bf = fixed.build(d, est);
  ASSERT_EQ(bf.entries.size(), 1u);
  check_slots(bf);
  VariableIntervalScheduler variable;
  const auto bv = variable.build(d, est);
  EXPECT_EQ(bv.interval, Time::ms(500));  // capped at max
  ASSERT_EQ(bv.entries.size(), 1u);
  check_slots(bv);
  LongestQueueFirstScheduler lqf{Time::ms(500)};
  const auto bl = lqf.build(d, est);
  ASSERT_EQ(bl.entries.size(), 1u);
  check_slots(bl);
}

TEST(SchedulerEdgeCases, UdpPacketCountDominatedDemand) {
  const auto est = linear_est();
  // Thousands of tiny datagrams: per-packet overhead dwarfs the byte cost,
  // so the slot must cover queue_cost (packet framing), not just bulk_cost.
  ClientDemand d{ip(1), 4000, 0};
  d.udp_packets = 2000;  // 2-byte datagrams
  FixedIntervalScheduler fixed{Time::ms(5000)};
  const auto b = fixed.build({d}, est);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_GE(b.entries[0].duration, est.queue_cost(2000, 4000));
  EXPECT_GT(est.queue_cost(2000, 4000), est.bulk_cost(4000, 1400));
  check_slots(b);
}

// -- Policy zoo --------------------------------------------------------------------

ClientDemand bad_channel_demand(net::Ipv4Addr who, std::uint64_t bytes,
                                sim::Duration slack) {
  ClientDemand d{who, bytes, 0};
  d.channel.known = true;
  d.channel.num_states = 2;
  d.channel.state = 1;  // worst rung
  d.deadline_slack = slack;
  return d;
}

TEST(LongestQueueFirstScheduler, DeepestQueueGoesFirst) {
  LongestQueueFirstScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  std::vector<ClientDemand> d{
      {ip(1), 1000, 0}, {ip(2), 50000, 0}, {ip(3), 9000, 0}};
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 3u);
  EXPECT_EQ(b.entries[0].client, ip(2));
  EXPECT_EQ(b.entries[1].client, ip(3));
  EXPECT_EQ(b.entries[2].client, ip(1));
  check_slots(b);
  // Full drain cost for everyone when the interval has room.
  EXPECT_GE(b.entries[0].duration, est.bulk_cost(50000, 1400));
}

TEST(LongestQueueFirstScheduler, TailStarvedWhenOvercommitted) {
  LongestQueueFirstScheduler sched{Time::ms(100)};
  const auto est = linear_est();
  // Each queue alone eats the whole 100 ms interval.
  std::vector<ClientDemand> d;
  for (int i = 1; i <= 5; ++i) {
    d.push_back({ip(i), 100000ull * static_cast<std::uint64_t>(i), 0});
  }
  const auto b = sched.build(d, est);
  ASSERT_FALSE(b.entries.empty());
  EXPECT_LT(b.entries.size(), d.size());       // somebody starved
  EXPECT_EQ(b.entries[0].client, ip(5));       // deepest first
  check_slots(b);
}

TEST(ChannelAwareOpportunisticScheduler, DefersBadChannelWithinSlack) {
  ChannelAwareOpportunisticScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  std::vector<ClientDemand> d{{ip(1), 20000, 0}};
  d[0].deadline_slack = Time::ms(750);
  d.push_back(bad_channel_demand(ip(2), 20000, Time::ms(750)));
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 1u);  // bad-channel client sat out
  EXPECT_EQ(b.entries[0].client, ip(1));
  check_slots(b);
}

TEST(ChannelAwareOpportunisticScheduler, DeadlineOverridesDeferral) {
  ChannelAwareOpportunisticScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  // Bad channel but no slack: serving is mandatory.
  std::vector<ClientDemand> d{
      bad_channel_demand(ip(1), 20000, Time::zero())};
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_EQ(b.entries[0].client, ip(1));
}

TEST(ChannelAwareOpportunisticScheduler, SkipCapForcesService) {
  ChannelAwareOpportunisticScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  const auto d = std::vector<ClientDemand>{
      bad_channel_demand(ip(1), 20000, Time::seconds(10))};
  // Ample slack: deferred for kMaxDeferrals SRPs, then served regardless.
  for (int i = 0; i < ChannelAwareOpportunisticScheduler::kMaxDeferrals; ++i) {
    EXPECT_TRUE(sched.build(d, est).entries.empty()) << "SRP " << i;
  }
  const auto b = sched.build(d, est);
  ASSERT_EQ(b.entries.size(), 1u);
  // The forced serve reset the streak: the next SRP defers again.
  EXPECT_TRUE(sched.build(d, est).entries.empty());
}

TEST(ChannelAwareOpportunisticScheduler, GoodChannelNeverDeferred) {
  ChannelAwareOpportunisticScheduler sched{Time::ms(500)};
  const auto est = linear_est();
  std::vector<ClientDemand> d{{ip(1), 20000, 0}};
  d[0].deadline_slack = Time::seconds(10);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sched.build(d, est).entries.size(), 1u);
  }
}

TEST(BufferAwareProbabilisticScheduler, SameSeedReproduces) {
  const auto est = linear_est();
  BufferAwareProbabilisticScheduler s1{Time::ms(500), 1234};
  BufferAwareProbabilisticScheduler s2{Time::ms(500), 1234};
  std::vector<ClientDemand> d;
  for (int i = 1; i <= 4; ++i) {
    d.push_back({ip(i), 2000ull * static_cast<std::uint64_t>(i), 0});
    d.back().deadline_slack = Time::seconds(10);  // draws decide, not deadlines
  }
  for (int srp = 0; srp < 50; ++srp) {
    const auto b1 = s1.build(d, est);
    const auto b2 = s2.build(d, est);
    ASSERT_EQ(b1.entries.size(), b2.entries.size()) << "SRP " << srp;
    for (std::size_t i = 0; i < b1.entries.size(); ++i) {
      EXPECT_EQ(b1.entries[i].client, b2.entries[i].client);
      EXPECT_EQ(b1.entries[i].duration, b2.entries[i].duration);
    }
    check_slots(b1);
  }
}

TEST(BufferAwareProbabilisticScheduler, DeadlineForcesService) {
  const auto est = linear_est();
  // Tiny queue (admission p ~ 0.01) but zero slack: always served.
  BufferAwareProbabilisticScheduler sched{Time::ms(500), 7};
  std::vector<ClientDemand> d{{ip(1), 170, 0}};
  for (int srp = 0; srp < 30; ++srp) {
    EXPECT_EQ(sched.build(d, est).entries.size(), 1u) << "SRP " << srp;
  }
}

TEST(BufferAwareProbabilisticScheduler, ShallowQueuesSkipDeepQueuesStay) {
  const auto est = linear_est();
  BufferAwareProbabilisticScheduler sched{Time::ms(500), 99};
  // q0 = 16 KB: a 170-byte queue is admitted ~1% of SRPs, a 1.6 MB queue
  // ~99%.  Count service rates over many SRPs.
  std::vector<ClientDemand> d{{ip(1), 170, 0}, {ip(2), 1'600'000, 0}};
  d[0].deadline_slack = d[1].deadline_slack = Time::seconds(10);
  int shallow = 0, deep = 0;
  for (int srp = 0; srp < 400; ++srp) {
    const auto b = sched.build(d, est);
    check_slots(b);
    for (const auto& e : b.entries) {
      if (e.client == ip(1)) ++shallow;
      if (e.client == ip(2)) ++deep;
    }
  }
  EXPECT_LT(shallow, 40);   // ~1% expected
  EXPECT_GT(deep, 360);     // ~99% expected
}

}  // namespace
}  // namespace pp::proxy
