// Model/fuzz tests for the slab-pooled EventQueue: randomized
// schedule/cancel/pop/reschedule sequences checked against a reference
// std::multimap ordered by (time, insertion-seq) — the contract the
// engine's determinism rests on — plus handle-generation safety (a stale
// handle must never observe or cancel a recycled slot).  The Simulator's
// shared-instant timer groups are checked the same way, against a
// reference run in which every join is an ordinary push.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace pp::sim {
namespace {

// Reference model: pop order is strictly (when, seq) ascending.
using ModelKey = std::pair<std::int64_t, std::uint64_t>;

struct Fuzzer {
  explicit Fuzzer(std::uint64_t seed) : rng{seed} {}

  void push_one() {
    const std::int64_t when = static_cast<std::int64_t>(rng.next_u64() % 1000);
    const int id = next_id++;
    handles.push_back(
        {q.push(Time::ns(when), [this, id] { fired.push_back(id); }), id});
    model.emplace(ModelKey{when, seq}, id);
    ++seq;
  }

  // Cancel a uniformly chosen handle — live, already-fired, or
  // already-cancelled; the queue must tolerate all three.
  void cancel_one() {
    if (handles.empty()) return;
    auto& [h, id] = handles[rng.next_u64() % handles.size()];
    const bool was_live = model_contains(id);
    EXPECT_EQ(h.pending(), was_live);
    h.cancel();
    EXPECT_FALSE(h.pending());
    if (was_live) model_erase(id);
  }

  void pop_one() {
    if (model.empty()) {
      EXPECT_TRUE(q.empty());
      return;
    }
    const auto expect = *model.begin();
    model.erase(model.begin());
    auto [when, fn] = q.pop();
    EXPECT_EQ(when.count_ns(), expect.first.first);
    const std::size_t before = fired.size();
    fn();
    ASSERT_EQ(fired.size(), before + 1);
    EXPECT_EQ(fired.back(), expect.second);
  }

  void check_invariants() {
    EXPECT_EQ(q.empty(), model.empty());
    EXPECT_EQ(q.size(), model.size());
    const Time expect_next =
        model.empty() ? Time::max() : Time::ns(model.begin()->first.first);
    EXPECT_EQ(q.next_time(), expect_next);
    // Lazy pruning never holds more than one stale node per cancellation.
    EXPECT_GE(q.size_bound(), q.size());
  }

  bool model_contains(int id) const {
    for (const auto& [k, v] : model)
      if (v == id) return true;
    return false;
  }
  void model_erase(int id) {
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->second == id) {
        model.erase(it);
        return;
      }
    }
  }

  Rng rng;
  EventQueue q;
  std::multimap<ModelKey, int> model;
  std::vector<std::pair<EventHandle, int>> handles;
  std::vector<int> fired;
  std::uint64_t seq = 0;
  int next_id = 0;
};

TEST(EventQueueModel, RandomizedOpsMatchReference) {
  for (std::uint64_t seed : {11u, 202u, 3033u, 40404u}) {
    Fuzzer f{seed};
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = f.rng.next_u64() % 10;
      if (op < 4) {
        f.push_one();
      } else if (op < 6) {
        f.cancel_one();
      } else if (op < 9) {
        f.pop_one();
      } else {
        // Reschedule: cancel one, then push a replacement.
        f.cancel_one();
        f.push_one();
      }
      f.check_invariants();
    }
    // Drain; the tail must still come out in model order.
    while (!f.q.empty()) f.pop_one();
    f.check_invariants();
  }
}

TEST(EventQueueModel, PopOrderIsTimeThenInsertionSeq) {
  EventQueue q;
  std::vector<int> order;
  q.push(Time::ms(5), [&] { order.push_back(50); });
  q.push(Time::ms(1), [&] { order.push_back(10); });
  q.push(Time::ms(5), [&] { order.push_back(51); });
  q.push(Time::ms(1), [&] { order.push_back(11); });
  q.push(Time::ms(3), [&] { order.push_back(30); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 30, 50, 51}));
}

// A handle from a fired event must not touch whatever reuses its slot.
TEST(EventQueueModel, StaleHandleAfterFireCannotCancelReusedSlot) {
  EventQueue q;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle ha = q.push(Time::ms(1), [&] { a_fired = true; });
  EXPECT_TRUE(ha.pending());
  q.pop().fn();
  EXPECT_TRUE(a_fired);
  EXPECT_FALSE(ha.pending());

  // The freed slot is reused eagerly, so B lands exactly where A lived.
  EventHandle hb = q.push(Time::ms(2), [&] { b_fired = true; });
  ha.cancel();  // stale: generation mismatch, must be a no-op
  EXPECT_FALSE(ha.pending());
  EXPECT_TRUE(hb.pending());
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueueModel, StaleHandleAfterCancelCannotCancelReusedSlot) {
  EventQueue q;
  bool b_fired = false;
  EventHandle ha = q.push(Time::ms(1), [] {});
  ha.cancel();
  EXPECT_TRUE(q.empty());

  EventHandle hb = q.push(Time::ms(2), [&] { b_fired = true; });
  ha.cancel();  // stale again; B must survive
  ha.cancel();  // and cancel stays idempotent
  EXPECT_TRUE(hb.pending());
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueueModel, HandleCopiesObserveOneEvent) {
  EventQueue q;
  EventHandle h1 = q.push(Time::ms(1), [] {});
  EventHandle h2 = h1;
  EXPECT_TRUE(h2.pending());
  h1.cancel();
  EXPECT_FALSE(h2.pending());
  h2.cancel();  // no-op on the same (already released) slot
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueModel, HandleReportsNotPendingInsideOwnCallback) {
  EventQueue q;
  EventHandle h;
  bool pending_inside = true;
  h = q.push(Time::ms(1), [&] { pending_inside = h.pending(); });
  q.pop().fn();
  EXPECT_FALSE(pending_inside);
}

// Cancelling and rescheduling from inside a running callback must not
// corrupt the slab even when the running event's slot gets reused by the
// push that the callback itself performs.
TEST(EventQueueModel, CallbackMayPushIntoItsOwnReleasedSlot) {
  EventQueue q;
  int fired = 0;
  q.push(Time::ms(1), [&] {
    // Our slot was released before invocation; this push may land in it.
    q.push(Time::ms(2), [&] { ++fired; });
  });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueModel, StalePruningIsBounded) {
  EventQueue q;
  std::vector<EventHandle> hs;
  hs.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    hs.push_back(q.push(Time::ms(i), [] {}));
  }
  for (auto& h : hs) h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());  // prunes every stale node
  EXPECT_EQ(q.size_bound(), 0u);
  EXPECT_EQ(q.stats().cancelled, 1000u);
  EXPECT_EQ(q.stats().stale_pruned, 1000u);
}

TEST(EventQueueModel, StatsCount) {
  EventQueue q;
  auto h = q.push(Time::ms(1), [] {});
  q.push(Time::ms(2), [] {});
  h.cancel();
  q.pop().fn();
  EXPECT_EQ(q.stats().scheduled, 2u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().fired, 1u);
}

// Drives one Simulator through a seeded script of at/cancel/join/leave
// operations over a few distinct instants, so that instants collide.  Some
// operations (ordinary pushes, joins, cancels and stop()) are issued from
// inside firing callbacks.  With `grouped` false every join is an ordinary
// at(): the reference the groups must reproduce.  Both runs draw the same
// random numbers exactly as long as they fire in the same order, so the
// logs they write must match entry for entry.
struct GroupFuzzer {
  GroupFuzzer(std::uint64_t seed, bool grouped) : rng{seed}, grouped{grouped} {}

  struct Timer {
    EventHandle event;
    JoinHandle join;
  };
  struct Subscription {
    GroupFuzzer* fuzzer;
    int id;
  };

  Time pick_when() { return sim.now() + Time::ms(rng.next_u64() % 3); }

  void schedule() {
    if (timers.size() >= kMaxTimers) return;
    const int id = static_cast<int>(timers.size());
    const Time when = pick_when();
    Timer t;
    if (rng.next_u64() % 3 == 0) {
      t.event = sim.at(when, [this, id] { on_fire(id); });
    } else if (grouped) {
      subs.push_back({this, id});
      t.join = sim.join(when, [](void* s) {
        auto* sub = static_cast<Subscription*>(s);
        sub->fuzzer->on_fire(sub->id);
      }, &subs.back());
    } else {
      t.event = sim.at(when, [this, id] { on_fire(id); });
    }
    timers.push_back(t);
  }

  // Cancel (or leave) a uniformly chosen timer: live, fired or cancelled.
  void cancel_one() {
    if (timers.empty()) return;
    const std::size_t i = rng.next_u64() % timers.size();
    log.push_back(-1 - static_cast<int>(i));
    log.push_back(pending(timers[i]));
    timers[i].event.cancel();
    timers[i].join.cancel();
  }

  void on_fire(int id) {
    log.push_back(id);
    // A callback's own handle is no longer pending.
    log.push_back(pending(timers[static_cast<std::size_t>(id)]));
    const std::uint64_t op = rng.next_u64() % 8;
    if (op < 3) {
      schedule();
      schedule();
    } else if (op < 5) {
      cancel_one();
    } else if (op == 5) {
      sim.stop();
    }
  }

  void run_script(int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t op = rng.next_u64() % 6;
      if (op < 2) {
        schedule();
      } else if (op < 3) {
        cancel_one();
      } else {
        sim.run_until(sim.now() + Time::ms(rng.next_u64() % 3));
      }
      log.push_back(static_cast<int>(sim.now().count_ns() / 1000));
    }
    sim.run();
    log.push_back(static_cast<int>(sim.now().count_ns() / 1000));
    // stop() may have cut the drain short; finish it.
    while (any_pending()) sim.run();
  }

  static int pending(const Timer& t) {
    return t.event.pending() || t.join.pending() ? 1 : 0;
  }
  bool any_pending() const {
    for (const Timer& t : timers)
      if (pending(t)) return true;
    return false;
  }

  static constexpr std::size_t kMaxTimers = 3000;

  Simulator sim;
  Rng rng;
  bool grouped;
  std::vector<Timer> timers;
  std::deque<Subscription> subs;  // stable addresses for join's obj
  std::vector<int> log;
};

TEST(TimerGroupModel, RandomizedJoinsMatchOrdinaryPushes) {
  for (std::uint64_t seed : {5u, 71u, 919u, 6007u, 88001u}) {
    GroupFuzzer grouped{seed, true};
    GroupFuzzer reference{seed, false};
    grouped.run_script(3000);
    reference.run_script(3000);
    ASSERT_EQ(grouped.log, reference.log) << "seed " << seed;
    EXPECT_EQ(grouped.sim.events_fired(), reference.sim.events_fired());
    EXPECT_EQ(grouped.sim.now(), reference.sim.now());
    // The groups really shared queue events.
    EXPECT_LT(grouped.sim.queue_stats().fired,
              reference.sim.queue_stats().fired);
  }
}

TEST(TimerGroupModel, SameInstantSubscribersFireInJoinOrder) {
  Simulator sim;
  std::vector<int> order;
  struct Sub {
    std::vector<int>* order;
    int id;
  } subs[3] = {{&order, 0}, {&order, 1}, {&order, 2}};
  auto fire = [](void* s) {
    auto* sub = static_cast<Sub*>(s);
    sub->order->push_back(sub->id);
  };
  sim.join(Time::ms(1), fire, &subs[0]);
  sim.join(Time::ms(1), fire, &subs[1]);
  // An ordinary event for the same instant lands between the joins.
  sim.at(Time::ms(1), [&] { order.push_back(9); });
  sim.join(Time::ms(1), fire, &subs[2]);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
  EXPECT_EQ(sim.events_fired(), 4u);
  EXPECT_EQ(sim.queue_stats().fired, 3u);  // two groups and the at()
}

TEST(TimerGroupModel, StopInsideGroupResumesWithTheRest) {
  Simulator sim;
  int fired = 0;
  auto fire = [](void* s) {
    auto* sim_and_count = static_cast<std::pair<Simulator*, int*>*>(s);
    if (++*sim_and_count->second == 1) sim_and_count->first->stop();
  };
  std::pair<Simulator*, int*> ctx{&sim, &fired};
  for (int i = 0; i < 4; ++i) sim.join(Time::ms(2), fire, &ctx);
  sim.run_until(Time::ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::ms(2));
  sim.run_until(Time::ms(1));  // the rest is due at 2 ms: nothing runs
  EXPECT_EQ(fired, 1);
  sim.run_until(Time::ms(5));
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(TimerGroupModel, LastLeaverRemovesTheInstant) {
  Simulator sim;
  auto never = [](void*) { ADD_FAILURE() << "cancelled subscriber fired"; };
  JoinHandle a = sim.join(Time::ms(3), never, nullptr);
  JoinHandle b = sim.join(Time::ms(3), never, nullptr);
  EXPECT_TRUE(a.pending());
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  b.cancel();
  b.cancel();  // idempotent
  sim.run();
  // As with cancelled events, the clock never reached the empty instant.
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.events_fired(), 0u);
}

}  // namespace
}  // namespace pp::sim
