#include "proxy/policies.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace pp::proxy {

namespace {

// Stream tag folded into the run seed so policy draws are independent of
// the simulator's shared stream and of the other named streams (fault,
// channel).  Changing this constant changes every probabilistic-policy run.
constexpr std::uint64_t kPolicyStreamTag = 0x5C4ED001'BA5EBA11ULL;

// FixedInterval-style layout over the served subset: each client gets its
// full drain cost (per `cost_of`, so measured-goodput widening composes),
// shrunk proportionally to queue depth when the subset overcommits the
// interval (Section 3.2.1's rule, applied post-admission).
template <typename CostFn>
std::vector<std::pair<net::Ipv4Addr, sim::Duration>> fit_proportional(
    const std::vector<const ClientDemand*>& served, sim::Duration available,
    CostFn cost_of) {
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  std::vector<std::uint64_t> bytes;
  slots.reserve(served.size());
  bytes.reserve(served.size());
  sim::Duration total = sim::Time::zero();
  std::uint64_t total_bytes = 0;
  for (const ClientDemand* d : served) {
    const sim::Duration cost = cost_of(*d);
    slots.emplace_back(d->ip, cost);
    bytes.push_back(d->total());
    total += cost;
    total_bytes += d->total();
  }
  if (total > available && total_bytes > 0) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double share = static_cast<double>(bytes[i]) /
                           static_cast<double>(total_bytes);
      slots[i].second = sim::Time::ns(static_cast<std::int64_t>(
          share * static_cast<double>(available.count_ns())));
    }
  }
  return slots;
}

}  // namespace

sim::Rng policy_stream(std::uint64_t run_seed) {
  return sim::Rng{run_seed ^ kPolicyStreamTag};
}

// -- LongestQueueFirstScheduler ----------------------------------------------------

void LongestQueueFirstScheduler::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(if (auto* m = hook.metrics())
             ctr_starved_ = m->counter("sched.policy.lqf.starved"));
}

BuiltSchedule LongestQueueFirstScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - kSlotLead;
  // Deepest queue first; stable sort keeps SRP (registration) order on ties
  // so the layout stays deterministic.
  std::vector<const ClientDemand*> active;
  active.reserve(demands.size());
  for (const ClientDemand& d : demands) {
    if (d.total() > 0) active.push_back(&d);
  }
  std::stable_sort(active.begin(), active.end(),
                   [](const ClientDemand* a, const ClientDemand* b) {
                     return a->total() > b->total();
                   });

  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  slots.reserve(active.size());
  sim::Duration used = sim::Time::zero();
  std::uint64_t starved = 0;
  for (const ClientDemand* d : active) {
    const sim::Duration remaining = available - used;
    // A slot shorter than the burst guard carries no data: starve instead
    // of emitting a useless (or zero-length) entry.
    if (remaining <= kBurstGuard) {
      ++starved;
      continue;
    }
    sim::Duration cost = widened_cost(*d, est);
    if (cost > remaining) cost = remaining;  // partial tail slot
    slots.emplace_back(d->ip, cost);
    used += cost;
  }
  PP_OBS(if (ctr_starved_ && starved > 0) ctr_starved_->inc(starved));
  return BuiltSchedule{interval_, false, lay_out(slots, kSlotLead)};
}

// -- ChannelAwareOpportunisticScheduler --------------------------------------------

void ChannelAwareOpportunisticScheduler::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(if (auto* m = hook.metrics()) {
    ctr_deferrals_ = m->counter("sched.policy.opp.deferrals");
    ctr_forced_ = m->counter("sched.policy.opp.forced");
  });
}

BuiltSchedule ChannelAwareOpportunisticScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - kSlotLead;
  std::vector<const ClientDemand*> served;
  served.reserve(demands.size());
  std::uint64_t deferrals = 0;
  std::uint64_t forced = 0;
  for (const ClientDemand& d : demands) {
    if (d.total() == 0) {
      // Queue drained: the skip streak (if any) is over.
      deferred_.erase(d.ip.raw());
      continue;
    }
    int& skips = deferred_[d.ip.raw()];
    const bool bad = d.channel.bad();
    // Defer only while the oldest datagram can still make its deadline
    // after sitting out one more interval.
    const bool can_wait = d.deadline_slack > interval_;
    if (bad && can_wait && skips < kMaxDeferrals) {
      ++skips;
      ++deferrals;
      continue;
    }
    if (bad) ++forced;  // bad channel, but late or skip-capped: serve anyway
    skips = 0;
    served.push_back(&d);
  }
  PP_OBS(if (ctr_deferrals_ && deferrals > 0) ctr_deferrals_->inc(deferrals);
         if (ctr_forced_ && forced > 0) ctr_forced_->inc(forced));
  // Lay out the admitted set deepest-queue-first at full drain cost (the
  // LQF rule): under overcommit the airtime reclaimed from deferred
  // bad-channel clients must reach the deepest good-state queues whole,
  // not be smeared proportionally across every admitted slot.
  std::stable_sort(served.begin(), served.end(),
                   [](const ClientDemand* a, const ClientDemand* b) {
                     return a->total() > b->total();
                   });
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  slots.reserve(served.size());
  sim::Duration used = sim::Time::zero();
  for (const ClientDemand* d : served) {
    const sim::Duration remaining = available - used;
    if (remaining <= kBurstGuard) break;  // tail starved this interval
    sim::Duration cost = widened_cost(*d, est);
    if (cost > remaining) cost = remaining;
    slots.emplace_back(d->ip, cost);
    used += cost;
  }
  return BuiltSchedule{interval_, false, lay_out(slots, kSlotLead)};
}

// -- BufferAwareProbabilisticScheduler ---------------------------------------------

BufferAwareProbabilisticScheduler::BufferAwareProbabilisticScheduler(
    sim::Duration interval, std::uint64_t run_seed)
    : interval_{interval}, rng_{policy_stream(run_seed)} {}

void BufferAwareProbabilisticScheduler::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(if (auto* m = hook.metrics()) {
    ctr_skips_ = m->counter("sched.policy.prob.skips");
    ctr_forced_ = m->counter("sched.policy.prob.forced");
  });
}

BuiltSchedule BufferAwareProbabilisticScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - kSlotLead;
  std::vector<const ClientDemand*> served;
  served.reserve(demands.size());
  std::uint64_t skips = 0;
  std::uint64_t forced = 0;
  for (const ClientDemand& d : demands) {
    if (d.total() == 0) continue;
    const double q = static_cast<double>(d.total());
    const double p = q / (q + static_cast<double>(kThresholdBytes));
    // One admission draw per backlogged client per SRP, always consumed so
    // the stream position is a pure function of the demand snapshot.
    const bool admit = rng_.chance(p);
    const bool urgent = d.deadline_slack <= interval_;
    if (!admit && !urgent) {
      ++skips;
      continue;
    }
    if (!admit) ++forced;  // lost the draw but the deadline overrides it
    served.push_back(&d);
  }
  PP_OBS(if (ctr_skips_ && skips > 0) ctr_skips_->inc(skips);
         if (ctr_forced_ && forced > 0) ctr_forced_->inc(forced));
  const auto slots =
      fit_proportional(served, available, [&](const ClientDemand& d) {
        return widened_cost(d, est);
      });
  return BuiltSchedule{interval_, false, lay_out(slots, kSlotLead)};
}

}  // namespace pp::proxy
