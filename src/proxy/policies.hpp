// The scheduler policy zoo: queue- and channel-aware burst layouts behind
// the same Scheduler interface as the paper's dynamic policies.
//
// All three run a fixed burst interval (comparable to the paper's 500 ms
// FixedIntervalScheduler, which stays the untouched baseline) and differ in
// who gets channel time:
//
//  * LongestQueueFirstScheduler — classic max-queue priority: serve clients
//    in descending backlog order at full drain cost until the interval is
//    exhausted; the tail is starved until the next SRP.
//  * ChannelAwareOpportunisticScheduler — joint queue/channel scheduling in
//    the spirit of arXiv:1807.10128: clients whose channel sits in the
//    worst quality rung are deferred (no slot: they sleep the interval out
//    instead of burning airtime and energy on frames the fade would eat),
//    and the reclaimed airtime goes to good-state clients.  Deferral is
//    bounded by the client's deadline slack and a consecutive-skip cap, so
//    a long fade degrades to the baseline instead of starving the client.
//  * BufferAwareProbabilisticScheduler — randomized buffer-threshold
//    admission after arXiv:1509.02655: each backlogged client is served
//    with probability q/(q + q0), so deep queues are near-certain and
//    shallow queues probabilistically batch up across intervals.  Draws
//    come from a named deterministic stream derived from the run seed —
//    never the simulator's shared stream — so runs stay replayable.
#pragma once

#include <cstdint>
#include <map>

#include "proxy/scheduler.hpp"
#include "sim/rng.hpp"

namespace pp::proxy {

class LongestQueueFirstScheduler final : public Scheduler {
 public:
  explicit LongestQueueFirstScheduler(sim::Duration interval)
      : interval_{interval} {}
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;
  void set_obs(obs::Hook hook) override;

 private:
  sim::Duration interval_;
  obs::Counter* ctr_starved_ = nullptr;
};

class ChannelAwareOpportunisticScheduler final : public Scheduler {
 public:
  // Consecutive SRPs a bad-channel client may be skipped before it is
  // served regardless (in addition to the deadline-slack guard, which
  // force-serves earlier when data would go late).  Bounds the delay a
  // fade can add to the joint queue/channel policy of arXiv:1807.10128.
  static constexpr int kMaxDeferrals = 3;

  explicit ChannelAwareOpportunisticScheduler(sim::Duration interval)
      : interval_{interval} {}
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;
  void set_obs(obs::Hook hook) override;

 private:
  sim::Duration interval_;
  // Consecutive deferrals per client (ordered map: layout must never
  // follow hash-bucket order).
  std::map<std::uint32_t, int> deferred_;
  obs::Counter* ctr_deferrals_ = nullptr;
  obs::Counter* ctr_forced_ = nullptr;
};

class BufferAwareProbabilisticScheduler final : public Scheduler {
 public:
  // q0 in the admission probability q/(q + q0): the buffer threshold of
  // the buffer-aware probabilistic scheduling of arXiv:1509.02655.
  static constexpr std::uint64_t kThresholdBytes = 16 * 1024;

  BufferAwareProbabilisticScheduler(sim::Duration interval,
                                    std::uint64_t run_seed);
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;
  void set_obs(obs::Hook hook) override;

 private:
  sim::Duration interval_;
  sim::Rng rng_;  // named stream: policy draws only, never sim.rng()
  obs::Counter* ctr_skips_ = nullptr;
  obs::Counter* ctr_forced_ = nullptr;
};

// The named policy RNG stream: an independent generator derived from the
// run seed and a fixed stream tag.  Exposed so tests can reproduce policy
// draws without constructing a scheduler.
sim::Rng policy_stream(std::uint64_t run_seed);

}  // namespace pp::proxy
