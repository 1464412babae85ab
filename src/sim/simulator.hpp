// The discrete-event simulator: a clock plus the pending-event set.
//
// Single-threaded and deterministic.  Entities hold a Simulator& and
// schedule callbacks; the driver calls run_until()/run().
//
// Shared-instant timer groups: join(when, fn, obj) subscribes a plain
// function to an instant.  Subscribers that join the same instant share
// one queue event and fire in join order, so a cohort of clients that
// heard the same broadcast costs one heap push/pop instead of one per
// client.  The group is exact by construction: it accepts joins only while
// it is the most recently opened group and no ordinary at() has been
// scheduled for its instant since it opened; otherwise the next join opens
// a new group.  Under that rule the firing order is exactly the (time,
// seq) order the per-subscriber events would have had.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pp::sim {

class Simulator;

// Handle to a group subscription; pending()/cancel() mean what they mean
// on EventHandle (a subscriber reports !pending() inside its own call).
class JoinHandle {
 public:
  JoinHandle() = default;

  bool pending() const;
  void cancel();

 private:
  friend class Simulator;
  JoinHandle(Simulator* sim, std::uint32_t group, std::uint32_t gen,
             std::uint32_t sub)
      : sim_{sim}, group_{group}, gen_{gen}, sub_{sub} {}

  Simulator* sim_ = nullptr;
  std::uint32_t group_ = 0;
  std::uint32_t gen_ = 0;
  std::uint32_t sub_ = 0;
};

class Simulator {
 public:
  using JoinFn = void (*)(void*);

  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedule fn at an absolute time (must be >= now()).  The callable is
  // forwarded straight into the event slab — no std::function, no heap
  // allocation (captures beyond EventCallback::kInlineCapacity do not
  // compile).
  template <typename F>
  EventHandle at(Time when, F&& fn) {
    PP_CHECK_AT(when >= now_, "sim.simulator.schedule_into_past", now_);
    // An ordinary event for the open group's instant would fire between
    // its earlier and later subscribers: later joins must open a new group.
    if (open_ != kNoGroup && when == open_when_) open_ = kNoGroup;
    return queue_.push(when, std::forward<F>(fn));
  }
  // Schedule fn after a delay (must be >= 0).
  template <typename F>
  EventHandle after(Duration delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  // Subscribe fn(obj) to `when` (must be >= now()), sharing one queue
  // event with the other subscribers of that instant where exactness
  // allows (see the header comment).
  JoinHandle join(Time when, JoinFn fn, void* obj);

  // Run until the event queue drains or stop() is called.
  void run();
  // Run all events with time <= until, then set the clock to `until`.
  void run_until(Time until);
  // Abort the run loop after the current event (or group subscriber)
  // returns.
  void stop() { stopped_ = true; }

  // Callbacks run: ordinary events plus every group subscriber.
  std::uint64_t events_fired() const { return events_fired_; }
  // Scheduling behaviour of the event engine (sim.events.* when published
  // through obs).  A group counts once here, however many subscribers it
  // has.
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  std::size_t queue_slab_slots() const { return queue_.slab_slots(); }

 private:
  friend class JoinHandle;

  struct Subscriber {
    JoinFn fn;  // nullptr once fired or cancelled
    void* obj;
  };
  struct Group {
    EventHandle event;
    std::vector<Subscriber> subs;  // cleared on release, capacity kept
    std::uint32_t live = 0;
    std::uint32_t gen = 0;  // bumped on release
  };

  static constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

  // Run the next callback due at or before `until` (an ordinary event, or
  // one group subscriber); false if none is.
  bool step(Time until);
  void fire_next_subscriber();
  void release_group(std::uint32_t g);
  bool subscriber_pending(const JoinHandle& h) const;
  void cancel_subscriber(const JoinHandle& h);

  Time now_ = Time::zero();
  EventQueue queue_;
  Rng rng_;
  bool stopped_ = false;
  std::uint64_t events_fired_ = 0;

  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_groups_;
  std::uint32_t open_ = kNoGroup;  // group still accepting joins
  Time open_when_;
  std::uint32_t firing_ = kNoGroup;  // group whose subscribers are firing
  std::uint32_t next_sub_ = 0;       // firing_'s next subscriber to try
};

inline bool JoinHandle::pending() const {
  return sim_ != nullptr && sim_->subscriber_pending(*this);
}

inline void JoinHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_subscriber(*this);
}

}  // namespace pp::sim
