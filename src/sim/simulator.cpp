#include "sim/simulator.hpp"

#include "check/check.hpp"

namespace pp::sim {

JoinHandle Simulator::join(Time when, JoinFn fn, void* obj) {
  PP_CHECK_AT(when >= now_, "sim.simulator.schedule_into_past", now_);
  if (open_ == kNoGroup || when != open_when_) {
    std::uint32_t g;
    if (!free_groups_.empty()) {
      g = free_groups_.back();
      free_groups_.pop_back();
    } else {
      g = static_cast<std::uint32_t>(groups_.size());
      groups_.emplace_back();
      // As with EventQueue's slots: releasing a group never reallocates.
      free_groups_.reserve(groups_.capacity());
    }
    // The group closes when it starts firing.  Its event runs the first
    // subscriber; step() runs the rest, one per step.
    groups_[g].event = queue_.push(when, [this, g] {
      if (open_ == g) open_ = kNoGroup;
      firing_ = g;
      next_sub_ = 0;
      fire_next_subscriber();
    });
    open_ = g;
    open_when_ = when;
  }
  Group& grp = groups_[open_];
  grp.subs.push_back(Subscriber{fn, obj});
  ++grp.live;
  return JoinHandle{this, open_, grp.gen,
                    static_cast<std::uint32_t>(grp.subs.size() - 1)};
}

bool Simulator::subscriber_pending(const JoinHandle& h) const {
  const Group& grp = groups_[h.group_];
  return grp.gen == h.gen_ && grp.subs[h.sub_].fn != nullptr;
}

void Simulator::cancel_subscriber(const JoinHandle& h) {
  if (!subscriber_pending(h)) return;
  Group& grp = groups_[h.group_];
  grp.subs[h.sub_].fn = nullptr;
  if (--grp.live > 0) return;
  // The last subscriber left: the instant no longer exists.
  if (firing_ == h.group_) {
    firing_ = kNoGroup;
  } else {
    grp.event.cancel();
  }
  if (open_ == h.group_) open_ = kNoGroup;
  release_group(h.group_);
}

void Simulator::release_group(std::uint32_t g) {
  groups_[g].subs.clear();
  ++groups_[g].gen;
  free_groups_.push_back(g);
}

void Simulator::fire_next_subscriber() {
  Group& grp = groups_[firing_];
  // A firing group always holds a live subscriber (see cancel_subscriber).
  while (grp.subs[next_sub_].fn == nullptr) ++next_sub_;
  const Subscriber s = grp.subs[next_sub_];
  grp.subs[next_sub_++].fn = nullptr;
  if (--grp.live == 0) {
    release_group(firing_);
    firing_ = kNoGroup;
  }
  s.fn(s.obj);
}

bool Simulator::step(Time until) {
  if (firing_ != kNoGroup) {
    // The rest of a group stopped mid-way precedes everything else.
    if (now_ > until) return false;
    ++events_fired_;
    fire_next_subscriber();
    return true;
  }
  if (queue_.empty() || queue_.next_time() > until) return false;
  auto [when, fn] = queue_.pop();
  PP_CHECK_AT(when >= now_, "sim.simulator.monotonic_clock", now_);
  now_ = when;
  ++events_fired_;
  fn();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step(Time::max())) {
  }
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  while (!stopped_ && step(until)) {
  }
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace pp::sim
