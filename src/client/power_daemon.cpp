#include "client/power_daemon.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace pp::client {

PowerDaemon::PowerDaemon(sim::Simulator& sim, net::Ipv4Addr self,
                         DaemonConfig cfg, energy::EnergyAccountant& wnic)
    : sim_{sim},
      self_{self},
      cfg_{cfg},
      wnic_{wnic},
      cur_grace_{kScheduleGrace} {}

PowerDaemon::~PowerDaemon() {
  cancel_wake();
  grace_timer_.cancel();
  slot_timer_.cancel();
  resleep_timer_.cancel();
}

void PowerDaemon::set_wnic(bool awake) {
  if (awake_ == awake) return;
  awake_ = awake;
  wnic_.set_mode(sim_.now(),
                 awake ? energy::WnicMode::Idle : energy::WnicMode::Sleep);
  PP_OBS(if (twg_awake_) twg_awake_->set(sim_.now(), awake ? 1.0 : 0.0);
         if (auto* tl = obs_.timeline())
             tl->record(sim_.now(),
                        awake ? obs::EventKind::Wake : obs::EventKind::Sleep,
                        self_.raw()));
}

void PowerDaemon::start() {
  // Restart-safe: a rejoining client's daemon must not carry schedule
  // state from before its absence (the anchor is stale, the entries are
  // for an old membership set).
  reset();
  set_wnic(true);
}

void PowerDaemon::stop() {
  reset();
  set_wnic(false);
}

void PowerDaemon::cancel_wake() {
  wake_timer_.cancel();
  srp_wake_.cancel();
}

void PowerDaemon::arm_grace(sim::Time deadline) {
  grace_timer_ = sim_.join(deadline, [](void* d) {
    static_cast<PowerDaemon*>(d)->on_schedule_grace_expired();
  }, this);
}

void PowerDaemon::reset() {
  cancel_wake();
  grace_timer_.cancel();
  slot_timer_.cancel();
  resleep_timer_.cancel();
  state_ = State::AwaitingSchedule;
  cur_.reset();
  pending_.reset();
  my_entries_.clear();
  entry_idx_ = 0;
  planned_wake_ = sim::Time{};
  planned_next_ = State::AwaitingSchedule;
  planned_entry_ = 0;
  waiting_first_ = false;
  hold_until_ = sim::Time{};
  miss_active_ = false;
  consecutive_misses_ = 0;
  cur_grace_ = kScheduleGrace;
  blind_coasts_ = 0;
}

void PowerDaemon::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = hook; if (auto* m = obs_.metrics()) {
    twg_awake_ = m->time_gauge("client." + self_.str() + ".awake");
    twg_awake_->set(sim_.now(), awake_ ? 1.0 : 0.0);
    ctr_sched_missed_ = m->counter("client.schedules_missed");
    ctr_resyncs_ = m->counter("client.resyncs");
    hist_outage_us_ = m->histogram("client.outage_us");
  });
}

void PowerDaemon::settle_first_wait() {
  if (!waiting_first_) return;
  waiting_first_ = false;
  stats_.early_wait += sim_.now() - wake_started_;
}

void PowerDaemon::note_resync() {
  if (consecutive_misses_ == 0) return;
  ++stats_.resyncs;
  PP_OBS(if (ctr_resyncs_) ctr_resyncs_->inc();
         if (hist_outage_us_) hist_outage_us_->observe(static_cast<
             std::uint64_t>((sim_.now() - first_miss_at_).count_us()));
         if (auto* tl = obs_.timeline())
             tl->record(sim_.now(), obs::EventKind::Resync, self_.raw(),
                        consecutive_misses_));
  consecutive_misses_ = 0;
  cur_grace_ = kScheduleGrace;
}

void PowerDaemon::on_schedule(
    std::shared_ptr<const proxy::ScheduleMessage> msg) {
  // k-repeat hardening copies carry the original's seq_no: a schedule we
  // already hold (applied or deferred) is a duplicate and must not disturb
  // the state machine.
  if ((cur_ && msg->seq_no <= cur_->seq_no) ||
      (pending_ && msg->seq_no <= pending_->seq_no)) {
    ++stats_.repeats_deduped;
    return;
  }
  ++stats_.schedules_received;
  grace_timer_.cancel();
  if (miss_active_) {
    miss_active_ = false;
    stats_.missed_wait += sim_.now() - miss_start_;
  }
  note_resync();
  if (state_ == State::AwaitingSchedule) settle_first_wait();

  // A repeated copy anchors delay compensation on where the original would
  // have arrived, not on its own (lagged) arrival.
  const sim::Time arrival = sim_.now() - msg->repeat_offset;
  if (state_ == State::Receiving) {
    // A burst is still in progress.  Rule (1) of Section 3.2.2: defer the
    // new schedule until the marked packet — unless one is already
    // deferred, which means the mark was dropped; then this second
    // schedule forcibly ends the burst.
    if (pending_) {
      apply_schedule(std::move(msg), arrival);
    } else {
      pending_ = std::move(msg);
      pending_arrival_ = arrival;
    }
    return;
  }
  apply_schedule(std::move(msg), arrival);
}

void PowerDaemon::apply_schedule(
    std::shared_ptr<const proxy::ScheduleMessage> msg, sim::Time arrival) {
  pending_.reset();
  slot_timer_.cancel();
  blind_coasts_ = 0;  // anchored on a real broadcast again
  cur_ = std::move(msg);
  anchor_ = arrival;
  my_entries_.clear();
  for (const auto& e : cur_->entries)
    if (e.client == self_) my_entries_.push_back(e);
  std::stable_sort(my_entries_.begin(), my_entries_.end(),
                   [](const auto& a, const auto& b) {
                     return a.rp_offset < b.rp_offset;
                   });
  entry_idx_ = 0;
  plan_next_step();
}

void PowerDaemon::plan_next_step() {
  // plan_next_step requires an applied schedule
  PP_CHECK(cur_ != nullptr, "client.power_daemon.plan");
  if (entry_idx_ < my_entries_.size()) {
    const auto& e = my_entries_[entry_idx_];
    const sim::Time t =
        cfg_.comp.wake_time(anchor_, cur_->srp_time, e.rp_offset);
    sleep_until(t, State::AwaitingBurst, entry_idx_);
    return;
  }
  // All bursts for this interval are done.
  if (cur_->reuse_next && cfg_.honor_reuse && !my_entries_.empty()) {
    // Future-work extension / static schedules: the same layout repeats, so
    // skip the next schedule broadcast and go straight to our next RP.
    anchor_ += cur_->interval;
    entry_idx_ = 0;
    plan_next_step();
    return;
  }
  const sim::Time t =
      cfg_.comp.wake_time(anchor_, cur_->srp_time, cur_->interval);
  sleep_until(t, State::AwaitingSchedule, 0);
}

void PowerDaemon::sleep_until(sim::Time t, State next, std::size_t entry_idx) {
  cancel_wake();
  const sim::Time now = sim_.now();
  if (t < now) t = now;
  planned_wake_ = t;
  planned_next_ = next;
  planned_entry_ = entry_idx;
  if (now < hold_until_ && hold_until_ < t) {
    // Activity hold: stay awake for imminent responses, then re-evaluate.
    state_ = next;
    wake_timer_ = sim_.at(hold_until_, [this, t, next, entry_idx] {
      if (state_ == next) sleep_until(t, next, entry_idx);
    });
    return;
  }
  if (t - now > kMinSleep && now >= hold_until_) {
    set_wnic(false);
    state_ = State::Sleeping;
    ++stats_.sleeps;
  }
  if (next == State::AwaitingSchedule) {
    srp_wake_ = sim_.join(t, [](void* d) {
      static_cast<PowerDaemon*>(d)->begin_wait(State::AwaitingSchedule, 0);
    }, this);
    return;
  }
  wake_timer_ =
      sim_.at(t, [this, next, entry_idx] { begin_wait(next, entry_idx); });
}

void PowerDaemon::begin_wait(State next, std::size_t entry_idx) {
  grace_timer_.cancel();
  slot_timer_.cancel();
  set_wnic(true);
  state_ = next;
  waiting_first_ = true;
  wake_started_ = sim_.now();

  if (next == State::AwaitingSchedule) {
    // We woke `early` before the expected arrival; the grace window runs
    // from that expected arrival.
    const sim::Time expected = sim_.now() + cfg_.comp.early;
    arm_grace(expected + cur_grace_);
    return;
  }
  if (next == State::AwaitingBurst && cfg_.sleep_at_slot_end &&
      entry_idx < my_entries_.size()) {
    const auto& e = my_entries_[entry_idx];
    const sim::Time slot_end = anchor_ + e.rp_offset + e.duration;
    // A late wake (sleep_until clamps the wake to `now`) can land past the
    // slot's end; fire the slot-end handler immediately rather than
    // scheduling into the past.
    sim::Time fire = slot_end + kSlotEndGrace;
    if (fire < sim_.now()) fire = sim_.now();
    slot_timer_ = sim_.at(fire, [this] { on_slot_end(); });
  }
}

void PowerDaemon::on_data(std::uint32_t payload, bool marked) {
  // Pure control segments (handshake ACKs, FINs) are not burst data; they
  // flow through the proxy ungated and must not disturb the burst state
  // machine.
  if (payload == 0 && !marked) return;
  ++stats_.data_packets;
  settle_first_wait();
  if (state_ == State::AwaitingBurst || state_ == State::AwaitingSchedule) {
    // Burst began — possibly before its schedule arrived (rule (2) of
    // Section 3.2.2: accept data that comes before a schedule).
    state_ = State::Receiving;
  }
  if (marked) end_burst(/*via_mark=*/true);
}

void PowerDaemon::end_burst(bool via_mark) {
  if (via_mark) {
    ++stats_.bursts_completed;
  } else {
    ++stats_.slot_end_sleeps;
  }
  slot_timer_.cancel();
  settle_first_wait();

  if (pending_) {
    auto msg = std::move(pending_);
    apply_schedule(std::move(msg), pending_arrival_);
    return;
  }
  if (!cur_) {
    // Mark arrived before we ever saw a schedule: stay awake for one.
    state_ = State::AwaitingSchedule;
    return;
  }
  if (miss_active_) {
    // We missed the schedule that announced this burst but caught the data
    // anyway.  Sleep until the *next* schedule, estimating its SRP one
    // interval past the one we missed (Section 4.3, worst-case discussion).
    if (blind_coasts_ >= kMaxBlindCoasts) {
      // The streak of estimate-only re-anchors is long enough that the
      // anchor itself is suspect — keep the outage open and stay awake
      // until a real broadcast re-anchors us.
      ++stats_.coast_breaks;
      state_ = State::AwaitingSchedule;
      return;
    }
    ++blind_coasts_;
    miss_active_ = false;
    stats_.missed_wait += sim_.now() - miss_start_;
    note_resync();
    anchor_ += cur_->interval;
    my_entries_.clear();
    entry_idx_ = 0;
    plan_next_step();
    return;
  }
  ++entry_idx_;
  plan_next_step();
}

void PowerDaemon::on_schedule_grace_expired() {
  if (state_ != State::AwaitingSchedule) return;
  ++stats_.schedules_missed;
  ++consecutive_misses_;
  if (consecutive_misses_ == 1) {
    ++stats_.first_misses;
    first_miss_at_ = sim_.now();
  } else {
    ++stats_.repeat_misses;
  }
  PP_OBS(if (ctr_sched_missed_) ctr_sched_missed_->inc();
         if (auto* tl = obs_.timeline())
             tl->record(sim_.now(), obs::EventKind::ScheduleMissed,
                        self_.raw()));
  // The early portion of the wait was ordinary early-transition waste; the
  // rest accrues as missed-schedule waste until a schedule shows up.
  if (waiting_first_) {
    waiting_first_ = false;
    stats_.early_wait += cfg_.comp.early;
  }
  if (!miss_active_) {
    miss_active_ = true;
    miss_start_ = sim_.now();
  }
  if (!cfg_.escalation.enabled || !cur_) {
    // Paper behavior (Section 4.3, worst-case client): remain awake; the
    // next schedule (or our burst's marked packet, if the data still
    // flows) resynchronizes us.
    return;
  }
  // Escalation: estimate where the SRP we just gave up on was expected
  // (this timer fired `cur_grace_` past it), widen the grace window for
  // the next attempt, then decide whether to wait out the interval awake
  // or sleep through to the next SRP.
  const sim::Time expected = sim_.now() - cur_grace_;
  const sim::Time next_expected = expected + cur_->interval;
  const sim::Duration widened =
      sim::Time::seconds(cur_grace_.to_seconds() * kGraceBackoff);
  cur_grace_ = std::min(widened, kMaxGrace);
  if (consecutive_misses_ <= kAwakeMisses) {
    // Early in the outage: stay awake (our burst may still arrive) and
    // re-arm the grace timer on the next expected SRP.
    arm_grace(next_expected + cur_grace_);
    return;
  }
  // Deep outage: burning a whole interval awake buys nothing — settle the
  // missed-wait accrual and sleep until just before the next expected SRP.
  ++stats_.escalated_sleeps;
  miss_active_ = false;
  stats_.missed_wait += sim_.now() - miss_start_;
  sleep_until(next_expected - cfg_.comp.early, State::AwaitingSchedule, 0);
}

void PowerDaemon::on_slot_end() {
  if (state_ != State::AwaitingBurst && state_ != State::Receiving) return;
  end_burst(/*via_mark=*/false);
}

void PowerDaemon::force_awake() {
  hold_until_ = sim_.now() + kActivityHold;
  // When the hold expires, resume the planned sleep if nothing changed.
  resleep_timer_.cancel();
  resleep_timer_ = sim_.at(hold_until_, [this] { maybe_resleep(); });
  if (awake_ && state_ != State::Sleeping) return;
  ++stats_.forced_wakes;
  set_wnic(true);
  // Keep the existing wake timer: the planned schedule/burst wake target is
  // still correct, we are merely awake early waiting for a response.
  waiting_first_ = false;
  if (state_ == State::Sleeping) state_ = State::AwaitingSchedule;
}

void PowerDaemon::extend_hold(sim::Time base) {
  if (base < sim_.now()) base = sim_.now();
  const sim::Time until = base + kActivityHold;
  if (until <= hold_until_) return;
  hold_until_ = until;
  resleep_timer_.cancel();
  resleep_timer_ = sim_.at(hold_until_, [this] { maybe_resleep(); });
}

void PowerDaemon::maybe_resleep() {
  if (sim_.now() < hold_until_) return;  // a later hold supersedes this one
  if (!awake_ || state_ == State::Receiving) return;
  if (!wake_timer_.pending() && !srp_wake_.pending())
    return;  // no planned wake; stay up
  if (planned_wake_ <= sim_.now()) return;
  sleep_until(planned_wake_, planned_next_, planned_entry_);
}

}  // namespace pp::client
