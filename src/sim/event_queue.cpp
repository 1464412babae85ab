#include "sim/event_queue.hpp"

#include <utility>

#include "check/check.hpp"

namespace pp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  // Every slot can end up on the free list at once (a drain after the
  // peak); size it with the slab so releasing never reallocates.
  free_.reserve(slots_.capacity());
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.seq = kNoSeq;
  ++s.gen;
  free_.push_back(slot);
}

bool EventQueue::slot_pending(std::uint32_t slot, std::uint32_t gen) const {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.gen == gen && s.seq != kNoSeq;
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_pending(slot, gen)) return;
  release_slot(slot);  // its heap node goes stale; pruned when it surfaces
  --live_;
  ++stats_.cancelled;
}

void EventQueue::heap_push(HeapNode n) {
  std::size_t i = heap_.size();
  heap_.push_back(n);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!node_less(n, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = n;
}

void EventQueue::heap_pop_root() const {
  const HeapNode last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (node_less(heap_[c], heap_[best])) best = c;
    }
    if (!node_less(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::prune_stale() const {
  while (!heap_.empty()) {
    const HeapNode& top = heap_.front();
    if (slots_[top.slot].seq == top.seq) return;  // live root
    heap_pop_root();
    ++stats_.stale_pruned;
  }
}

Time EventQueue::next_time() const {
  prune_stale();
  return heap_.empty() ? Time::max() : heap_.front().when;
}

EventQueue::Fired EventQueue::pop() {
  prune_stale();
  PP_CHECK(!heap_.empty(), "sim.event_queue.pop_empty");
  const HeapNode top = heap_.front();
  heap_pop_root();
  Slot& s = slots_[top.slot];
  Fired fired{top.when, std::move(s.cb)};
  // Release before returning so a handle queried from inside its own
  // callback reports !pending(), and the slot is reusable immediately.
  release_slot(top.slot);
  --live_;
  ++stats_.fired;
  return fired;
}

}  // namespace pp::sim
