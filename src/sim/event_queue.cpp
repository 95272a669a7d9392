#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace emc::sim {

namespace {

constexpr EventId pack(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

constexpr std::uint32_t id_slot(EventId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

constexpr std::uint32_t id_gen(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

void EventQueue::release_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.action = nullptr;
  slot.armed = false;
  ++slot.gen;
  if (slot.gen == 0) ++slot.gen;  // keep 0 reserved across wraparound
  free_.push_back(s);
}

EventId EventQueue::schedule(Time t, Action&& action) {
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.action = std::move(action);  // the path's single Action move
  slot.armed = true;
  const Entry e{t, next_seq_++, s, slot.gen};
  ++scheduled_;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  if (hole_) {
    // Replace-top: the entry takes the root the last pop vacated, and
    // one sift places it — instead of a root removal plus a push.
    hole_ = false;
    heap_replace_root(e);
  } else {
    heap_push(e);
  }
  return pack(e.gen, s);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t s = id_slot(id);
  if (s >= slots_.size()) return;
  Slot& slot = slots_[s];
  if (!slot.armed || slot.gen != id_gen(id)) return;  // fired or stale
  release_slot(s);
  --live_;
  // The pending entry is now stale (generation mismatch); it is purged
  // when it surfaces, or by compaction if stale entries dominate —
  // without the compaction pass, a schedule-far-future-then-cancel
  // pattern (watchdogs) would grow the structure without bound because
  // far-future entries never surface.
  if (heap_.size() > 64 && heap_.size() >= 2 * live_) heap_compact();
}

void EventQueue::close_hole() const {
  if (!hole_) return;
  hole_ = false;
  const_cast<EventQueue*>(this)->heap_remove_root();
}

Time EventQueue::next_time() const {
  if (live_ == 0) return kTimeMax;
  prune_stale_root();
  assert(!heap_.empty());
  return heap_.front().t;
}

bool EventQueue::pop_due(Time deadline, Time& t, Action& action) {
  if (live_ == 0) return false;
  prune_stale_root();
  assert(!heap_.empty());
  const Entry& top = heap_.front();
  if (top.t > deadline) return false;
  t = top.t;
  const std::uint32_t s = top.slot;
  // Leave the root as a hole: the action about to run usually schedules
  // the next event, which fills it (see schedule()).
  hole_ = true;
  Slot& slot = slots_[s];
  action = std::move(slot.action);
  // Lean release: unlike cancel(), the slot's action has just
  // been moved out, so there is nothing to destroy — only disarm, bump
  // the generation and recycle the index.
  slot.armed = false;
  if (++slot.gen == 0) slot.gen = 1;  // keep 0 reserved across wraparound
  free_.push_back(s);
  --live_;
  return true;
}

// Hole-based sifting: instead of std::swap chains, the element being
// placed travels as a local while parents/children shift into the hole —
// half the memory traffic of the classic swap loop. remove_root() uses
// Floyd's variant: the hole sinks unconditionally to a leaf (one
// child-compare per level, no compare against the displaced element)
// and the displaced last element then bubbles up from the leaf. Since
// the last element of a heap almost always belongs near the bottom, the
// up-pass is typically 0-1 compares, and the down-pass drops the
// hard-to-predict `last < child` branch the classic loop pays per
// level. Measured ~12% faster than the swap-based binary sift and ~20%
// faster than a 4-ary hole sift on the kernel dispatch workload.

void EventQueue::heap_push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);  // reserve the hole
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::heap_remove_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Down-pass: sink the root hole to a leaf along the min-child path.
  std::size_t i = 0;
  for (;;) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    const std::size_t m = (r < n && later(heap_[l], heap_[r])) ? r : l;
    heap_[i] = heap_[m];
    i = m;
  }
  // Up-pass: bubble the displaced last element from the leaf hole.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], last)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

// The classic sift-down, which stops as soon as `e` is in place. An
// entry scheduled from a fired action is usually a gate delay away, so
// it belongs near the top while far-future events (fault windows,
// horizons) fill the bottom; Floyd's sink-to-leaf-and-back would walk it
// down the whole heap and up again. Measured faster on
// fig_survivability than the Floyd variant.
void EventQueue::heap_replace_root(const Entry& e) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    const std::size_t m = (r < n && later(heap_[l], heap_[r])) ? r : l;
    if (!later(e, heap_[m])) break;
    heap_[i] = heap_[m];
    i = m;
  }
  heap_[i] = e;
}

void EventQueue::prune_stale_root() const {
  close_hole();
  auto* self = const_cast<EventQueue*>(this);
  while (!heap_.empty() && stale(heap_.front())) self->heap_remove_root();
}

void EventQueue::heap_compact() {
  hole_ = false;  // the hole's slot is released: the erase drops it
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return stale(e); }),
              heap_.end());
  // A fully sorted array (earliest first) satisfies the heap invariant,
  // and this path is cold (triggered by mass
  // cancellation, not per-event).
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return later(b, a); });
}

}  // namespace emc::sim
