#include "sim/engine.h"

#include <string>
#include <utility>

#include "check/audit.h"
#include "core/fatal.h"

namespace ms::sim {

#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
namespace {

// Attribution bucket for events scheduled without an explicit kind.
prof::ScopeId default_event_scope() {
  static const prof::ScopeId id = prof::register_scope("engine.event");
  return id;
}

prof::ScopeId pop_scope() {
  static const prof::ScopeId id = prof::register_scope("engine.pop");
  return id;
}

}  // namespace
#endif

EventId Engine::at(TimeNs t, std::function<void()> fn, prof::ScopeId kind) {
  MS_AUDIT("sim.engine", "schedule_not_in_past", t >= now_,
           "at(" + std::to_string(t) + ") with now=" + std::to_string(now_));
  if (t < now_) t = now_;  // clamp: keeps time monotone even under misuse
  // The slab and the heap growing are the loop's own allocations (a
  // callback too large for std::function's inline buffer is the caller's);
  // the profile counts each growth.
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    // Overflowing the handle layout would alias live events, so it aborts
    // in every build mode rather than corrupting the schedule.
    MS_CHECK(slots_.size() <= kSlotMask,
             "sim::Engine: more than 2^24 pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    if (slots_.size() == slots_.capacity()) MS_PROF_COUNT_ALLOC(1);
    slots_.emplace_back();
  }
  MS_CHECK(next_seq_ >> (64 - kSlotBits) == 0,
           "sim::Engine: event sequence exhausted");
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.id = id;
  s.kind = kind;
  if (queue_.size() == queue_.capacity()) MS_PROF_COUNT_ALLOC(1);
  queue_.push(Entry{t, id});
  ++live_;
  if (queue_.size() > peak_queue_size_) peak_queue_size_ = queue_.size();
  return id;
}

EventId Engine::after(TimeNs delay, std::function<void()> fn,
                      prof::ScopeId kind) {
  if (delay < 0) delay = 0;
  return at(now_ + delay, std::move(fn), kind);
}

void Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.id = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Engine::cancel(EventId id) {
  if (!is_pending(id)) return false;
  release(static_cast<std::uint32_t>(id & kSlotMask));
  --live_;
  ++cancelled_;
  return true;
}

bool Engine::pop_next(Entry& out, WallNs& boundary) {
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  prof::ScopeTimer timer(pop_scope(), boundary);
#endif
  while (!queue_.empty()) {
    Entry e = queue_.top();
    queue_.pop();
    if (is_pending(e.id)) {
      out = e;
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
      boundary = timer.stop();  // the event scope opens on this read
#endif
      return true;
    }
    ++tombstone_pops_;  // tombstoned (cancelled) — skip
  }
  return false;
}

void Engine::fire(const Entry& e, WallNs& boundary) {
  MS_AUDIT("sim.engine", "time_monotonic", e.t >= now_,
           "event " + std::to_string(e.t) + "ns fired with clock at " +
               std::to_string(now_) + "ns");
  const std::uint64_t seq = e.id >> kSlotBits;
  MS_AUDIT("sim.engine", "fifo_within_timestamp",
           e.t != last_fired_t_ || e.id > last_fired_id_,
           "event id " + std::to_string(seq) + " fired after id " +
               std::to_string(last_fired_id_ >> kSlotBits) +
               " at the same timestamp");
  now_ = e.t;
  last_fired_t_ = e.t;
  last_fired_id_ = e.id;
  digest_.fold(seq);
  digest_.fold(e.t);
  // pop_next guaranteed the slot is live; move the callback out and free
  // the slot before invoking, so the callback may freely schedule (and
  // grow the slab) or cancel, itself included.
  const auto slot = static_cast<std::uint32_t>(e.id & kSlotMask);
  std::function<void()> fn = std::move(slots_[slot].fn);
  const prof::ScopeId kind = slots_[slot].kind;
  release(slot);
  --live_;
  ++executed_;
  // Tombstone closure: every id ever issued is live, fired or cancelled.
  MS_AUDIT("sim.engine", "tombstone_closure",
           next_seq_ - 1 == executed_ + cancelled_ + live_,
           "issued=" + std::to_string(next_seq_ - 1) + " executed=" +
               std::to_string(executed_) + " cancelled=" +
               std::to_string(cancelled_) + " live=" + std::to_string(live_));
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  {
    // Per-event handler-cost attribution: tagged events under their kind
    // scope, the rest under "engine.event". One relaxed load + branch
    // when the profiler is dormant.
    prof::ScopeTimer timer(
        kind != prof::kInvalidScope ? kind : default_event_scope(),
        boundary);
    fn();
    boundary = timer.stop();
  }
#else
  (void)boundary;
  (void)kind;
  fn();
#endif
}

bool Engine::step() {
  Entry e;
  WallNs boundary = 0;
  if (!pop_next(e, boundary)) return false;
  fire(e, boundary);
  return true;
}

void Engine::run() {
  MS_PROF_SCOPE("engine.run");
  stopped_ = false;
  Entry e;
  WallNs boundary = 0;
  while (!stopped_ && pop_next(e, boundary)) fire(e, boundary);
}

void Engine::run_until(TimeNs t) {
  MS_PROF_SCOPE("engine.run_until");
  stopped_ = false;
  Entry e;
  WallNs boundary = 0;
  while (!stopped_) {
    if (!pop_next(e, boundary)) break;
    if (e.t > t) {
      // Push it back; it stays pending.
      queue_.push(e);
      break;
    }
    fire(e, boundary);
  }
  // A stop() mid-window leaves the clock at the last executed event so
  // resuming does not skip the untouched remainder of the window.
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace ms::sim
