#include "sim/engine.h"

#include <string>
#include <utility>

#include "check/audit.h"

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
  const EventId id = next_id_++;
  queue_.push(Entry{t, id});
  callbacks_.emplace(id, Callback{std::move(fn), kind});
  ++live_;
  if (queue_.size() > peak_queue_size_) peak_queue_size_ = queue_.size();
  // One heap-backed callback node per scheduled event: the allocation the
  // ROADMAP item-2 slab rebuild is meant to eliminate. Deterministic, so
  // the micro_engine bench gates allocs/event at exact tolerance.
  MS_PROF_COUNT_ALLOC(1);
  return id;
}

EventId Engine::after(TimeNs delay, std::function<void()> fn,
                      prof::ScopeId kind) {
  if (delay < 0) delay = 0;
  return at(now_ + delay, std::move(fn), kind);
}

bool Engine::cancel(EventId id) {
  auto it = callbacks_.find(id);
  if (it == callbacks_.end()) return false;
  callbacks_.erase(it);
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
    if (callbacks_.count(e.id)) {
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
  MS_AUDIT("sim.engine", "fifo_within_timestamp",
           e.t != last_fired_t_ || e.id > last_fired_id_,
           "event id " + std::to_string(e.id) + " fired after id " +
               std::to_string(last_fired_id_) + " at the same timestamp");
  now_ = e.t;
  last_fired_t_ = e.t;
  last_fired_id_ = e.id;
  digest_.fold(e.id);
  digest_.fold(e.t);
  auto it = callbacks_.find(e.id);
  // pop_next guaranteed presence; move the callback out before invoking so
  // the callback may freely schedule/cancel.
  Callback cb = std::move(it->second);
  callbacks_.erase(it);
  --live_;
  ++executed_;
  // Tombstone closure: every id ever issued is live, fired or cancelled.
  MS_AUDIT("sim.engine", "tombstone_closure",
           next_id_ - 1 == executed_ + cancelled_ + live_,
           "issued=" + std::to_string(next_id_ - 1) + " executed=" +
               std::to_string(executed_) + " cancelled=" +
               std::to_string(cancelled_) + " live=" + std::to_string(live_));
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  {
    // Per-event handler-cost attribution: tagged events under their kind
    // scope, the rest under "engine.event". One relaxed load + branch
    // when the profiler is dormant.
    prof::ScopeTimer timer(
        cb.kind != prof::kInvalidScope ? cb.kind : default_event_scope(),
        boundary);
    cb.fn();
    boundary = timer.stop();
  }
#else
  (void)boundary;
  cb.fn();
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
