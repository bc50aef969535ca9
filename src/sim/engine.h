// Discrete-event simulation engine.
//
// Deterministic: events at the same timestamp execute in schedule order
// (FIFO within a timestamp), so runs are reproducible regardless of the
// underlying priority-queue implementation. Determinism is audited, not
// just promised: every executed event is folded into digest(), and the
// MS_AUDIT hooks check time monotonicity, FIFO ordering and tombstone
// accounting as the run progresses (see check/audit.h).
//
// The loop allocates nothing per event: callbacks live in a slab of slots
// recycled through an intrusive free list, so after warm-up an event costs
// one heap push and one pop. Memory is bounded by the peak number of
// pending events, not by the number of ids ever issued.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "check/digest.h"
#include "core/time.h"
#include "prof/profiler.h"

namespace ms::sim {

/// Handle returned by schedule(); can cancel the event before it fires.
/// It packs the event's sequence number (the high 40 bits: 1, 2, 3, ... in
/// schedule order, the FIFO tiebreaker and digest input) above its slab
/// slot (the low 24 bits), so cancel() checks a handle against its slot in
/// O(1) and a stale handle never matches a recycled slot.
using EventId = std::uint64_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  TimeNs now() const { return now_; }

  /// Schedules fn at absolute time t. Scheduling into the past is an
  /// audited invariant violation; the event is clamped to fire at now().
  /// `kind` optionally tags the event with a profiler scope so the
  /// self-profiler attributes handler cost per event type; untagged
  /// events aggregate under "engine.event". Purely observational — kind
  /// never influences ordering, the digest, or any simulated result.
  EventId at(TimeNs t, std::function<void()> fn,
             prof::ScopeId kind = prof::kInvalidScope);

  /// Schedules fn after a relative delay (clamped to >= 0).
  EventId after(TimeNs delay, std::function<void()> fn,
                prof::ScopeId kind = prof::kInvalidScope);

  /// Cancels a pending event. Returns false if it already fired / was
  /// cancelled. Cancellation is O(1): the slot is freed and its heap entry
  /// becomes a tombstone.
  bool cancel(EventId id);

  /// Runs until the queue is drained or stop() is called.
  void run();

  /// Runs events with time <= t, then sets now() = t. If stop() fires
  /// mid-run, the clock stays at the last executed event so a later
  /// run()/run_until() resumes without losing time.
  void run_until(TimeNs t);

  /// Executes the single next event. Returns false if queue empty.
  bool step();

  /// Requests run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (cancelled events excluded).
  std::uint64_t executed() const { return executed_; }

  /// Number of events cancelled before firing.
  std::uint64_t cancelled() const { return cancelled_; }

  /// Number of events currently pending (tombstones excluded).
  std::size_t pending() const { return live_; }

  // ------------------------------------------------- introspection (prof)
  // Event-loop observability for the self-profiler and telemetry gauges
  // (`engine_queue_depth`). All O(1) reads of existing counters.

  /// Heap entries currently in the priority queue, tombstones INCLUDED —
  /// this is the number the O(log n) heap operations actually see.
  std::size_t queue_size() const { return queue_.size(); }

  /// High-water mark of queue_size() since construction.
  std::size_t peak_queue_size() const { return peak_queue_size_; }

  /// Cancelled entries still occupying heap slots (queue_size() minus
  /// live events). They cost pop-and-skip work until their timestamp.
  std::size_t tombstone_count() const {
    return queue_.size() > live_ ? queue_.size() - live_ : 0;
  }

  /// Tombstoned entries popped and skipped so far — the cumulative price
  /// of O(1) cancellation.
  std::uint64_t tombstone_pops() const { return tombstone_pops_; }

  /// Total event ids ever issued (fired + cancelled + pending).
  std::uint64_t scheduled() const { return next_seq_ - 1; }

  /// Order-sensitive digest over every executed (sequence number,
  /// timestamp) pair. Two runs of the same deterministic scenario produce identical
  /// digests; see check/digest.h.
  std::uint64_t digest() const { return digest_.value(); }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Entry {
    TimeNs t;
    EventId id;  // seq above slot: ordering ids orders seqs (FIFO tiebreak)
    bool operator>(const Entry& o) const {
      return t != o.t ? t > o.t : id > o.id;
    }
  };
  /// One pending callback. A free slot has id 0 and links the free list.
  struct Slot {
    std::function<void()> fn;
    EventId id = 0;
    prof::ScopeId kind = prof::kInvalidScope;
    std::uint32_t next_free = kNoSlot;
  };

  // `boundary` threads the self-profiler's clock reads through the event
  // loop so each scope boundary costs one read, not two: the read that
  // closed the previous event opens "engine.pop", the read that closes
  // the pop opens the event scope, and the event's closing read is handed
  // back for the next pop. 0 means "read the clock" (first pop, profiler
  // dormant); it never influences simulated state.

  /// Pops the next live entry.
  bool pop_next(Entry& out, WallNs& boundary);
  /// Audits ordering invariants, folds the digest, runs the callback.
  void fire(const Entry& e, WallNs& boundary);
  /// True while `id` names the pending event in its slot.
  bool is_pending(EventId id) const {
    const EventId slot = id & kSlotMask;
    return id != 0 && slot < slots_.size() && slots_[slot].id == id;
  }
  /// Returns a slot to the free list, destroying its callback.
  void release(std::uint32_t slot);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t tombstone_pops_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_queue_size_ = 0;
  bool stopped_ = false;
  TimeNs last_fired_t_ = -1;
  EventId last_fired_id_ = 0;
  check::Digest digest_;
  /// The min-heap, with its storage's capacity visible so growth can be
  /// counted.
  struct Queue
      : std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> {
    std::size_t capacity() const { return c.capacity(); }
  };
  Queue queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ms::sim
