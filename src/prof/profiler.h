// Host-side self-profiling: where do the simulator's OWN nanoseconds go?
//
// Everything else in this repository measures the *simulated* cluster; this
// subsystem measures the simulator process so the ROADMAP item-2 hot-loop
// rebuild (≥10× engine) has a before-picture and a harness. Two layers,
// both compile-out-able in the MS_AUDIT style:
//
//   1. Scoped hot-path timers.  `MS_PROF_SCOPE("engine.pop")` registers the
//      scope once per call site (magic static) and times the enclosing
//      block with the sanctioned monotonic clock (core/wallclock.h).
//      Samples aggregate lock-free into per-thread cells — count / total /
//      min / max / child-time plus a 2-bit-mantissa log2 histogram — and
//      merge on snapshot() into the fixed-layout core HdrHistogram, the
//      same mergeable sketch the telemetry registry speaks.
//
//   2. An allocation counter (prof::count_alloc) and an
//      optional self-trace ring: when tracing is on, every closed scope
//      appends an (id, start, dur, tid) record, exported by prof/report.h
//      as a Perfetto/Chrome trace whose track is the simulator process.
//
// Cost model (pinned by `msprof overhead` and tests/prof_test.cpp):
//   - MS_PROF=OFF      : macros expand to nothing; zero code, zero data.
//   - ON but disabled  : one relaxed atomic load + branch per scope. This
//                        is the default state — benches and tests run with
//                        the profiler dormant unless they opt in.
//   - ON and enabled   : up to two wallclock reads + a handful of
//                        relaxed atomic loads and stores per scope, no
//                        lock-prefixed RMW (<3% on fig11, budgeted in
//                        DESIGN.md). Back-to-back scopes can share one
//                        clock read (ScopeTimer::stop + the start-taking
//                        constructor), as the engine loop does at every
//                        pop/event boundary.
//
// Determinism: the profiler observes, never steers. No simulated timestamp
// may depend on a WallNs; the digest-invariance tests (prof on/off/absent
// produce bit-identical engine digests) enforce it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/wallclock.h"

namespace ms::prof {

/// Interned scope identifier. 0 is "invalid / not a scope"; real ids are
/// 1..kMaxScopes and index directly into the per-thread cell arrays.
using ScopeId = std::uint32_t;
inline constexpr ScopeId kInvalidScope = 0;

/// Hard cap on distinct scope names. Scope registration past the cap
/// returns kInvalidScope (timers become no-ops) rather than aborting —
/// a profiler must never take the process down.
inline constexpr std::size_t kMaxScopes = 512;

/// Log2-with-2-bit-mantissa duration histogram: 4 exact buckets for
/// 0..3 ns, then 4 sub-buckets per power of two (≤25% relative error per
/// bucket, re-bucketed into the ~7%-error HdrHistogram on snapshot).
inline constexpr std::size_t kHistBuckets = 256;

namespace internal {
// Master runtime switch. Starts false: a binary built with MS_PROF=ON but
// never opting in pays one relaxed load + branch per scope and nothing
// else. Relaxed is correct — the flag gates measurement, not data.
inline std::atomic<bool> g_enabled{false};
// Self-trace capture switch (independent of g_enabled so aggregate
// profiling does not pay the ring-append unless a trace was asked for).
inline std::atomic<bool> g_tracing{false};
// Allocation counter fed by prof::count_alloc (sim::Engine's slab/heap growth).
inline std::atomic<std::uint64_t> g_allocs{0};
}  // namespace internal

/// Runtime master switch. Scopes sample only while enabled.
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Self-trace capture (implies nothing about `enabled()`; both must be on
/// for trace records to be appended).
inline bool tracing() {
  return internal::g_tracing.load(std::memory_order_relaxed);
}
void set_tracing(bool on);

/// Counting hook for a hot path's allocations, so the profile reports them
/// next to its time (exact: allocation behaviour is deterministic even
/// though durations are not). sim::Engine::at calls it each time its
/// callback slab or event heap grows.
inline void count_alloc(std::uint64_t n = 1) {
  if (enabled()) {
    internal::g_allocs.fetch_add(n, std::memory_order_relaxed);
  }
}
inline std::uint64_t alloc_count() {
  return internal::g_allocs.load(std::memory_order_relaxed);
}

/// Interns `name`, returning its stable id (same name -> same id for the
/// process lifetime). Thread-safe; kInvalidScope past kMaxScopes.
ScopeId register_scope(const char* name);

/// Name for an id previously returned by register_scope ("" for invalid).
std::string scope_name(ScopeId id);

/// Aggregated view of one scope, merged across every thread that ever
/// sampled it (live and retired).
struct ScopeSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus time spent in nested scopes
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  HdrHistogram hist_ns;  // sample durations, in nanoseconds
};

/// One self-trace record: scope `id` ran [start, start+dur) on `tid`.
struct TraceEvent {
  ScopeId id = kInvalidScope;
  WallNs start = 0;
  WallNs dur = 0;
  std::uint32_t tid = 0;
};

/// Copies out every scope with at least one sample, in registration order
/// (deterministic for a fixed workload). Safe to call while other threads
/// keep sampling — cells are relaxed atomics, so the copy is a consistent
/// *approximation* during concurrent updates and exact once they stop.
std::vector<ScopeSnapshot> snapshot();

/// Drains captured self-trace events (appended while tracing() was on).
/// Per-thread rings are bounded; `dropped` (if non-null) receives the
/// number of records discarded after rings filled.
std::vector<TraceEvent> drain_trace(std::uint64_t* dropped = nullptr);

/// Zeroes every cell, the allocation counter and the trace rings.
/// Registrations (ids, names) survive — `msprof --repeat` depends on it.
void reset();

namespace internal {

struct ThreadState;

/// Per-(thread, scope) accumulator. All fields relaxed atomics: the owner
/// thread is the only sampler, so it updates with a plain load + store
/// (no lock-prefixed RMW or CAS loop); snapshot/reset read and zero them
/// from other threads, and TSan must stay silent for the MS_PROF=ON TSan
/// CI leg. A reset() racing a live sample may lose that reset, which is
/// within the "approximate while sampling" contract of snapshot().
struct alignas(64) Cell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> child_ns{0};
  std::atomic<std::uint64_t> min_ns{~0ull};
  std::atomic<std::uint64_t> max_ns{0};
  std::array<std::atomic<std::uint64_t>, kHistBuckets> hist{};

  void record(std::uint64_t dur_ns);
};

ThreadState& tls();
Cell* cell_for(ThreadState& t, ScopeId id);
void scope_opened(ThreadState& t, Cell* cell);
void scope_closed(ThreadState& t, Cell* cell, ScopeId id, WallNs start,
                  std::uint64_t dur_ns);

}  // namespace internal

/// RAII scope timer — the expansion of MS_PROF_SCOPE. Usable directly when
/// the scope id is dynamic (the engine's per-event-kind attribution).
class ScopeTimer {
 public:
  explicit ScopeTimer(ScopeId id) : ScopeTimer(id, 0) {}
  /// Opens at `start` when it is non-zero: a clock read the caller just
  /// took, normally the previous scope's stop(), so two back-to-back
  /// scopes cost one read at their boundary. 0 reads the clock.
  ScopeTimer(ScopeId id, WallNs start) {
    if (id != kInvalidScope && enabled()) {
      id_ = id;
      thread_ = &internal::tls();
      cell_ = internal::cell_for(*thread_, id);
      internal::scope_opened(*thread_, cell_);
      start_ = start != 0 ? start : wallclock_ns();
    }
  }
  ~ScopeTimer() { stop(); }
  /// Closes the scope now and returns the clock read that closed it, or 0
  /// when it was not timing (dormant profiler, invalid id, already
  /// stopped).
  WallNs stop() {
    if (cell_ == nullptr) return 0;
    const WallNs end = wallclock_ns();
    internal::scope_closed(*thread_, cell_, id_, start_,
                           static_cast<std::uint64_t>(end - start_));
    cell_ = nullptr;
    return end;
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  ScopeId id_ = kInvalidScope;
  internal::ThreadState* thread_ = nullptr;
  internal::Cell* cell_ = nullptr;
  WallNs start_ = 0;
};

}  // namespace ms::prof

// ------------------------------------------------------------------ macro

#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
#define MS_PROF_CAT2(a, b) a##b
#define MS_PROF_CAT(a, b) MS_PROF_CAT2(a, b)
/// Times the enclosing block under `name`. One interning per call site
/// (thread-safe magic static); one relaxed load + branch when the profiler
/// is dormant. Compiles to nothing when MS_PROF is OFF.
#define MS_PROF_SCOPE(name)                                            \
  static const ::ms::prof::ScopeId MS_PROF_CAT(ms_prof_sid_,           \
                                               __LINE__) =             \
      ::ms::prof::register_scope(name);                                \
  ::ms::prof::ScopeTimer MS_PROF_CAT(ms_prof_timer_, __LINE__)(        \
      MS_PROF_CAT(ms_prof_sid_, __LINE__))
/// Statement form of prof::count_alloc for instrumented hot paths.
#define MS_PROF_COUNT_ALLOC(n) ::ms::prof::count_alloc(n)
#else
#define MS_PROF_SCOPE(name) ((void)0)
#define MS_PROF_COUNT_ALLOC(n) ((void)0)
#endif
