// Dependency-graph executor on top of the event engine.
//
// Models a set of hardware queues ("streams", in the CUDA sense): each
// stream executes at most one operation at a time; an operation starts when
// all of its dependencies have finished and its stream is free. This is the
// substrate on which training iterations are simulated — compute kernels go
// on a compute stream, collectives on communication streams, and the overlap
// techniques of MegaScale §3.2 manifest as graph/stream structure.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/time.h"
#include "sim/engine.h"

namespace ms::sim {

using OpId = std::int32_t;
using StreamId = std::int32_t;

constexpr OpId kInvalidOp = -1;

/// Typed span attributes: what diag::DepGraph needs to rebuild the
/// dependency graph from spans alone (pipeline position, transfer
/// endpoints, collective sizes). Opaque to the executor, which only carries
/// them from OpSpec to OpRecord. engine::append_attrs renders them as the
/// `k=v` text diag::SpanAttrs parses, only where text is needed.
struct OpAttrs {
  /// Which fields the op carries (the renderer's token layout).
  enum class Shape : std::uint8_t {
    kNone,
    kCompute,     // stage, chunk, mb, pass, head
    kTransfer,    // pass, mb, from, to, chunk, prod_chunk, bytes
    kCollective,  // stage, chunk (when >= 0), n, coll, bytes, calls
    kStage,       // stage
  };
  /// The wire collective.
  enum class Coll : std::uint8_t { kAllGather, kReduceScatter, kAllReduce };

  Shape shape = Shape::kNone;
  bool bwd = false;   // backward pass (else forward)
  bool head = false;  // the chunk carries the logits head
  Coll coll = Coll::kAllGather;
  std::int32_t stage = 0;       // pipeline stage
  std::int32_t chunk = -1;      // model chunk; -1 on a whole-stage collective
  std::int32_t mb = 0;          // microbatch
  std::int32_t from = 0;        // sending stage
  std::int32_t to = 0;          // receiving stage
  std::int32_t prod_chunk = 0;  // the producer's chunk
  std::int32_t n = 0;           // collective group size
  std::int32_t calls = 1;       // back-to-back calls
  std::int64_t bytes = 0;       // payload per call
};

struct OpSpec {
  std::string name;
  StreamId stream = 0;
  TimeNs duration = 0;
  /// Higher priority ops are issued first when several are ready on the same
  /// stream (MegaScale launches high-priority communication first, §3.2).
  int priority = 0;
  /// Optional dynamic duration: called at start time; overrides `duration`.
  /// Used for perturbation injection (GC pauses, stragglers).
  std::function<TimeNs(TimeNs start)> duration_fn;
  /// Optional completion hook.
  std::function<void(TimeNs start, TimeNs end)> on_finish;
  /// Free-form tag for span analysis (e.g. "fwd", "bwd", "dp-comm").
  std::string tag;
  /// Typed attributes for dependency reconstruction (see OpAttrs).
  OpAttrs attrs;
};

/// Execution record for one op — the raw material for the §5 diagnosis
/// tools (heat maps, timelines).
struct OpRecord {
  OpId id = kInvalidOp;
  StreamId stream = 0;
  std::string name;
  std::string tag;
  /// Always empty: the attributes travel typed in `attrs`. Kept only
  /// because the perfbench benchmark reads its capacity.
  std::string detail;
  OpAttrs attrs;
  TimeNs start = -1;
  TimeNs end = -1;
  bool done() const { return end >= 0; }
};

class GraphExecutor {
 public:
  /// Streams are created lazily: any StreamId in [0, max_streams) is valid.
  explicit GraphExecutor(std::size_t max_streams = 64);
  // Scheduled events call back into this object by address.
  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  StreamId add_stream();  // returns a fresh stream id
  std::size_t stream_count() const { return streams_.size(); }

  /// Sizes the graph for `ops` ops and `deps` dependencies up front, so a
  /// large build never reallocates. Optional.
  void reserve(std::size_t ops, std::size_t deps);

  /// Adds an op. Its stream must exist, and the graph must not have run;
  /// otherwise this aborts with a message (in every build mode).
  OpId add_op(OpSpec spec);

  /// Declares that `after` cannot start before `before` has finished. Both
  /// must be existing ops and distinct; otherwise this aborts with a message.
  void add_dep(OpId before, OpId after);

  /// Runs the whole graph to completion on `engine`. May be called once.
  /// Returns the makespan (time from engine.now() at call to last finish).
  TimeNs run(Engine& engine);

  const std::vector<OpRecord>& records() const { return records_; }
  const OpRecord& record(OpId id) const { return records_[static_cast<std::size_t>(id)]; }
  /// Moves the records out (the graph keeps none): for callers that hand
  /// the spans on after run() instead of copying them.
  std::vector<OpRecord> take_records() { return std::move(records_); }

  /// Total busy time per stream (for utilization analysis).
  TimeNs stream_busy(StreamId s) const { return streams_[static_cast<std::size_t>(s)].busy; }

  std::size_t op_count() const { return nodes_.size(); }

 private:
  struct ReadyEntry {
    int priority;
    OpId id;
    // max-heap on priority, FIFO (min id) within a priority level
    bool operator<(const ReadyEntry& o) const {
      return priority != o.priority ? priority < o.priority : id > o.id;
    }
  };
  struct StreamState {
    bool busy_now = false;
    TimeNs busy = 0;
    std::priority_queue<ReadyEntry> ready;
  };
  /// What the event loop reads per op; the strings stay in records_.
  struct Node {
    TimeNs duration = 0;
    int priority = 0;
    StreamId stream = 0;
    int indegree = 0;
  };
  /// The optional callables of an OpSpec, kept off the hot path.
  struct Hooks {
    std::function<TimeNs(TimeNs start)> duration_fn;
    std::function<void(TimeNs start, TimeNs end)> on_finish;
  };

  void on_ready(OpId id);
  void try_issue(StreamId s);
  void on_op_finished(OpId id);

  std::vector<Node> nodes_;
  std::vector<OpRecord> records_;
  /// Indexed by OpId; empty until an op with a hook is added.
  std::vector<Hooks> hooks_;
  /// (before, after) in add_dep order until run() builds the adjacency.
  std::vector<std::pair<OpId, OpId>> edges_;
  /// Dependents of op i: dependents_[first_dependent_[i] ..
  /// first_dependent_[i + 1]), in add_dep order.
  std::vector<std::size_t> first_dependent_;
  std::vector<OpId> dependents_;
  std::vector<StreamState> streams_;
  Engine* engine_ = nullptr;  // set by run()
  TimeNs start_time_ = 0;
  TimeNs finish_time_ = 0;
  std::size_t remaining_ = 0;
  bool ran_ = false;
};

}  // namespace ms::sim
