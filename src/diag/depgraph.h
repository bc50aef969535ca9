// Cross-rank dependency DAG reconstruction (MegaScale §5.2).
//
// The engine emits structured `k=v` attributes on every traced span (typed
// as sim::OpAttrs in process, rendered by engine::append_attrs): compute ops
// carry their (stage, chunk, microbatch, pass) coordinates, transfers carry
// both endpoints, collectives carry their group. DepGraph rebuilds the
// step's dependency structure purely from those attributes — no access to
// the original GraphExecutor — which is exactly the situation of a
// post-mortem: all you have is the trace.
//
// Edge inventory:
//   * program order within one hardware queue (`stream=` attr, or the rank
//     when a span predates structured details);
//   * send -> recv pairing per transfer (from, to, chunk, microbatch, pass);
//   * compute -> its outbound send, recv -> the compute it feeds;
//   * fwd -> bwd on the last stage (the loss is local, no transfer);
//   * data pipeline -> forwards with no inbound transfer;
//   * DP all-gather -> first forward per chunk, last backward -> reduce-
//     scatter, reduce-scatter -> optimizer.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/time.h"
#include "diag/timeline.h"

namespace ms::diag {

/// Parsed view of a span's `k=v` detail string. Unknown tokens are kept
/// verbatim; lookups are by key.
class SpanAttrs {
 public:
  SpanAttrs() = default;
  explicit SpanAttrs(const std::string& detail);

  bool has(const std::string& key) const { return kv_.count(key) > 0; }
  /// Integer attribute, or `fallback` when absent/non-numeric.
  int num(const std::string& key, int fallback = -1) const;
  std::string text(const std::string& key,
                   const std::string& fallback = "") const;

 private:
  std::map<std::string, std::string> kv_;
};

enum class EdgeKind {
  kProgramOrder,  ///< same hardware queue, serialized issue
  kTransfer,      ///< send -> recv of one p2p transfer
  kProduce,       ///< compute -> its outbound send
  kConsume,       ///< recv -> the compute it feeds
  kLocalGrad,     ///< last-stage fwd -> bwd (loss computed locally)
  kData,          ///< data pipeline -> first consumers
  kCollective,    ///< DP collective ordering (ag -> fwd, bwd -> rs, rs -> opt)
};

const char* edge_kind_name(EdgeKind kind);

struct DepEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  EdgeKind kind = EdgeKind::kProgramOrder;
};

class DepGraph {
 public:
  /// Reconstructs the DAG from the spans of one simulated step.
  static DepGraph build(std::vector<TraceSpan> spans);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const SpanAttrs& attrs(std::size_t i) const { return attrs_[i]; }
  const std::vector<DepEdge>& edges() const { return edges_; }
  /// Incoming edges of node i.
  const std::vector<DepEdge>& preds(std::size_t i) const { return preds_[i]; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Node with the latest end time; ties break to the smallest index so
  /// the walk (and everything derived from it) is deterministic.
  std::size_t sink() const;
  TimeNs makespan() const;

 private:
  void add_edge(std::size_t from, std::size_t to, EdgeKind kind);

  std::vector<TraceSpan> spans_;
  std::vector<SpanAttrs> attrs_;
  std::vector<DepEdge> edges_;
  std::vector<std::vector<DepEdge>> preds_;
};

}  // namespace ms::diag
