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
//
// The detail string stays the one source of truth for a span's attributes.
// Each consumer reads it once into a SpanAttrs: DepGraph::build per span
// (blame reads the graph's copy), calib::classify_spans per span. Ops are
// matched on integer keys (sorted (stage, chunk, microbatch, pass) and
// transfer tuples, interned lanes), never on strings.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/time.h"
#include "diag/timeline.h"

namespace ms::diag {

/// Typed view of a span's `k=v` detail string, built in one scan. Tokens
/// split on ' '; a token with no '=' or a leading '=' is ignored, the value
/// runs from the first '=' to the token's end, and a repeated key keeps its
/// last value. Only the keys below are kept. The view borrows the detail
/// text, which must outlive it.
class SpanAttrs {
 public:
  enum class Key : std::uint8_t {
    // What the engine renders (engine::append_attrs, plus `stream=`).
    kStage,          // s
    kChunk,          // c
    kMicrobatch,     // mb
    kPass,           // p
    kHead,           // head
    kFrom,           // from
    kTo,             // to
    kProducerChunk,  // pc
    kBytes,          // B
    kGroupRanks,     // n
    kOp,             // op
    kCalls,          // calls
    kStream,         // stream
    kDomain,         // dom
    // Size and group-size names Kineto traces use (args flattened by
    // calib::ingest_trace); bytes() and ranks() try them after B and n.
    kBytesArg,       // bytes
    kInMsgSize,      // In_msg_size
    kMsgSize,        // msg_size
    kSize,           // size
    kRanksArg,       // ranks
    kGroupSizeArg,   // Group_size
    kGroupSizeLower, // group_size
    kNranks,         // nranks
    kCount,
  };
  static constexpr std::size_t kKeys = static_cast<std::size_t>(Key::kCount);
  /// The token name of `key`, e.g. "mb" for kMicrobatch.
  static std::string_view name(Key key);

  SpanAttrs() = default;
  explicit SpanAttrs(std::string_view detail);
  explicit SpanAttrs(const char* detail)
      : SpanAttrs(std::string_view(detail)) {}
  SpanAttrs(std::string&&) = delete;  // the view would dangle

  bool has(Key key) const { return value(key).data() != nullptr; }
  /// The value, or "" when absent.
  std::string_view text(Key key) const { return value(key); }
  /// The value's leading base-10 integer as strtol reads it (leading
  /// whitespace and a sign allowed, trailing text ignored, narrowed to
  /// int), or `fallback` when absent or no digit is read.
  int num(Key key, int fallback = -1) const;
  /// The whole value as one base-10 strtoll token, or `fallback` when it
  /// is absent, empty or has trailing text (byte counts overflow int).
  std::int64_t whole(Key key, std::int64_t fallback) const;
  /// Payload bytes: the first of B, bytes, In_msg_size, msg_size, size
  /// that reads as a whole number >= 0, else -1.
  std::int64_t bytes() const;
  /// Group size: the first of n, ranks, Group_size, group_size, nranks
  /// that reads as a whole number >= 1, else -1.
  int ranks() const;

 private:
  std::string_view value(Key key) const {
    return values_[static_cast<std::size_t>(key)];
  }

  std::array<std::string_view, kKeys> values_{};
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
  /// Reconstructs the DAG from the spans of one simulated step. The graph
  /// borrows `spans` (their details too): they must outlive it.
  static DepGraph build(const std::vector<TraceSpan>& spans);
  static DepGraph build(std::vector<TraceSpan>&&) = delete;

  const std::vector<TraceSpan>& spans() const { return *spans_; }
  const SpanAttrs& attrs(std::size_t i) const { return attrs_[i]; }
  /// Every edge, grouped by target node.
  const std::vector<DepEdge>& edges() const { return edges_; }
  /// Incoming edges of node i.
  std::span<const DepEdge> preds(std::size_t i) const {
    return {edges_.data() + pred_begin_[i], pred_begin_[i + 1] - pred_begin_[i]};
  }
  std::size_t size() const { return attrs_.size(); }
  bool empty() const { return attrs_.empty(); }

  /// Node with the latest end time; ties break to the smallest index so
  /// the walk (and everything derived from it) is deterministic.
  std::size_t sink() const;
  TimeNs makespan() const;

 private:
  DepGraph() = default;

  const std::vector<TraceSpan>* spans_ = nullptr;
  std::vector<SpanAttrs> attrs_;
  std::vector<DepEdge> edges_;
  std::vector<std::size_t> pred_begin_;  // size() + 1 offsets into edges_
};

}  // namespace ms::diag
