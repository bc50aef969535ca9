// Critical-path decomposition and blame attribution (MegaScale §5.2).
//
// Walks the DepGraph backwards from the last-finishing op, always following
// the binding dependency (the predecessor that finished last), to recover
// the chain of ops that actually set the step time. Each path node is split
// into a nominal part and an excess over the fastest op of its kind — the
// excess is the straggler/slow-link signal — and every segment is charged
// to the rank or link that originated it. The result answers the paper's
// §5 question directly: "which rank/link made this step slow".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/time.h"
#include "diag/depgraph.h"

namespace ms::diag {

enum class SegmentKind {
  kCompute,        ///< nominal fwd/bwd kernel time
  kStragglerWait,  ///< compute excess over the fastest peer (blames a rank)
  kPpComm,         ///< nominal exposed pipeline p2p time (blames a link)
  kSlowLink,       ///< p2p excess over the fastest transfer (blames a link)
  kDpComm,         ///< exposed data-parallel collective time
  kData,           ///< exposed data-pipeline time at the step head
  kOptimizer,      ///< nominal optimizer time
  kBubble,         ///< scheduling gap on the path (no op running)
};

const char* segment_kind_name(SegmentKind kind);

/// One contiguous slice of the critical path, in step time.
struct PathSegment {
  SegmentKind kind = SegmentKind::kCompute;
  TimeNs begin = 0;
  TimeNs end = 0;
  /// Rank the time is charged to (-1 for bubbles / the data pipeline).
  int rank = -1;
  /// "from->to" for p2p segments, empty otherwise.
  std::string link;
  /// Index into DepGraph::spans, or npos for gap segments.
  std::size_t node = static_cast<std::size_t>(-1);

  TimeNs duration() const { return end - begin; }
};

/// Aggregated blame: total path time charged to one (cause, rank, link).
/// Only causes that represent *lost* time appear (nominal compute and
/// optimizer time is the work itself, not blame).
struct BlameEntry {
  SegmentKind cause = SegmentKind::kBubble;
  int rank = -1;
  std::string link;
  TimeNs total = 0;
  double share = 0;  // of the step makespan
};

struct StepDiagnosis {
  TimeNs makespan = 0;
  std::vector<PathSegment> path;            // in time order
  std::map<SegmentKind, TimeNs> breakdown;  // path time per cause
  std::vector<BlameEntry> blame;            // sorted: biggest loss first
  /// Order-sensitive FNV-1a over the whole report; equal seeds must yield
  /// equal digests (the determinism acceptance gate).
  std::uint64_t digest = 0;
};

/// Runs the critical-path walk + blame aggregation over a built DepGraph.
StepDiagnosis analyze(const DepGraph& graph);
/// Convenience: build the graph over `spans` (borrowed, not copied), then
/// analyze.
StepDiagnosis analyze_spans(const std::vector<TraceSpan>& spans);

/// Human-readable report: breakdown table + top-k blame table.
std::string render(const StepDiagnosis& d, std::size_t top_k = 5);

/// Machine-readable report (one JSON object).
std::string diagnosis_json(const StepDiagnosis& d);

/// Localizes a regression: per-cause and per-blame deltas of `cand`
/// against `base`, biggest regression first.
std::string diff_report(const StepDiagnosis& base, const StepDiagnosis& cand);

}  // namespace ms::diag
