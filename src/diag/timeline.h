// Unified multi-rank timeline trace (MegaScale §5.1, Figure 8).
//
// Aggregates per-rank spans onto one timeline so pipeline execution order,
// bubbles and cross-rank dependencies become visible — the capability that
// single-node profilers lack in distributed training.
#pragma once

#include <string>
#include <vector>

#include "core/time.h"

namespace ms::diag {

struct TraceSpan {
  int rank = 0;
  std::string name;  // e.g. "fwd", "bwd", "send"
  std::string tag;
  TimeNs start = 0;
  TimeNs end = 0;
  /// Structured attributes (`k=v` tokens; the engine renders them from
  /// sim::OpAttrs with engine::append_attrs). Carried into chrome-trace `args`
  /// and consumed by diag::DepGraph.
  std::string detail;
};

class TimelineTrace {
 public:
  void add(TraceSpan span);
  std::size_t size() const { return spans_.size(); }

  /// Spans of one rank, sorted by start.
  std::vector<TraceSpan> rank_spans(int rank) const;

  /// Spans from any rank active at time t (dependency inspection: "what was
  /// everyone doing when rank r stalled?").
  std::vector<TraceSpan> active_at(TimeNs t) const;

  /// Total idle (bubble) time of a rank within [from, to]: the gaps where
  /// no span of that rank is running.
  TimeNs idle_time(int rank, TimeNs from, TimeNs to) const;

  /// Figure-8-style ASCII rendering: one lane per rank, glyph per span kind
  /// (F = fwd, B = bwd, - = comm, space = bubble).
  std::string render(TimeNs from, TimeNs to, std::size_t width = 100) const;

  /// Chrome-trace JSON ("trace event format"): loadable in
  /// chrome://tracing or Perfetto; one process per rank, complete ("X")
  /// events with microsecond timestamps.
  std::string chrome_trace_json() const;

 private:
  std::vector<TraceSpan> spans_;
};

}  // namespace ms::diag
