#include "diag/blame.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>

#include "check/digest.h"
#include "core/json.h"
#include "core/table.h"
#include "prof/profiler.h"

namespace ms::diag {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

/// Ops of the same group should take the same time on healthy hardware;
/// the minimum over the step is the nominal, the rest is excess. Groups are
/// fwd/bwd (with or without the logits head), the optimizer, and
/// pipeline-comm spans by name; a comm span named like another group
/// ("optimizer", "fwd+head") shares that group's nominal.
enum class Group : std::uint8_t {
  kNone, kFwd, kFwdHead, kBwd, kBwdHead, kOptimizer, kSend, kRecv,
  kRecvWait, kNamed,  // a pipeline-comm span of any other name
};
constexpr std::size_t kFixedGroups = static_cast<std::size_t>(Group::kNamed);

Group nominal_group(const TraceSpan& sp, const SpanAttrs& at) {
  using Key = SpanAttrs::Key;
  if (sp.name == "fwd") return at.has(Key::kHead) ? Group::kFwdHead : Group::kFwd;
  if (sp.name == "bwd") return at.has(Key::kHead) ? Group::kBwdHead : Group::kBwd;
  if (sp.tag == "pp-comm") {  // grouped by name: send / recv / recv-wait
    if (sp.name.empty()) return Group::kNone;
    if (sp.name == "send") return Group::kSend;
    if (sp.name == "recv") return Group::kRecv;
    if (sp.name == "recv-wait") return Group::kRecvWait;
    if (sp.name == "optimizer") return Group::kOptimizer;
    if (sp.name == "fwd+head") return Group::kFwdHead;
    if (sp.name == "bwd+head") return Group::kBwdHead;
    return Group::kNamed;
  }
  if (sp.name == "optimizer") return Group::kOptimizer;
  return Group::kNone;
}

/// Lower value = stronger explanation when two predecessors finish at the
/// same instant: a real data dependency beats queue serialization.
int edge_preference(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kTransfer: return 0;
    case EdgeKind::kConsume: return 1;
    case EdgeKind::kProduce: return 2;
    case EdgeKind::kLocalGrad: return 3;
    case EdgeKind::kCollective: return 4;
    case EdgeKind::kData: return 5;
    case EdgeKind::kProgramOrder: return 6;
  }
  return 7;
}

struct BlameKey {
  SegmentKind cause;
  int rank;
  std::string link;
  bool operator<(const BlameKey& o) const {
    if (cause != o.cause) return cause < o.cause;
    if (rank != o.rank) return rank < o.rank;
    return link < o.link;
  }
};

bool is_blame_cause(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kStragglerWait:
    case SegmentKind::kSlowLink:
    case SegmentKind::kPpComm:
    case SegmentKind::kDpComm:
    case SegmentKind::kData:
    case SegmentKind::kBubble:
      return true;
    case SegmentKind::kCompute:
    case SegmentKind::kOptimizer:
      return false;
  }
  return false;
}

std::string hex_digest(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string blame_who(const BlameEntry& e) {
  if (!e.link.empty()) return "link " + e.link;
  if (e.rank >= 0) return "rank " + std::to_string(e.rank);
  return "-";
}

}  // namespace

const char* segment_kind_name(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kCompute: return "compute";
    case SegmentKind::kStragglerWait: return "straggler-wait";
    case SegmentKind::kPpComm: return "pp-comm";
    case SegmentKind::kSlowLink: return "slow-link";
    case SegmentKind::kDpComm: return "dp-comm";
    case SegmentKind::kData: return "data-pipeline";
    case SegmentKind::kOptimizer: return "optimizer";
    case SegmentKind::kBubble: return "bubble";
  }
  return "?";
}

StepDiagnosis analyze(const DepGraph& g) {
  MS_PROF_SCOPE("diag.analyze");
  StepDiagnosis d;
  if (g.empty()) return d;
  d.makespan = g.makespan();

  // ---- nominal duration per op group ------------------------------------
  constexpr TimeNs kUnset = std::numeric_limits<TimeNs>::max();
  std::vector<Group> group(g.size());
  std::array<TimeNs, kFixedGroups> fixed;
  fixed.fill(kUnset);
  std::map<std::string_view, TimeNs> named;  // Group::kNamed, by span name
  auto nominal = [&](std::size_t i) -> TimeNs& {
    return group[i] == Group::kNamed
               ? named.try_emplace(g.spans()[i].name, kUnset).first->second
               : fixed[static_cast<std::size_t>(group[i])];
  };
  for (std::size_t i = 0; i < g.size(); ++i) {
    group[i] = nominal_group(g.spans()[i], g.attrs(i));
    if (group[i] == Group::kNone) continue;
    TimeNs& shortest = nominal(i);
    shortest = std::min(shortest, g.spans()[i].end - g.spans()[i].start);
  }

  // ---- backward walk along binding dependencies -------------------------
  std::vector<std::size_t> nodes;
  std::vector<char> visited(g.size(), 0);
  std::size_t cur = g.sink();
  while (visited[cur] == 0) {
    visited[cur] = 1;
    nodes.push_back(cur);
    const auto& preds = g.preds(cur);
    if (preds.empty()) break;
    std::size_t best = kNoNode;
    EdgeKind best_kind = EdgeKind::kProgramOrder;
    for (const auto& e : preds) {
      if (best == kNoNode) {
        best = e.from;
        best_kind = e.kind;
        continue;
      }
      const TimeNs be = g.spans()[best].end;
      const TimeNs ce = g.spans()[e.from].end;
      if (ce != be) {
        if (ce > be) {
          best = e.from;
          best_kind = e.kind;
        }
        continue;
      }
      const int bp = edge_preference(best_kind), cp = edge_preference(e.kind);
      if (cp < bp || (cp == bp && e.from < best)) {
        best = e.from;
        best_kind = e.kind;
      }
    }
    cur = best;
  }
  std::reverse(nodes.begin(), nodes.end());

  // ---- cut the path into attributed segments ----------------------------
  auto emit = [&](SegmentKind kind, TimeNs b, TimeNs e, int rank,
                  std::string link, std::size_t node) {
    if (e <= b) return;
    d.path.push_back({kind, b, e, rank, std::move(link), node});
    d.breakdown[kind] += e - b;
  };
  TimeNs cursor = 0;
  for (std::size_t node : nodes) {
    const auto& sp = g.spans()[node];
    const auto& at = g.attrs(node);
    if (sp.start > cursor) {
      emit(SegmentKind::kBubble, cursor, sp.start, -1, "", kNoNode);
    }
    const TimeNs b = std::max(sp.start, cursor);
    if (sp.end <= b) {
      cursor = std::max(cursor, sp.end);
      continue;
    }
    const TimeNs dur = sp.end - b;
    TimeNs base = dur;
    if (group[node] != Group::kNone) base = std::min(dur, nominal(node));
    const TimeNs split = b + base;

    if (sp.name == "fwd" || sp.name == "bwd") {
      emit(SegmentKind::kCompute, b, split, sp.rank, "", node);
      emit(SegmentKind::kStragglerWait, split, sp.end, sp.rank, "", node);
    } else if (sp.name == "optimizer") {
      emit(SegmentKind::kOptimizer, b, split, sp.rank, "", node);
      emit(SegmentKind::kStragglerWait, split, sp.end, sp.rank, "", node);
    } else if (sp.tag == "pp-comm") {
      const int from = at.num(SpanAttrs::Key::kFrom, sp.rank);
      const std::string link =
          std::to_string(from) + "->" +
          std::to_string(at.num(SpanAttrs::Key::kTo, sp.rank));
      emit(SegmentKind::kPpComm, b, split, from, link, node);
      emit(SegmentKind::kSlowLink, split, sp.end, from, link, node);
    } else if (sp.tag == "dp-comm") {
      emit(SegmentKind::kDpComm, b, sp.end, sp.rank, "", node);
    } else if (sp.tag == "data") {
      emit(SegmentKind::kData, b, sp.end, -1, "", node);
    } else {
      emit(SegmentKind::kCompute, b, sp.end, sp.rank, "", node);
    }
    cursor = sp.end;
  }
  if (cursor < d.makespan) {
    emit(SegmentKind::kBubble, cursor, d.makespan, -1, "", kNoNode);
  }

  // ---- blame aggregation ------------------------------------------------
  std::map<BlameKey, TimeNs> totals;
  for (const auto& seg : d.path) {
    if (!is_blame_cause(seg.kind)) continue;
    totals[{seg.kind, seg.rank, seg.link}] += seg.duration();
  }
  for (const auto& [key, total] : totals) {
    BlameEntry e;
    e.cause = key.cause;
    e.rank = key.rank;
    e.link = key.link;
    e.total = total;
    e.share = d.makespan > 0
                  ? static_cast<double>(total) / static_cast<double>(d.makespan)
                  : 0;
    d.blame.push_back(std::move(e));
  }
  std::sort(d.blame.begin(), d.blame.end(),
            [](const BlameEntry& a, const BlameEntry& b) {
              if (a.total != b.total) return a.total > b.total;
              if (a.cause != b.cause) return a.cause < b.cause;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.link < b.link;
            });

  // ---- determinism digest -----------------------------------------------
  check::Digest dg;
  dg.fold(d.makespan);
  for (const auto& seg : d.path) {
    dg.fold(std::string_view(segment_kind_name(seg.kind)));
    dg.fold(seg.begin);
    dg.fold(seg.end);
    dg.fold(static_cast<std::int64_t>(seg.rank));
    dg.fold(std::string_view(seg.link));
  }
  for (const auto& e : d.blame) {
    dg.fold(std::string_view(segment_kind_name(e.cause)));
    dg.fold(static_cast<std::int64_t>(e.rank));
    dg.fold(std::string_view(e.link));
    dg.fold(e.total);
  }
  d.digest = dg.value();
  return d;
}

StepDiagnosis analyze_spans(const std::vector<TraceSpan>& spans) {
  return analyze(DepGraph::build(spans));
}

std::string render(const StepDiagnosis& d, std::size_t top_k) {
  std::ostringstream out;
  out << "step makespan " << format_duration(d.makespan) << ", "
      << d.path.size() << " critical-path segments, digest "
      << hex_digest(d.digest) << "\n\n";

  Table breakdown({"cause", "time", "share"});
  for (const auto& [kind, total] : d.breakdown) {
    breakdown.add_row(
        {segment_kind_name(kind), format_duration(total),
         Table::fmt_pct(d.makespan > 0 ? static_cast<double>(total) /
                                             static_cast<double>(d.makespan)
                                       : 0)});
  }
  out << breakdown.to_string() << '\n';

  Table blame({"#", "blamed", "cause", "lost", "share of step"});
  std::size_t shown = 0;
  for (const auto& e : d.blame) {
    if (shown >= top_k) break;
    ++shown;
    blame.add_row({Table::fmt_int(static_cast<long long>(shown)),
                   blame_who(e), segment_kind_name(e.cause),
                   format_duration(e.total), Table::fmt_pct(e.share)});
  }
  if (shown == 0) out << "no blame: the step is fully explained by work\n";
  else out << blame.to_string();
  return out.str();
}

std::string diagnosis_json(const StepDiagnosis& d) {
  std::ostringstream out;
  out << "{\"makespan_ns\":" << d.makespan << ",\"digest\":\""
      << hex_digest(d.digest) << "\",\"breakdown\":{";
  bool first = true;
  for (const auto& [kind, total] : d.breakdown) {
    if (!first) out << ',';
    first = false;
    out << '"' << segment_kind_name(kind) << "\":" << total;
  }
  out << "},\"blame\":[";
  first = true;
  for (const auto& e : d.blame) {
    if (!first) out << ',';
    first = false;
    out << "{\"cause\":\"" << segment_kind_name(e.cause)
        << "\",\"rank\":" << e.rank << ",\"link\":\"" << json::escape(e.link)
        << "\",\"total_ns\":" << e.total << ",\"share\":" << e.share << '}';
  }
  out << "],\"path\":[";
  first = true;
  for (const auto& seg : d.path) {
    if (!first) out << ',';
    first = false;
    out << "{\"kind\":\"" << segment_kind_name(seg.kind)
        << "\",\"begin_ns\":" << seg.begin << ",\"end_ns\":" << seg.end
        << ",\"rank\":" << seg.rank << ",\"link\":\""
        << json::escape(seg.link) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string diff_report(const StepDiagnosis& base, const StepDiagnosis& cand) {
  std::ostringstream out;
  const TimeNs delta = cand.makespan - base.makespan;
  out << "makespan: " << format_duration(base.makespan) << " -> "
      << format_duration(cand.makespan) << " (" << (delta >= 0 ? "+" : "-")
      << format_duration(delta >= 0 ? delta : -delta);
  if (base.makespan > 0) {
    out << ", "
        << Table::fmt_pct(static_cast<double>(delta) /
                          static_cast<double>(base.makespan));
  }
  out << ")\n\n";

  // Per-(cause, rank, link) deltas, biggest regression first.
  std::map<BlameKey, std::pair<TimeNs, TimeNs>> merged;
  for (const auto& e : base.blame) {
    merged[{e.cause, e.rank, e.link}].first = e.total;
  }
  for (const auto& e : cand.blame) {
    merged[{e.cause, e.rank, e.link}].second = e.total;
  }
  std::vector<std::pair<BlameKey, std::pair<TimeNs, TimeNs>>> rows(
      merged.begin(), merged.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    const TimeNs da = a.second.second - a.second.first;
    const TimeNs db = b.second.second - b.second.first;
    if (da != db) return da > db;
    return a.first < b.first;
  });

  Table table({"blamed", "cause", "base", "cand", "delta"});
  for (const auto& [key, totals] : rows) {
    BlameEntry who;
    who.cause = key.cause;
    who.rank = key.rank;
    who.link = key.link;
    const TimeNs row_delta = totals.second - totals.first;
    // Appended, not `std::string(..) + ..`: GCC 12 at -O3 raises a false
    // -Wrestrict inside basic_string::_M_replace on that temporary.
    std::string delta_cell(row_delta >= 0 ? "+" : "-");
    delta_cell.append(format_duration(row_delta >= 0 ? row_delta : -row_delta));
    table.add_row({blame_who(who), segment_kind_name(key.cause),
                   format_duration(totals.first),
                   format_duration(totals.second), delta_cell});
  }
  out << table.to_string();
  return out.str();
}

}  // namespace ms::diag
