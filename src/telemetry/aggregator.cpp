#include "telemetry/aggregator.h"

#include "core/fatal.h"
#include "prof/profiler.h"

#include <algorithm>

namespace ms::telemetry {

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// The levels bottom-up: the on-host hop rides NVLink / shared memory, the
// two upper hops the RDMA fabric.
struct Hop {
  const char* name;
  collective::Domain domain;
};
constexpr Hop kHops[] = {
    {"rank->host", collective::Domain::kIntraNode},
    {"host->pod", collective::Domain::kInterNode},
    {"pod->cluster", collective::Domain::kInterNode},
};

}  // namespace

AggregationTree::AggregationTree(const AggTreeConfig& cfg)
    : cfg_(cfg), model_(cfg.cluster, cfg.network_efficiency) {
  // A bad config or rank is a wiring bug with no sane fallback (a bad rank
  // would index past the rank tier), so it aborts in every build mode.
  MS_CHECK(cfg_.ranks > 0, "AggregationTree: ranks must be positive (got %d)",
           cfg_.ranks);
  MS_CHECK(cfg_.ranks_per_host > 0,
           "AggregationTree: ranks_per_host must be positive (got %d)",
           cfg_.ranks_per_host);
  MS_CHECK(cfg_.hosts_per_pod > 0,
           "AggregationTree: hosts_per_pod must be positive (got %d)",
           cfg_.hosts_per_pod);
  const int hosts = ceil_div(cfg_.ranks, cfg_.ranks_per_host);
  const int pods = ceil_div(hosts, cfg_.hosts_per_pod);
  const auto tier = [](int nodes, int fan_in) {
    const auto n = static_cast<std::size_t>(nodes);
    return Tier{std::vector<SketchSnapshot>(n), std::vector<char>(n, 0),
                fan_in};
  };
  tiers_ = {tier(cfg_.ranks, 0), tier(hosts, cfg_.ranks_per_host),
            tier(pods, cfg_.hosts_per_pod), tier(1, pods)};
}

void AggregationTree::submit(int rank, SketchSnapshot snapshot) {
  MS_CHECK(rank >= 0 && rank < cfg_.ranks,
           "AggregationTree: submit rank out of range (got %d)", rank);
  Tier& ranks = tiers_.front();
  ranks.sketches[static_cast<std::size_t>(rank)] = std::move(snapshot);
  ranks.dirty[static_cast<std::size_t>(rank)] = 1;
}

SketchSnapshot AggregationTree::flat_merge() const {
  SketchSnapshot out;
  for (const auto& leaf : tiers_.front().sketches) out.merge(leaf);
  return out;
}

LevelReport AggregationTree::flush_level(std::size_t level,
                                         Bytes& largest_sender) {
  Tier& children = tiers_[level];
  Tier& parents = tiers_[level + 1];
  const auto fan_in = static_cast<std::size_t>(parents.fan_in);
  LevelReport report;
  report.level = kHops[level].name;
  report.receivers = static_cast<int>(parents.sketches.size());
  report.fan_in = parents.fan_in;
  largest_sender = 0;

  // A parent is dirty when any child re-submitted since the last flush.
  // Clean parents neither ship nor merge: their retained aggregate stands.
  std::fill(parents.dirty.begin(), parents.dirty.end(), 0);
  for (std::size_t c = 0; c < children.dirty.size(); ++c) {
    if (children.dirty[c]) parents.dirty[c / fan_in] = 1;
  }
  // Sender/byte/latency accounting covers only the dirty children: a child
  // with no fresh sketch ships nothing. A receiver ingests its senders one
  // after another; the level takes as long as its slowest receiver.
  for (std::size_t p = 0; p < parents.sketches.size(); ++p) {
    if (!parents.dirty[p]) continue;
    TimeNs ingest = 0;
    const std::size_t lo = p * fan_in;
    const std::size_t hi = std::min(children.sketches.size(), lo + fan_in);
    SketchSnapshot& merged = parents.sketches[p];
    merged = SketchSnapshot();
    for (std::size_t c = lo; c < hi; ++c) {
      const SketchSnapshot& child = children.sketches[c];
      merged.merge(child);
      if (!children.dirty[c]) continue;
      const Bytes bytes = child.encoded_bytes();
      ++report.senders;
      report.bytes += bytes;
      largest_sender = std::max(largest_sender, bytes);
      ingest += model_.send_recv(bytes, kHops[level].domain);
      ingest += cfg_.merge_cost_per_series *
                static_cast<TimeNs>(child.size());
    }
    report.stage_latency = std::max(report.stage_latency, ingest);
  }
  std::fill(children.dirty.begin(), children.dirty.end(), 0);
  return report;
}

FlushReport AggregationTree::flush() {
  MS_PROF_SCOPE("telemetry.agg_flush");
  FlushReport report;
  Bytes max_host_uplink = 0;
  for (std::size_t level = 0; level + 1 < tiers_.size(); ++level) {
    Bytes largest_sender = 0;
    report.levels.push_back(flush_level(level, largest_sender));
    report.propagation_latency += report.levels.back().stage_latency;
    if (level == 1) max_host_uplink = largest_sender;  // host->pod
  }
  report.intra_bytes = report.levels[0].bytes;
  report.network_bytes = report.levels[1].bytes + report.levels[2].bytes;
  network_bytes_total_ += report.network_bytes;

  // The contended resource is a host's uplink NIC: it carries the merged
  // host sketch once per flush interval, next to the job's training
  // traffic on the same rails.
  const double interval_s = to_seconds(cfg_.flush_interval);
  report.per_host_uplink =
      interval_s > 0
          ? static_cast<double>(max_host_uplink) / interval_s
          : 0.0;
  const Bandwidth training_bw = cfg_.cluster.nic_bw *
                                cfg_.cluster.gpus_per_node *
                                cfg_.network_efficiency;
  report.overhead_fraction =
      training_bw > 0 ? report.per_host_uplink / training_bw : 0.0;

  if (cfg_.metrics != nullptr) {
    auto& m = *cfg_.metrics;
    m.counter("telemetry_agg_flushes_total").add();
    for (const auto& level : report.levels) {
      m.counter("telemetry_agg_bytes_total", {{"level", level.level}})
          .add(static_cast<double>(level.bytes));
    }
    m.gauge("telemetry_agg_overhead_fraction").set(report.overhead_fraction);
    m.gauge("telemetry_agg_propagation_seconds")
        .set(to_seconds(report.propagation_latency));
  }
  return report;
}

}  // namespace ms::telemetry
