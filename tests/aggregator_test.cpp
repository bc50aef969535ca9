// Hierarchical aggregation tree (telemetry/aggregator.h): the tree's
// flush must equal the flat-merge oracle (no series lost or double
// counted), level accounting must match the configured topology, and the
// traffic/latency numbers must behave like a real tree (bounded fan-in,
// sub-interval propagation, small overhead fraction).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>

#include "core/stats.h"
#include "telemetry/aggregator.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace ms::telemetry {
namespace {

AggTreeConfig small_tree() {
  AggTreeConfig cfg;
  cfg.ranks = 64;
  cfg.ranks_per_host = 8;
  cfg.hosts_per_pod = 4;
  return cfg;
}

SketchSnapshot rank_snapshot(int rank) {
  MetricsRegistry reg;
  reg.counter("steps_total").add(100.0);
  reg.counter("faults_total", {{"rank", std::to_string(rank)}}).add(1.0);
  reg.gauge("mfu").set(0.5 + 0.001 * rank);
  reg.histogram("step_seconds").observe(12.0 + 0.01 * rank);
  return SketchSnapshot::from(reg.snapshot());
}

double root_counter(const AggregationTree& tree, const std::string& key) {
  return std::get<double>(tree.root().series().at(key));
}

TEST(Aggregator, TopologyMath) {
  AggregationTree tree(small_tree());
  EXPECT_EQ(tree.hosts(), 8);
  EXPECT_EQ(tree.pods(), 2);
}

TEST(Aggregator, FlushMatchesFlatMergeOracle) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  EXPECT_TRUE(approx_same(tree.root(), tree.flat_merge()));
  // 1 steps_total + 64 per-rank fault series + 1 mfu + 1 histogram.
  EXPECT_EQ(tree.root().size(), 67u);
  // The cluster view: every rank's counter summed, every gauge sampled.
  EXPECT_DOUBLE_EQ(root_counter(tree, "steps_total"), 6400.0);
  EXPECT_EQ(std::get<GaugeStat>(tree.root().series().at("mfu")).count, 64u);
  EXPECT_EQ(
      std::get<SparseHist>(tree.root().series().at("step_seconds")).total(),
      64u);
}

TEST(Aggregator, LevelAccountingMatchesTopology) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport report = tree.flush();
  ASSERT_EQ(report.levels.size(), 3u);

  EXPECT_EQ(report.levels[0].level, "rank->host");
  EXPECT_EQ(report.levels[0].senders, 64);
  EXPECT_EQ(report.levels[0].receivers, 8);
  EXPECT_EQ(report.levels[0].fan_in, 8);

  EXPECT_EQ(report.levels[1].level, "host->pod");
  EXPECT_EQ(report.levels[1].senders, 8);
  EXPECT_EQ(report.levels[1].receivers, 2);
  EXPECT_EQ(report.levels[1].fan_in, 4);

  EXPECT_EQ(report.levels[2].level, "pod->cluster");
  EXPECT_EQ(report.levels[2].senders, 2);
  EXPECT_EQ(report.levels[2].receivers, 1);

  // rank->host bytes stay on-host; the upper two levels cross the fabric.
  EXPECT_EQ(report.intra_bytes, report.levels[0].bytes);
  EXPECT_EQ(report.network_bytes,
            report.levels[1].bytes + report.levels[2].bytes);
  EXPECT_GT(report.intra_bytes, 0);
  EXPECT_GT(report.network_bytes, 0);
  // Merged uplink sketches are far smaller than the raw per-rank sum.
  EXPECT_LT(report.network_bytes, report.intra_bytes);
}

TEST(Aggregator, PropagationFitsInsideFlushInterval) {
  AggTreeConfig cfg = small_tree();
  AggregationTree tree(cfg);
  for (int r = 0; r < cfg.ranks; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport report = tree.flush();
  EXPECT_GT(report.propagation_latency, 0);
  // Millisecond-granularity collection only works if a sample reaches the
  // root before the next flush.
  EXPECT_LT(report.propagation_latency, cfg.flush_interval);
  TimeNs stage_sum = 0;
  for (const auto& level : report.levels) stage_sum += level.stage_latency;
  EXPECT_EQ(report.propagation_latency, stage_sum);
}

TEST(Aggregator, OverheadFractionIsSmallAndPositive) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport report = tree.flush();
  EXPECT_GT(report.overhead_fraction, 0.0);
  EXPECT_LT(report.overhead_fraction, 0.01);  // the fig11 gate
  EXPECT_GT(report.per_host_uplink, 0.0);
}

TEST(Aggregator, NetworkBytesAccumulateAcrossFlushes) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const Bytes first = tree.flush().network_bytes;
  EXPECT_EQ(tree.network_bytes_total(), first);
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  EXPECT_EQ(tree.network_bytes_total(), 2 * first);
}

TEST(Aggregator, ResubmitReplacesPendingSketch) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  // Rank 0 re-snapshots before the flush: latest wins, no double count.
  tree.submit(0, rank_snapshot(0));
  tree.flush();
  EXPECT_DOUBLE_EQ(root_counter(tree, "steps_total"), 6400.0);
}

TEST(Aggregator, SelfTelemetryCountsFlushes) {
  MetricsRegistry reg;
  AggTreeConfig cfg = small_tree();
  cfg.metrics = &reg;
  AggregationTree tree(cfg);
  for (int r = 0; r < cfg.ranks; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  tree.flush();
  EXPECT_DOUBLE_EQ(reg.counter("telemetry_agg_flushes_total").value(), 2.0);
  EXPECT_GT(reg.counter("telemetry_agg_bytes_total",
                        {{"level", "pod->cluster"}}).value(), 0.0);
}

TEST(Aggregator, RaggedLastHostAndPod) {
  AggTreeConfig cfg;
  cfg.ranks = 13;  // 2 hosts of 8 (one ragged), 1 pod
  cfg.ranks_per_host = 8;
  cfg.hosts_per_pod = 4;
  AggregationTree tree(cfg);
  EXPECT_EQ(tree.hosts(), 2);
  EXPECT_EQ(tree.pods(), 1);
  for (int r = 0; r < cfg.ranks; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  EXPECT_TRUE(approx_same(tree.root(), tree.flat_merge()));
  EXPECT_DOUBLE_EQ(root_counter(tree, "steps_total"), 1300.0);
}

TEST(Aggregator, SharedSubmissionIsIsolatedFromItsSource) {
  // One snapshot submitted to every rank shares one map (copy-on-write);
  // mutating the source afterwards must not reach the submitted copies.
  AggregationTree tree(small_tree());
  SketchSnapshot source = rank_snapshot(0);
  for (int r = 0; r < 64; ++r) tree.submit(r, source);
  tree.flush();
  const std::uint64_t before = tree.root().digest();
  const Bytes bytes_before = tree.root().encoded_bytes();
  source.add_counter("steps_total", 1.0);
  source.add_counter("late_series_total", 1.0);
  source.merge(rank_snapshot(1));
  EXPECT_EQ(tree.root().digest(), before);
  EXPECT_EQ(tree.root().encoded_bytes(), bytes_before);
  EXPECT_DOUBLE_EQ(root_counter(tree, "steps_total"), 6400.0);
  EXPECT_TRUE(approx_same(tree.root(), tree.flat_merge()));
}

// The two dirty-subtree cases below pin exact FlushReport values recorded
// with the three hand-written level blocks the one-level flush replaced:
// bytes, senders and integer nanoseconds must not move.

TEST(Aggregator, PartialResubmitShipsOnlyItsPath) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  const SketchSnapshot fresh = rank_snapshot(100);  // a new fault series
  tree.submit(37, fresh);  // host 4, pod 1
  const FlushReport report = tree.flush();
  ASSERT_EQ(report.levels.size(), 3u);
  const Bytes bytes[] = {160, 408, 1224};
  const TimeNs latency[] = {4601, 13668, 17304};
  const int receivers[] = {8, 2, 1};
  const int fan_in[] = {8, 4, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(report.levels[i].level);
    EXPECT_EQ(report.levels[i].senders, 1);
    EXPECT_EQ(report.levels[i].bytes, bytes[i]);
    EXPECT_EQ(report.levels[i].stage_latency, latency[i]);
    EXPECT_EQ(report.levels[i].receivers, receivers[i]);
    EXPECT_EQ(report.levels[i].fan_in, fan_in[i]);
  }
  EXPECT_EQ(report.levels[0].bytes, fresh.encoded_bytes());
  EXPECT_EQ(report.intra_bytes, 160);
  EXPECT_EQ(report.network_bytes, 1632);
  EXPECT_EQ(report.propagation_latency, 35573);
  EXPECT_EQ(report.per_host_uplink, 4080.0);
  EXPECT_EQ(report.overhead_fraction, 2.2666666666666668e-08);
  EXPECT_EQ(tree.network_bytes_total(), 5602 + 1632);
  // Clean siblings were reused, not dropped: the root still sees every rank.
  EXPECT_TRUE(approx_same(tree.root(), tree.flat_merge()));
  EXPECT_EQ(tree.root().digest(), 0x82b2179a795c4ccaull);
}

TEST(Aggregator, CleanFlushShipsNothing) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport first = tree.flush();
  const Bytes bytes[] = {10166, 3176, 2426};
  const TimeNs latency[] = {36800, 54669, 34607};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first.levels[i].bytes, bytes[i]);
    EXPECT_EQ(first.levels[i].stage_latency, latency[i]);
  }
  EXPECT_EQ(first.propagation_latency, 126076);
  EXPECT_EQ(first.per_host_uplink, 4070.0);
  const std::uint64_t digest = tree.root().digest();
  EXPECT_EQ(digest, 0x2db02b3a6fe1f2aeull);

  const FlushReport clean = tree.flush();
  ASSERT_EQ(clean.levels.size(), 3u);
  for (const LevelReport& level : clean.levels) {
    SCOPED_TRACE(level.level);
    EXPECT_EQ(level.senders, 0);
    EXPECT_EQ(level.bytes, 0);
    EXPECT_EQ(level.stage_latency, 0);
  }
  EXPECT_EQ(clean.intra_bytes, 0);
  EXPECT_EQ(clean.network_bytes, 0);
  EXPECT_EQ(clean.propagation_latency, 0);
  EXPECT_EQ(clean.per_host_uplink, 0.0);
  EXPECT_EQ(clean.overhead_fraction, 0.0);
  EXPECT_EQ(tree.root().digest(), digest);
  EXPECT_EQ(tree.network_bytes_total(), first.network_bytes);
}

// Release-safe input checks: these fire with NDEBUG too (they are not
// asserts), so a bad rank can never write out of bounds.
TEST(AggregatorDeathTest, RejectsNonPositiveTopology) {
  AggTreeConfig cfg = small_tree();
  cfg.ranks = 0;
  EXPECT_DEATH(AggregationTree{cfg}, "ranks must be positive");
  cfg = small_tree();
  cfg.ranks_per_host = -1;
  EXPECT_DEATH(AggregationTree{cfg}, "ranks_per_host must be positive");
  cfg = small_tree();
  cfg.hosts_per_pod = 0;
  EXPECT_DEATH(AggregationTree{cfg}, "hosts_per_pod must be positive");
}

TEST(AggregatorDeathTest, RejectsOutOfRangeRank) {
  AggregationTree tree(small_tree());
  EXPECT_DEATH(tree.submit(64, rank_snapshot(0)),
               "submit rank out of range \\(got 64\\)");
  EXPECT_DEATH(tree.submit(-1, rank_snapshot(0)),
               "submit rank out of range \\(got -1\\)");
}

}  // namespace
}  // namespace ms::telemetry
