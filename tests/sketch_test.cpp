// Merge laws for the mergeable metric sketches (telemetry/sketch.h): the
// aggregation tree is only correct if counters/gauges/histograms merge
// commutatively and associatively, the wire-size model is deterministic,
// and a registry snapshot converts losslessly into mergeable form.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "check/digest.h"
#include "core/rng.h"
#include "core/stats.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace ms::telemetry {
namespace {

SketchSnapshot sample_snapshot(int salt) {
  SketchSnapshot s;
  s.add_counter("steps_total", 100.0 + salt);
  s.add_counter("faults_total{node=\"" + std::to_string(salt) + "\"}", 1.0);
  s.add_gauge("mfu", 0.5 + 0.01 * salt);
  HdrHistogram h;
  for (int i = 1; i <= 16; ++i) h.add(0.001 * i * (salt + 1));
  s.add_histogram("step_seconds", h);
  return s;
}

// ------------------------------------------------------------ gauge stat

TEST(GaugeStat, TracksSumMinMaxCount) {
  GaugeStat g;
  g.add(2.0);
  g.add(-1.0);
  g.add(5.0);
  EXPECT_DOUBLE_EQ(g.sum, 6.0);
  EXPECT_DOUBLE_EQ(g.min, -1.0);
  EXPECT_DOUBLE_EQ(g.max, 5.0);
  EXPECT_EQ(g.count, 3u);
  EXPECT_DOUBLE_EQ(g.mean(), 2.0);
}

TEST(GaugeStat, MergeMatchesCombinedAdds) {
  GaugeStat a, b, all;
  for (double v : {0.1, 0.9, 0.4}) { a.add(v); all.add(v); }
  for (double v : {0.3, 1.5}) { b.add(v); all.add(v); }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
  EXPECT_EQ(a.count, all.count);
}

TEST(GaugeStat, EmptyMergeIsIdentity) {
  GaugeStat a;
  a.add(0.7);
  GaugeStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.7);
}

// ------------------------------------------------------------ merge laws

TEST(Sketch, MergeIsCommutative) {
  SketchSnapshot ab = sample_snapshot(1);
  ab.merge(sample_snapshot(2));
  SketchSnapshot ba = sample_snapshot(2);
  ba.merge(sample_snapshot(1));
  EXPECT_TRUE(approx_same(ab, ba));
  // Same series keys in both orders.
  EXPECT_EQ(ab.size(), ba.size());
}

TEST(Sketch, MergeIsAssociativeToRounding) {
  SketchSnapshot left = sample_snapshot(1);   // (A + B) + C
  left.merge(sample_snapshot(2));
  left.merge(sample_snapshot(3));
  SketchSnapshot bc = sample_snapshot(2);     // A + (B + C)
  bc.merge(sample_snapshot(3));
  SketchSnapshot right = sample_snapshot(1);
  right.merge(bc);
  EXPECT_TRUE(approx_same(left, right));
}

TEST(Sketch, CountersAdd) {
  SketchSnapshot a, b;
  a.add_counter("x", 3.0);
  b.add_counter("x", 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(std::get<double>(a.series().at("x")), 7.0);
}

TEST(Sketch, DistinctLabelSetsStayDistinct) {
  SketchSnapshot a, b;
  a.add_counter("faults_total{node=\"0\"}", 1.0);
  b.add_counter("faults_total{node=\"1\"}", 2.0);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Sketch, HistogramBucketsAddElementWise) {
  HdrHistogram h1, h2;
  h1.add(0.010, 5);
  h2.add(0.010, 7);
  h2.add(1.000, 2);
  SketchSnapshot a, b;
  a.add_histogram("lat", h1);
  b.add_histogram("lat", h2);
  a.merge(b);
  const HdrHistogram merged =
      std::get<SparseHist>(a.series().at("lat")).dense();
  EXPECT_EQ(merged.total(), 14u);
  EXPECT_NEAR(merged.quantile(0.5), 0.010, 0.010 * 0.08);
}

TEST(Sketch, ApproxSameDetectsDrift) {
  SketchSnapshot a = sample_snapshot(1);
  SketchSnapshot b = sample_snapshot(1);
  EXPECT_TRUE(approx_same(a, b));
  b.add_counter("steps_total", 1.0);
  EXPECT_FALSE(approx_same(a, b));
}

TEST(Sketch, DigestIsDeterministicAndOrderInsensitive) {
  SketchSnapshot a, b;
  a.add_counter("x", 1.0);
  a.add_counter("y", 2.0);
  b.add_counter("y", 2.0);
  b.add_counter("x", 1.0);
  EXPECT_EQ(a.digest(), b.digest());
  b.add_counter("x", 1.0);
  EXPECT_NE(a.digest(), b.digest());
}

// ------------------------------------------------------- wire-size model

TEST(Sketch, EncodedBytesDeterministicAndMonotone) {
  SketchSnapshot a = sample_snapshot(1);
  SketchSnapshot b = sample_snapshot(1);
  EXPECT_EQ(a.encoded_bytes(), b.encoded_bytes());
  const Bytes before = a.encoded_bytes();
  a.add_counter("one_more_series_total", 1.0);
  EXPECT_GT(a.encoded_bytes(), before);
  EXPECT_EQ(SketchSnapshot{}.encoded_bytes(), 16);  // frame header only
}

TEST(Sketch, HistogramEncodingIsSparse) {
  HdrHistogram dense, sparse;
  for (int i = 1; i <= 64; ++i) dense.add(0.001 * i);
  sparse.add(0.5, 64);  // same total, one bucket
  SketchSnapshot d, s;
  d.add_histogram("lat", dense);
  s.add_histogram("lat", sparse);
  EXPECT_GT(d.encoded_bytes(), s.encoded_bytes());
}

// ---------------------------------------------------- registry interop

TEST(Sketch, FromRegistrySnapshotRoundTrips) {
  MetricsRegistry reg;
  reg.counter("steps_total").add(42.0);
  reg.gauge("mfu").set(0.61);
  reg.gauge("mfu", {{"stage", "3"}}).set(0.55);
  reg.histogram("step_seconds").observe(12.5);
  reg.histogram("step_seconds").observe(13.5);

  SketchSnapshot s = SketchSnapshot::from(reg.snapshot());
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(std::get<double>(s.series().at("steps_total")), 42.0);
  const auto& g = std::get<GaugeStat>(s.series().at("mfu"));
  EXPECT_EQ(g.count, 1u);
  EXPECT_DOUBLE_EQ(g.mean(), 0.61);
  EXPECT_EQ(std::get<SparseHist>(s.series().at("step_seconds")).total(), 2u);
}

TEST(Sketch, TwoRanksSameSeriesMergeOntoOneEntry) {
  MetricsRegistry r0, r1;
  r0.counter("steps_total").add(10.0);
  r1.counter("steps_total").add(32.0);
  SketchSnapshot merged = SketchSnapshot::from(r0.snapshot());
  merged.merge(SketchSnapshot::from(r1.snapshot()));
  EXPECT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(merged.series().at("steps_total")), 42.0);
}

// ------------------------------------------- sparse vs dense oracle

// One random sample: mostly in range, with underflow (0, negative, below
// kRangeLo), overflow and NaN mixed in.
double random_sample(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.04) return 0.0;
  if (u < 0.06) return -rng.uniform(0.0, 5.0);
  if (u < 0.08) return 1e-12;
  if (u < 0.10) return 5e12;
  if (u < 0.11) return std::numeric_limits<double>::quiet_NaN();
  return std::pow(10.0, rng.uniform(-8.0, 11.0));
}

HdrHistogram random_hist(Rng& rng) {
  HdrHistogram h;
  const int n = static_cast<int>(rng.uniform_index(40));
  for (int i = 0; i < n; ++i) {
    h.add(random_sample(rng), 1 + rng.uniform_index(3));
  }
  return h;
}

// The dense path the sparse form replaced: each series a full
// HdrHistogram, digest and wire size read off nonzero_buckets().
std::uint64_t dense_digest(const std::map<std::string, HdrHistogram>& m) {
  check::Digest d;
  for (const auto& [key, h] : m) {
    d.fold(std::string_view(key));
    d.fold(static_cast<std::uint64_t>(MetricKind::kHistogram));
    d.fold(h.total());
    d.fold(std::bit_cast<std::uint64_t>(h.sum()));
    for (const auto& b : h.nonzero_buckets()) {
      d.fold(std::bit_cast<std::uint64_t>(b.lo));
      d.fold(b.count);
    }
  }
  return d.value();
}

Bytes dense_encoded_bytes(const std::map<std::string, HdrHistogram>& m) {
  Bytes total = 16;
  for (const auto& [key, h] : m) {
    total += static_cast<Bytes>(key.size()) + 3 + 24 +
             10 * static_cast<Bytes>(h.nonzero_buckets().size());
  }
  return total;
}

void expect_same_buckets(const std::vector<HdrHistogram::Bucket>& a,
                         const std::vector<HdrHistogram::Bucket>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].lo),
              std::bit_cast<std::uint64_t>(b[i].lo));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].hi),
              std::bit_cast<std::uint64_t>(b[i].hi));
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

TEST(SparseHist, SeededOracleMatchesDensePath) {
  Rng rng(0x5ca1ab1e);
  for (int trial = 0; trial < 40; ++trial) {
    SketchSnapshot sparse;
    std::map<std::string, HdrHistogram> dense;
    // A few ranks' snapshots over overlapping keys, merged in one order.
    const int ranks = 1 + static_cast<int>(rng.uniform_index(6));
    for (int r = 0; r < ranks; ++r) {
      SketchSnapshot rank;
      std::map<std::string, HdrHistogram> rank_dense;
      const int keys = 1 + static_cast<int>(rng.uniform_index(4));
      for (int k = 0; k < keys; ++k) {
        const std::string key =
            "lat{k=\"" + std::to_string(rng.uniform_index(5)) + "\"}";
        const HdrHistogram h = random_hist(rng);
        rank.add_histogram(key, h);
        rank_dense[key].merge(h);
      }
      sparse.merge(rank);
      for (const auto& [key, h] : rank_dense) dense[key].merge(h);
    }
    ASSERT_EQ(sparse.size(), dense.size());
    EXPECT_EQ(sparse.digest(), dense_digest(dense)) << "trial " << trial;
    EXPECT_EQ(sparse.encoded_bytes(), dense_encoded_bytes(dense));
    for (const auto& [key, ref] : dense) {
      const HdrHistogram back =
          std::get<SparseHist>(sparse.series().at(key)).dense();
      expect_same_buckets(back.nonzero_buckets(), ref.nonzero_buckets());
      EXPECT_EQ(back.total(), ref.total());
      EXPECT_EQ(back.underflow_count(), ref.underflow_count());
      EXPECT_EQ(back.overflow_count(), ref.overflow_count());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.sum()),
                std::bit_cast<std::uint64_t>(ref.sum()));
      for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.quantile(q)),
                  std::bit_cast<std::uint64_t>(ref.quantile(q)))
            << key << " q=" << q;
      }
    }
  }
}

TEST(SparseHist, StoresOnlyNonEmptyBuckets) {
  HdrHistogram h;
  h.add(0.5, 3);
  h.add(2.0);
  h.add(0.0);   // underflow: header only
  h.add(1e13);  // overflow: header only
  const SparseHist s(h);
  ASSERT_EQ(s.entries().size(), 2u);
  EXPECT_LT(s.entries()[0].index, s.entries()[1].index);
  EXPECT_EQ(s.entries()[0].count, 3u);
  EXPECT_EQ(s.header().underflow, 1u);
  EXPECT_EQ(s.header().overflow, 1u);
  EXPECT_EQ(s.total(), 6u);
}

// ---------------------------------------------------- copy-on-write

TEST(SketchCow, MergingIntoACopyLeavesTheOriginal) {
  SketchSnapshot a = sample_snapshot(1);
  const std::uint64_t digest = a.digest();
  const Bytes bytes = a.encoded_bytes();  // memo now set on the shared map
  SketchSnapshot b = a;
  b.merge(sample_snapshot(2));
  b.add_counter("only_in_b_total", 1.0);
  EXPECT_EQ(a.digest(), digest);
  EXPECT_EQ(a.encoded_bytes(), bytes);
  EXPECT_EQ(a.size(), sample_snapshot(1).size());
  EXPECT_GT(b.encoded_bytes(), bytes);
  EXPECT_NE(b.digest(), digest);
}

TEST(SketchCow, MutatingTheOriginalLeavesACopy) {
  SketchSnapshot a = sample_snapshot(1);
  const SketchSnapshot copy = a;
  const std::uint64_t digest = copy.digest();
  const Bytes bytes = copy.encoded_bytes();
  HdrHistogram wide;
  for (int i = 0; i < 32; ++i) wide.add(std::pow(10.0, i % 9));
  a.add_histogram("step_seconds", wide);
  a.add_gauge("mfu", 0.9);
  EXPECT_EQ(copy.digest(), digest);
  EXPECT_EQ(copy.encoded_bytes(), bytes);
  EXPECT_GT(a.encoded_bytes(), bytes);
}

TEST(SketchCow, MergeIntoEmptyAdoptsButStaysIsolated) {
  const SketchSnapshot src = sample_snapshot(3);
  const Bytes bytes = src.encoded_bytes();
  SketchSnapshot dst;
  dst.merge(src);
  EXPECT_EQ(dst.digest(), src.digest());
  EXPECT_EQ(dst.encoded_bytes(), bytes);
  dst.merge(sample_snapshot(4));
  EXPECT_EQ(src.digest(), sample_snapshot(3).digest());
  EXPECT_EQ(src.encoded_bytes(), bytes);
}

TEST(SketchCow, SelfMergeDoubles) {
  SketchSnapshot a = sample_snapshot(1);
  SketchSnapshot twice = sample_snapshot(1);
  twice.merge(sample_snapshot(1));
  a.merge(a);
  EXPECT_EQ(a.digest(), twice.digest());
  EXPECT_DOUBLE_EQ(std::get<double>(a.series().at("steps_total")), 202.0);
  EXPECT_EQ(std::get<SparseHist>(a.series().at("step_seconds")).total(), 32u);
  // A copy sharing a's map merges the same way.
  SketchSnapshot b = a;
  a.merge(b);
  EXPECT_EQ(std::get<SparseHist>(a.series().at("step_seconds")).total(), 64u);
  EXPECT_EQ(std::get<SparseHist>(b.series().at("step_seconds")).total(), 32u);
}

// ------------------------------------------------------ kind clashes

// One kind per series is a registry law, so a clash is a wiring bug: it
// aborts with a message naming the series in every build mode.
TEST(SketchDeathTest, KindClashThroughAddNamesTheSeries) {
  SketchSnapshot s;
  s.add_counter("steps_total", 1.0);
  EXPECT_DEATH(s.add_gauge("steps_total", 0.5),
               "SketchSnapshot: series 'steps_total' is a counter, "
               "not a gauge");
  HdrHistogram h;
  h.add(1.0);
  EXPECT_DEATH(s.add_histogram("steps_total", h),
               "series 'steps_total' is a counter, not a histogram");
}

TEST(SketchDeathTest, KindClashThroughMergeNamesTheSeries) {
  SketchSnapshot a = sample_snapshot(1);
  SketchSnapshot b;
  b.add_counter("mfu", 1.0);
  EXPECT_DEATH(a.merge(b),
               "SketchSnapshot: series 'mfu' is a gauge, not a counter");
}

}  // namespace
}  // namespace ms::telemetry
