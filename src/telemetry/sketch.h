// Mergeable metric sketches (MegaScale §5: cluster-wide aggregation).
//
// The production system rolls per-machine metrics up to cluster dashboards
// at millisecond granularity. That only works because every metric the
// ranks export is a *mergeable sketch*: counters merge by addition, gauges
// by a (sum, min, max, count) statistic, and distributions by the
// fixed-layout HdrHistogram whose buckets add element-wise. This header is
// the wire model for that property: a SketchSnapshot is one node's (or one
// subtree's) metric state as plain mergeable data, with a deterministic
// encoded-size model so the aggregation tree (telemetry/aggregator.h) can
// charge its own traffic through the network cost models.
//
// Memory matches the wire model. A series value is a std::variant of the
// three kinds, so a counter is one double and a gauge one GaugeStat, with
// no storage for the other kinds. A histogram is held the way it is
// charged: sorted (bucket index, count) pairs on the HdrHistogram layout
// plus its header (SparseHist), not the 672-bucket dense array.
//
// Copy-on-write: a snapshot's series map sits behind a shared pointer.
// Copying a snapshot (AggregationTree::submit of one sketch to 12k ranks)
// bumps a refcount; a mutation (add_*, merge) first clones the map if any
// other copy still shares it, so no copy ever observes another's writes.
// Merging into an empty snapshot adopts the other's map outright. The
// encoded_bytes() memo lives with the map and is shared the same way.
// Copies may be read from several threads at once; as with any value
// type, mutating one needs the usual external synchronisation.
//
// Merge laws (pinned by tests/sketch_test.cpp): merge is commutative and
// associative on all integral state (counts, buckets, totals); floating
// sums are commutative but associative only to rounding, which is why the
// tree-vs-flat-merge oracle compares with approx_same() rather than
// digest equality.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/stats.h"
#include "core/units.h"
#include "telemetry/metrics.h"

namespace ms::telemetry {

/// Mergeable gauge aggregate: last-value gauges do not merge, so the tree
/// carries the (sum, min, max, count) statistic instead and reports the
/// mean/extremes at the root — what a cluster dashboard actually shows.
struct GaugeStat {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::uint64_t count = 0;

  void add(double v);
  void merge(const GaugeStat& other);
  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Sparse form of an HdrHistogram: the header plus the non-empty sized
/// buckets as ascending (index, count) pairs on the same fixed layout.
/// Lossless both ways; quantiles are read through dense() so there is one
/// quantile implementation.
class SparseHist {
 public:
  struct Entry {
    std::uint32_t index = 0;  // HdrHistogram sized-bucket index
    std::uint64_t count = 0;
  };

  SparseHist() = default;
  explicit SparseHist(const HdrHistogram& hist);

  /// Exactly HdrHistogram::merge on the dense forms: a two-pointer walk.
  void merge(const SparseHist& other);
  HdrHistogram dense() const;

  std::uint64_t total() const { return head_.total; }
  double sum() const { return head_.sum; }
  const HdrHistogram::Header& header() const { return head_; }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  HdrHistogram::Header head_;
  std::vector<Entry> entries_;
};

/// One mergeable series value: a counter's running sum, a gauge's
/// statistic or a histogram. The alternative index is the MetricKind
/// (kCounter, kGauge, kHistogram in that order), so a value holds exactly
/// its own kind's state and the index is the kind tag digests fold.
using SketchValue = std::variant<double, GaugeStat, SparseHist>;

/// One node's (or subtree's) metric state: series key -> mergeable value.
/// Keys are "name{labels}" via encode_labels, so two ranks exporting the
/// same series merge onto one entry.
class SketchSnapshot {
 public:
  void add_counter(const std::string& key, double value);
  void add_gauge(const std::string& key, double value);
  void add_histogram(const std::string& key, const HdrHistogram& hist);

  /// Element-wise merge of every series in `other`.
  void merge(const SketchSnapshot& other);

  const std::map<std::string, SketchValue>& series() const;
  std::size_t size() const { return state_ ? state_->series.size() : 0; }
  bool empty() const { return size() == 0; }

  /// Deterministic wire-size model (bytes) of this snapshot: per-series key
  /// + tag overhead, fixed-size counter/gauge payloads, and a sparse
  /// (bucket index, count) encoding for histograms. This is the number the
  /// aggregation tree charges through the network cost model. Memoized
  /// with the shared map: recomputed only after a mutation (the
  /// aggregation tree sizes the same unchanged snapshot at every level of
  /// every flush, and thousands of ranks ship one shared snapshot).
  Bytes encoded_bytes() const;

  /// Order-insensitive digest (series iterate in key order). Two snapshots
  /// built by the *same* merge topology digest equal; see approx_same()
  /// for comparing across topologies.
  std::uint64_t digest() const;

  /// Converts a registry snapshot into mergeable form.
  static SketchSnapshot from(const MetricsSnapshot& snapshot);

 private:
  struct State {
    std::map<std::string, SketchValue> series;
    /// encoded_bytes() memo; -1 = stale. Atomic because copies on
    /// different threads may size the one shared map concurrently.
    mutable std::atomic<Bytes> encoded_bytes{-1};
  };

  /// The map, cloned first if another snapshot shares it; stales the memo.
  std::map<std::string, SketchValue>& mutable_series();
  /// key's value, created as a T if absent. Aborts with a message if the
  /// series already holds another kind (one kind per name is a registry
  /// law, so a clash is a wiring bug); merge() checks the same way.
  template <class T>
  T& slot(const std::string& key);

  /// Null for an empty snapshot (no allocation until the first write).
  std::shared_ptr<State> state_;
};

/// True when the two snapshots agree: exactly on every integral field
/// (kinds, counts, bucket vectors) and within `rel_tol` relative error on
/// floating sums. This is the flat-merge oracle's comparison: different
/// merge orders may differ in the last ulp of a double sum.
bool approx_same(const SketchSnapshot& a, const SketchSnapshot& b,
                 double rel_tol = 1e-9);

}  // namespace ms::telemetry
