// Lightweight statistics helpers used across diagnosis and benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ms {

/// Streaming mean / variance / min / max (Welford).
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact-percentile sample set. Keeps all samples; fine for the experiment
/// sizes in this repository (<= millions of values).
class Percentiles {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// q in [0, 1]; linear interpolation between closest ranks.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p99() const { return quantile(0.99); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t total() const { return total_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t bucket(std::size_t i) const { return counts_[i]; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const { return bucket_lo(i + 1); }

  /// Simple multi-line ASCII rendering (for bench/table output).
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/// Fixed-layout HDR-style histogram sketch: geometric buckets spanning
/// [1e-9, 1e12) at a fixed resolution per decade, so every instance shares
/// the same bucket boundaries and per-rank sketches merge with a plain
/// element-wise add (the property the telemetry registry relies on).
/// Values <= 0 or below the range land in an underflow bucket; values above
/// it in an overflow bucket. Quantiles interpolate inside the winning
/// bucket, giving a bounded relative error of one bucket width (~7%).
class HdrHistogram {
 public:
  static constexpr double kRangeLo = 1e-9;
  // ms-lint: allow(unit-literal): histogram range bound, not a unit conversion.
  static constexpr double kRangeHi = 1e12;
  static constexpr int kBucketsPerDecade = 32;
  static constexpr int kDecades = 21;  // log10(kRangeHi / kRangeLo)
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kBucketsPerDecade) * kDecades;

  /// Everything but the sized buckets: out-of-range counts, the sample
  /// total and the running sum/min/max. Header::merge is the non-bucket
  /// half of merge(), so sparse encodings of this layout
  /// (telemetry::SparseHist) merge exactly like the dense form.
  struct Header {
    std::uint64_t underflow = 0, overflow = 0, total = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    void merge(const Header& other);
  };

  HdrHistogram();
  /// Raw rebuild: `header` verbatim and every sized bucket empty until
  /// set_bucket_count() fills it. Together with header() and
  /// bucket_count() this is a lossless round trip.
  explicit HdrHistogram(const Header& header);

  void add(double x, std::uint64_t count = 1);
  void merge(const HdrHistogram& other);

  std::uint64_t total() const { return head_.total; }
  bool empty() const { return head_.total == 0; }
  double sum() const { return head_.sum; }
  double mean() const {
    return head_.total ? head_.sum / static_cast<double>(head_.total) : 0.0;
  }
  double min() const { return head_.total ? head_.min : 0.0; }
  double max() const { return head_.total ? head_.max : 0.0; }
  /// Samples that fell outside [kRangeLo, kRangeHi): still counted in
  /// total()/sum() but not in any sized bucket, so quantiles near the tail
  /// silently clamp. Exporters surface these so a mis-scaled metric (e.g.
  /// nanoseconds recorded as seconds) is visible instead of a quiet lie.
  std::uint64_t underflow_count() const { return head_.underflow; }
  std::uint64_t overflow_count() const { return head_.overflow; }

  /// q in [0, 1]; value interpolated within the bucket holding that rank.
  double quantile(double q) const;
  double p50() const { return quantile(0.5); }
  double p99() const { return quantile(0.99); }

  /// Non-empty buckets in ascending value order (exporter iteration).
  struct Bucket {
    double lo = 0, hi = 0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> nonzero_buckets() const;

  /// Raw layout access for sparse encodings; i indexes the sized buckets
  /// (< kBuckets) in ascending value order.
  const Header& header() const { return head_; }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  void set_bucket_count(std::size_t i, std::uint64_t count) {
    counts_[i] = count;
  }
  /// Lower bound of sized bucket i (the `lo` nonzero_buckets() reports),
  /// so sparse encodings can name a bucket without a dense copy.
  static double bucket_lo(std::size_t i);

 private:
  static std::size_t bucket_index(double x);

  std::vector<std::uint64_t> counts_;
  Header head_;
};

/// A (x, y) series, used for loss curves and MFU-over-time plots.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;

  void add(double xv, double yv) {
    x.push_back(xv);
    y.push_back(yv);
  }
  std::size_t size() const { return x.size(); }

  /// Mean of y over the trailing k points (k clamped to size).
  double tail_mean(std::size_t k) const;
};

/// Render one or more series as an ASCII line chart. Each series gets its own
/// glyph; axes are annotated with min/max. Used by bench binaries to emit the
/// paper's figures on a terminal.
std::string ascii_chart(const std::vector<Series>& series, std::size_t width = 72,
                        std::size_t height = 18);

}  // namespace ms
