#include "core/stats.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ms {

void RunningStat::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Percentiles::quantile(double q) const {
  assert(!values_.empty());
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

// --------------------------------------------------------- HdrHistogram

void HdrHistogram::Header::merge(const Header& other) {
  underflow += other.underflow;
  overflow += other.overflow;
  total += other.total;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

HdrHistogram::HdrHistogram() : counts_(kBuckets, 0) {}

HdrHistogram::HdrHistogram(const Header& header)
    : counts_(kBuckets, 0), head_(header) {}

std::size_t HdrHistogram::bucket_index(double x) {
  const double pos = std::log10(x / kRangeLo) * kBucketsPerDecade;
  // Clamp: floating rounding near the range edges must not step outside.
  return std::min(static_cast<std::size_t>(std::max(pos, 0.0)), kBuckets - 1);
}

double HdrHistogram::bucket_lo(std::size_t i) {
  // One pow per bound, once per process: digests and exporters read
  // thousands of bounds per snapshot.
  static const std::array<double, kBuckets + 1> lo = [] {
    std::array<double, kBuckets + 1> out{};
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = kRangeLo *
               std::pow(10.0, static_cast<double>(k) / kBucketsPerDecade);
    }
    return out;
  }();
  return lo[i];
}

void HdrHistogram::add(double x, std::uint64_t count) {
  if (count == 0) return;
  head_.total += count;
  head_.sum += x * static_cast<double>(count);
  head_.min = std::min(head_.min, x);
  head_.max = std::max(head_.max, x);
  if (!(x >= kRangeLo)) {  // includes NaN, <= 0 and tiny values
    head_.underflow += count;
  } else if (x >= kRangeHi) {
    head_.overflow += count;
  } else {
    counts_[bucket_index(x)] += count;
  }
}

void HdrHistogram::merge(const HdrHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  head_.merge(other.head_);
}

double HdrHistogram::quantile(double q) const {
  if (head_.total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(head_.total);
  double seen = static_cast<double>(head_.underflow);
  if (target <= seen && head_.underflow > 0) return head_.min;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = seen + static_cast<double>(counts_[i]);
    if (target <= next) {
      const double frac = (target - seen) / static_cast<double>(counts_[i]);
      const double lo = bucket_lo(i), hi = bucket_lo(i + 1);
      return std::clamp(lo + frac * (hi - lo), head_.min, head_.max);
    }
    seen = next;
  }
  return head_.max;
}

std::vector<HdrHistogram::Bucket> HdrHistogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  if (head_.underflow > 0) out.push_back({0.0, kRangeLo, head_.underflow});
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out.push_back({bucket_lo(i), bucket_lo(i + 1), counts_[i]});
  }
  if (head_.overflow > 0) {
    out.push_back({kRangeHi, std::numeric_limits<double>::infinity(),
                   head_.overflow});
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  assert(hi > lo && buckets > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  auto i = static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  if (i >= counts_.size()) i = counts_.size() - 1;
  ++counts_[i];
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  char head[96];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(head, sizeof(head), "[%10.4g, %10.4g) %8zu |", bucket_lo(i),
                  bucket_hi(i), counts_[i]);
    out << head;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    for (std::size_t b = 0; b < bar; ++b) out << '#';
    out << '\n';
  }
  if (underflow_ || overflow_) {
    out << "underflow=" << underflow_ << " overflow=" << overflow_ << '\n';
  }
  return out.str();
}

double Series::tail_mean(std::size_t k) const {
  if (y.empty()) return 0.0;
  k = std::min(k, y.size());
  double s = 0.0;
  for (std::size_t i = y.size() - k; i < y.size(); ++i) s += y[i];
  return s / static_cast<double>(k);
}

std::string ascii_chart(const std::vector<Series>& series, std::size_t width,
                        std::size_t height) {
  static const char kGlyphs[] = {'*', 'o', '+', 'x', '@', '%', '~', '^'};
  double xmin = 0, xmax = 1, ymin = 0, ymax = 1;
  bool any = false;
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!std::isfinite(s.x[i]) || !std::isfinite(s.y[i])) continue;
      if (!any) {
        xmin = xmax = s.x[i];
        ymin = ymax = s.y[i];
        any = true;
      } else {
        xmin = std::min(xmin, s.x[i]);
        xmax = std::max(xmax, s.x[i]);
        ymin = std::min(ymin, s.y[i]);
        ymax = std::max(ymax, s.y[i]);
      }
    }
  }
  if (!any) return "(empty chart)\n";
  if (xmax == xmin) xmax = xmin + 1;
  if (ymax == ymin) ymax = ymin + 1;

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    const auto& s = series[si];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!std::isfinite(s.x[i]) || !std::isfinite(s.y[i])) continue;
      auto cx = static_cast<std::size_t>((s.x[i] - xmin) / (xmax - xmin) *
                                         static_cast<double>(width - 1));
      auto cy = static_cast<std::size_t>((s.y[i] - ymin) / (ymax - ymin) *
                                         static_cast<double>(height - 1));
      grid[height - 1 - cy][cx] = glyph;
    }
  }

  std::ostringstream out;
  char label[64];
  std::snprintf(label, sizeof(label), "%10.4g ", ymax);
  out << label << '|' << grid[0] << '\n';
  for (std::size_t r = 1; r + 1 < height; ++r) {
    out << std::string(11, ' ') << '|' << grid[r] << '\n';
  }
  std::snprintf(label, sizeof(label), "%10.4g ", ymin);
  out << label << '|' << grid[height - 1] << '\n';
  out << std::string(12, ' ') << std::string(width, '-') << '\n';
  char xlabel[96];
  std::snprintf(xlabel, sizeof(xlabel), "%12s%-10.4g%*.4g\n", "", xmin,
                static_cast<int>(width) - 10, xmax);
  out << xlabel;
  for (std::size_t si = 0; si < series.size(); ++si) {
    out << "  " << kGlyphs[si % sizeof(kGlyphs)] << " = " << series[si].name;
  }
  out << '\n';
  return out.str();
}

}  // namespace ms
