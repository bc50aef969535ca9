#include "telemetry/sketch.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "check/digest.h"

namespace ms::telemetry {

namespace {

// SketchValue's alternative index is its MetricKind.
template <MetricKind K>
using Alt =
    std::variant_alternative_t<static_cast<std::size_t>(K), SketchValue>;
static_assert(std::is_same_v<Alt<MetricKind::kCounter>, double> &&
              std::is_same_v<Alt<MetricKind::kGauge>, GaugeStat> &&
              std::is_same_v<Alt<MetricKind::kHistogram>, SparseHist>);

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};

// A kind clash is a wiring bug with no sane fallback, so it aborts with a
// message in every build mode.
[[noreturn]] void kind_clash(const std::string& key, std::size_t is,
                             std::size_t wanted) {
  std::fprintf(stderr, "SketchSnapshot: series '%s' is a %s, not a %s\n",
               key.c_str(), kind_name(static_cast<MetricKind>(is)),
               kind_name(static_cast<MetricKind>(wanted)));
  std::abort();
}

/// into += from for one series; both must hold the same kind.
void merge_value(const std::string& key, SketchValue& into,
                 const SketchValue& from) {
  if (into.index() != from.index()) kind_clash(key, into.index(), from.index());
  std::visit(
      [&](auto& a) {
        const auto& b = *std::get_if<std::decay_t<decltype(a)>>(&from);
        if constexpr (std::is_same_v<decltype(b), const double&>) {
          a += b;
        } else {
          a.merge(b);
        }
      },
      into);
}

}  // namespace

void GaugeStat::add(double v) {
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++count;
}

void GaugeStat::merge(const GaugeStat& other) {
  if (other.count == 0) return;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
}

SparseHist::SparseHist(const HdrHistogram& hist) : head_(hist.header()) {
  for (std::size_t i = 0; i < HdrHistogram::kBuckets; ++i) {
    const std::uint64_t count = hist.bucket_count(i);
    if (count != 0) entries_.push_back({static_cast<std::uint32_t>(i), count});
  }
}

void SparseHist::merge(const SparseHist& other) {
  head_.merge(other.head_);
  const std::vector<Entry>& add = other.entries_;
  // Union size first. Once a subtree has seen every rank, other's buckets
  // are usually a subset of ours and the merge is an in-place add.
  std::size_t n = entries_.size();
  for (std::size_t i = 0, j = 0; j < add.size(); ++j) {
    while (i < entries_.size() && entries_[i].index < add[j].index) ++i;
    if (i == entries_.size() || entries_[i].index != add[j].index) ++n;
  }
  // Two-pointer walk from the back: the write cursor k never passes the
  // read cursor i, so no entry is overwritten before it is read.
  std::size_t i = entries_.size(), j = add.size(), k = n;
  entries_.resize(n);
  while (j > 0) {
    Entry next = add[j - 1];
    if (i > 0 && entries_[i - 1].index >= next.index) {
      if (entries_[i - 1].index == next.index) {
        next.count += entries_[i - 1].count;
        --j;
      } else {
        next = entries_[i - 1];
      }
      --i;
    } else {
      --j;
    }
    entries_[--k] = next;
  }
}

HdrHistogram SparseHist::dense() const {
  HdrHistogram out(head_);
  for (const Entry& e : entries_) out.set_bucket_count(e.index, e.count);
  return out;
}

const std::map<std::string, SketchValue>& SketchSnapshot::series() const {
  static const std::map<std::string, SketchValue> kEmpty;
  return state_ ? state_->series : kEmpty;
}

std::map<std::string, SketchValue>& SketchSnapshot::mutable_series() {
  if (state_ == nullptr || state_.use_count() > 1) {
    auto fresh = std::make_shared<State>();  // memo starts stale
    if (state_ != nullptr) fresh->series = state_->series;  // copy on write
    state_ = std::move(fresh);
  } else {
    state_->encoded_bytes.store(-1, std::memory_order_relaxed);
  }
  return state_->series;
}

template <class T>
T& SketchSnapshot::slot(const std::string& key) {
  SketchValue& value =
      mutable_series().try_emplace(key, std::in_place_type<T>).first->second;
  if (T* typed = std::get_if<T>(&value)) return *typed;
  kind_clash(key, value.index(), SketchValue(std::in_place_type<T>).index());
}

void SketchSnapshot::add_counter(const std::string& key, double value) {
  slot<double>(key) += value;
}

void SketchSnapshot::add_gauge(const std::string& key, double value) {
  slot<GaugeStat>(key).add(value);
}

void SketchSnapshot::add_histogram(const std::string& key,
                                   const HdrHistogram& hist) {
  slot<SparseHist>(key).merge(SparseHist(hist));
}

void SketchSnapshot::merge(const SketchSnapshot& other) {
  if (other.empty()) return;
  if (empty()) {
    state_ = other.state_;  // adopt: share the map and its size memo
    return;
  }
  // Holding other's map keeps it alive and, when it is our own (a.merge(a)
  // or a merge with a copy of a), makes mutable_series() clone, so the
  // walk below reads an unmodified original.
  const std::shared_ptr<const State> src = other.state_;
  auto& series = mutable_series();
  // Both maps iterate in key order, so one synchronized walk suffices:
  // amortized O(1) per series instead of an O(log n) string-keyed lookup
  // for every merged key. This is the hot loop of the aggregation tree
  // (12k leaves x hundreds of series per fig11 flush).
  auto it = series.begin();
  for (const auto& [key, value] : src->series) {
    int order = 1;  // one string compare per step: <0 advance, 0 match
    while (it != series.end() && (order = it->first.compare(key)) < 0) ++it;
    if (order == 0) {
      merge_value(key, it->second, value);  // aborts on a kind clash
      ++it;
    } else {
      it = series.emplace_hint(it, key, value);
      ++it;
    }
  }
}

Bytes SketchSnapshot::encoded_bytes() const {
  if (state_ == nullptr) return 16;  // frame header only
  const Bytes memo = state_->encoded_bytes.load(std::memory_order_relaxed);
  if (memo >= 0) return memo;
  // Wire model: 16-byte frame header; per series the key string plus a
  // 1-byte kind tag and 2-byte length; counters are one f64, gauges the
  // 4-field statistic, histograms a 24-byte header plus a sparse
  // (varint bucket index ~ 2 bytes, count ~ 8 bytes) pair per non-empty
  // bucket plus under/overflow/total/sum/min/max in the header.
  const auto payload = Overloaded{
      [](double) -> Bytes { return 8; },
      [](const GaugeStat&) -> Bytes { return 32; },
      [](const SparseHist& hist) -> Bytes {
        const auto& head = hist.header();
        const std::size_t buckets = hist.entries().size() +
                                    (head.underflow > 0 ? 1 : 0) +
                                    (head.overflow > 0 ? 1 : 0);
        return 24 + 10 * static_cast<Bytes>(buckets);
      }};
  Bytes total = 16;
  for (const auto& [key, value] : state_->series) {
    total += static_cast<Bytes>(key.size()) + 3 + std::visit(payload, value);
  }
  state_->encoded_bytes.store(total, std::memory_order_relaxed);
  return total;
}

std::uint64_t SketchSnapshot::digest() const {
  check::Digest d;
  const auto fold_value = Overloaded{
      [&](double counter) { d.fold_bits(counter); },
      [&](const GaugeStat& gauge) {
        d.fold_bits(gauge.sum);
        d.fold_bits(gauge.min);
        d.fold_bits(gauge.max);
        d.fold(gauge.count);
      },
      [&](const SparseHist& hist) {
        d.fold(hist.total());
        d.fold_bits(hist.sum());
        for (const auto& b : hist.dense().nonzero_buckets()) {
          d.fold_bits(b.lo);
          d.fold(b.count);
        }
      }};
  for (const auto& [key, value] : series()) {
    d.fold(std::string_view(key));
    d.fold(static_cast<std::uint64_t>(value.index()));  // the MetricKind
    std::visit(fold_value, value);
  }
  return d.value();
}

SketchSnapshot SketchSnapshot::from(const MetricsSnapshot& snapshot) {
  SketchSnapshot out;
  for (const auto& s : snapshot.samples) {
    const std::string key = s.name + encode_labels(s.labels);
    switch (s.kind) {
      case MetricKind::kCounter: out.add_counter(key, s.value); break;
      case MetricKind::kGauge: out.add_gauge(key, s.value); break;
      case MetricKind::kHistogram: out.add_histogram(key, s.hist); break;
    }
  }
  return out;
}

namespace {

bool same(double a, double b, double rel_tol) {
  if (a == b) return true;  // covers +/-inf sentinels in empty gauges
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= rel_tol * scale;
}

bool same(const GaugeStat& a, const GaugeStat& b, double rel_tol) {
  return a.count == b.count && same(a.sum, b.sum, rel_tol) &&
         same(a.min, b.min, rel_tol) && same(a.max, b.max, rel_tol);
}

bool same(const SparseHist& a, const SparseHist& b, double rel_tol) {
  const auto& ha = a.header();
  const auto& hb = b.header();
  if (ha.total != hb.total || ha.underflow != hb.underflow ||
      ha.overflow != hb.overflow) {
    return false;
  }
  if (!same(ha.sum, hb.sum, rel_tol)) return false;
  if (ha.total > 0 && (ha.min != hb.min || ha.max != hb.max)) return false;
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].index != eb[i].index || ea[i].count != eb[i].count) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool approx_same(const SketchSnapshot& a, const SketchSnapshot& b,
                 double rel_tol) {
  if (a.series().size() != b.series().size()) return false;
  auto ia = a.series().begin();
  auto ib = b.series().begin();
  for (; ia != a.series().end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
    const SketchValue& vb = ib->second;
    if (ia->second.index() != vb.index()) return false;
    const bool agree = std::visit(
        [&](const auto& va) {
          return same(va, *std::get_if<std::decay_t<decltype(va)>>(&vb),
                      rel_tol);
        },
        ia->second);
    if (!agree) return false;
  }
  return true;
}

}  // namespace ms::telemetry
