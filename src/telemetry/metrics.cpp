#include "telemetry/metrics.h"

#include <algorithm>
#include <type_traits>

#include "core/fatal.h"

namespace ms::telemetry {

namespace {
Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}
}  // namespace

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string encode_labels(const Labels& labels) {
  if (labels.empty()) return "";
  const Labels canon = canonical(labels);
  std::string out = "{";
  for (std::size_t i = 0; i < canon.size(); ++i) {
    if (i) out += ',';
    out += canon[i].first;
    out += "=\"";
    out += canon[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

const MetricSample* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  const Labels want = canonical(labels);
  for (const auto& s : samples) {
    if (s.name == name && s.labels == want) return &s;
  }
  return nullptr;
}

template <class T>
T& MetricsRegistry::cell(const std::string& name, const Labels& labels) {
  Labels canon = canonical(labels);
  const std::string key = name + '|' + encode_labels(canon);
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (T* typed = std::get_if<T>(&it->second->value)) return *typed;
    fatal("metric '%s' re-registered as a different kind", name.c_str());
  }
  Cell& c = cells_.emplace_back(name, std::move(canon), std::in_place_type<T>);
  index_.emplace(key, &c);
  return std::get<T>(c.value);
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return cell<Counter>(name, labels);
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return cell<Gauge>(name, labels);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  return cell<Histogram>(name, labels);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(cells_.size());
  for (const auto& c : cells_) {
    MetricSample s;
    s.name = c.name;
    s.labels = c.labels;
    s.kind = static_cast<MetricKind>(c.value.index());
    std::visit(
        [&s](const auto& v) {
          if constexpr (std::is_same_v<decltype(v), const Histogram&>) {
            s.hist = v.snapshot();
          } else {
            s.value = v.value();
          }
        },
        c.value);
    snap.samples.push_back(std::move(s));
  }
  // Surface histogram range overflow as a first-class counter: a sample
  // past kRangeHi still counts toward total() but lands in no sized
  // bucket, so tail quantiles clamp silently. One synthetic series per
  // overflowing histogram cell makes that loss observable downstream
  // (Prometheus, dashboard) instead of a quiet lie.
  for (const auto& c : cells_) {
    const auto* histogram = std::get_if<Histogram>(&c.value);
    if (histogram == nullptr) continue;
    const HdrHistogram h = histogram->snapshot();
    if (h.overflow_count() == 0) continue;
    MetricSample o;
    o.name = "telemetry_sketch_overflow_total";
    o.labels = c.labels;
    o.labels.emplace_back("metric", c.name);
    std::sort(o.labels.begin(), o.labels.end());
    o.kind = MetricKind::kCounter;
    o.value = static_cast<double>(h.overflow_count());
    snap.samples.push_back(std::move(o));
  }
  return snap;
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& c : cells_) {
    std::visit([](auto& value) { value.reset(); }, c.value);
  }
}

std::size_t MetricsRegistry::series_count() const {
  MutexLock lock(mu_);
  return cells_.size();
}

}  // namespace ms::telemetry
