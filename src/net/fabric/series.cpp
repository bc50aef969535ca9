#include "net/fabric/series.h"

#include <algorithm>
#include <cassert>

namespace ms::net::fabric {

LinkSeries::LinkSeries(TimeNs cadence, std::size_t capacity)
    : cadence_(cadence), capacity_(capacity) {
  assert(cadence_ > 0 && capacity_ > 0);
  ring_.reserve(capacity_);
}

LinkSample& LinkSeries::open_bucket(TimeNs at) {
  const TimeNs bucket = (at / cadence_) * cadence_;
  if (!ring_.empty()) {
    LinkSample& last = ring_[(head_ + ring_.size() - 1) % capacity_];
    // Same bucket, or a late note from a simulator sub-step: fold into the
    // open bucket — closed buckets are immutable.
    if (bucket <= last.bucket) return last;
  }
  LinkSample fresh;
  fresh.bucket = bucket;
  if (ring_.size() < capacity_) {
    ring_.push_back(fresh);
    return ring_.back();
  }
  // Ring full: overwrite the oldest bucket.
  LinkSample& slot = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  slot = fresh;
  ++dropped_;
  return slot;
}

void LinkSeries::note_tx(TimeNs at, double bytes) {
  open_bucket(at).tx_bytes += bytes;
}

void LinkSeries::note_queue(TimeNs at, double queue_bytes) {
  LinkSample& s = open_bucket(at);
  s.queue_peak_bytes = std::max(s.queue_peak_bytes, queue_bytes);
}

void LinkSeries::note_ecn(TimeNs at, double marks) {
  open_bucket(at).ecn_marks += marks;
}

void LinkSeries::note_pause(TimeNs at, TimeNs paused_for, int events) {
  LinkSample& s = open_bucket(at);
  s.pause_time += paused_for;
  s.pause_events += events;
}

void LinkSeries::note_active_flows(TimeNs at, int flows) {
  LinkSample& s = open_bucket(at);
  s.active_flows = std::max(s.active_flows, flows);
}

std::vector<LinkSample> LinkSeries::samples() const {
  std::vector<LinkSample> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

std::size_t LinkSeries::sample_count() const { return ring_.size(); }

double LinkSeries::total_tx_bytes() const {
  double total = 0;
  for (const auto& s : ring_) total += s.tx_bytes;
  return total;
}

TimeNs LinkSeries::total_pause_time() const {
  TimeNs total = 0;
  for (const auto& s : ring_) total += s.pause_time;
  return total;
}

double LinkSeries::total_ecn_marks() const {
  double total = 0;
  for (const auto& s : ring_) total += s.ecn_marks;
  return total;
}

void LinkSeries::fold_digest(check::Digest& digest) const {
  digest.fold(cadence_);
  digest.fold(static_cast<std::uint64_t>(dropped_));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const LinkSample& s = ring_[(head_ + i) % capacity_];
    digest.fold(s.bucket);
    digest.fold_bits(s.tx_bytes);
    digest.fold_bits(s.queue_peak_bytes);
    digest.fold_bits(s.ecn_marks);
    digest.fold(s.pause_time);
    digest.fold(static_cast<std::int64_t>(s.pause_events));
    digest.fold(static_cast<std::int64_t>(s.active_flows));
  }
}

}  // namespace ms::net::fabric
