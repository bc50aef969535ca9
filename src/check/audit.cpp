#include "check/audit.h"

#include <atomic>
#include <unordered_map>
#include <utility>

#include "core/fatal.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace ms::check {

struct Auditor::Impl {
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> abort_on_violation{false};

  mutable Mutex mu;
  // Keys are "domain\x1finvariant"; order preserved for snapshot() so the
  // first drift stays at the top of any report.
  std::unordered_map<std::string, std::size_t> index MS_GUARDED_BY(mu);
  std::vector<Violation> tallies MS_GUARDED_BY(mu);
  ViolationSink sink MS_GUARDED_BY(mu);
};

Auditor& Auditor::instance() {
  static Auditor auditor;
  return auditor;
}

Auditor::Impl& Auditor::impl() const {
  static Impl impl;
  return impl;
}

void Auditor::count_check() noexcept {
  impl().checks.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Auditor::report(const char* domain, const char* invariant,
                              std::string message) {
  Impl& im = impl();
  im.violations.fetch_add(1, std::memory_order_relaxed);

  Violation delivered;
  ViolationSink sink;
  {
    MutexLock lock(im.mu);
    std::string key = std::string(domain) + '\x1f' + invariant;
    auto [it, inserted] = im.index.emplace(std::move(key), im.tallies.size());
    if (inserted) {
      im.tallies.push_back(Violation{domain, invariant, "", 0});
    }
    Violation& v = im.tallies[it->second];
    v.message = std::move(message);
    ++v.count;
    delivered = v;
    sink = im.sink;
  }
  if (sink) sink(delivered);
  if (im.abort_on_violation.load(std::memory_order_relaxed)) {
    fatal("MS_AUDIT violation [%s/%s]: %s", delivered.domain.c_str(),
          delivered.invariant.c_str(), delivered.message.c_str());
  }
  return delivered.count;
}

std::uint64_t Auditor::checks() const noexcept {
  return impl().checks.load(std::memory_order_relaxed);
}

std::uint64_t Auditor::violations() const noexcept {
  return impl().violations.load(std::memory_order_relaxed);
}

std::uint64_t Auditor::violations(const std::string& domain,
                                  const std::string& invariant) const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.index.find(domain + '\x1f' + invariant);
  return it == im.index.end() ? 0 : im.tallies[it->second].count;
}

std::vector<Violation> Auditor::snapshot() const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  return im.tallies;
}

void Auditor::set_sink(ViolationSink sink) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  im.sink = std::move(sink);
}

void Auditor::set_abort_on_violation(bool abort_on_violation) {
  impl().abort_on_violation.store(abort_on_violation,
                                  std::memory_order_relaxed);
}

void Auditor::reset() {
  Impl& im = impl();
  im.checks.store(0, std::memory_order_relaxed);
  im.violations.store(0, std::memory_order_relaxed);
  MutexLock lock(im.mu);
  im.index.clear();
  im.tallies.clear();
}

}  // namespace ms::check
