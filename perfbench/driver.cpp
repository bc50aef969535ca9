// perfbench_driver: the closed-loop client behind perfbench/run.py.
//
// One client on one thread asks the simulator for an answer, waits for it,
// checks it against the values recorded in perfbench/expected/, and asks
// for the next. Only calls into the layers' public functions are timed;
// nothing under src/ is changed. See perfbench/NOTES.md for the workloads
// and the metrics built from what this binary prints.
//
//   perfbench_driver run --workload W --inputs F --expected F --seconds S
//                        --trace 0|1 [--setup-only] [--spans F]
//   perfbench_driver record --workload W --out F
//
// `run` reads the input list run.py generated from its seed (first line:
// the warm-up answer; then rounds separated by blank lines), sets up,
// answers one untimed warm-up, then answers whole rounds until at least S
// timed seconds have passed. With --trace 1 every round runs twice, once
// untraced and once traced (alternating which goes first), and the traced
// pass records a span around every public call, written to --spans at
// exit. The last stdout line is one JSON object of raw timings.
//
// `record` answers every input the workload can be given and writes the
// expected values the checks compare against.
#include <time.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "calib/fit.h"
#include "calib/ingest.h"
#include "chaos/campaign.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "core/rng.h"
#include "diag/blame.h"
#include "engine/job.h"
#include "engine/perturb.h"
#include "ft/faults.h"
#include "ft/workflow.h"
#include "plan/planner.h"
#include "prof/profiler.h"
#include "telemetry/aggregator.h"
#include "telemetry/exporters.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"
#include "telemetry/trace.h"

using namespace ms;

namespace {

// ------------------------------------------------------------------ clocks

/// CLOCK_MONOTONIC, the clock Python's time.monotonic_ns() reads, so run.py
/// can measure set-up from before it generated the inputs.
std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// VmHWM / VmRSS of this process in KiB (0 when /proc is unavailable).
long proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtol(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ----------------------------------------------------------- traced spans

/// Profiler scopes that already exist inside src/; the traced run reads
/// their deltas across each benchmark span (per-layer sim/net numbers).
constexpr std::array<const char*, 9> kProfScopes = {
    "engine.simulate_iteration", "engine.run",          "engine.run_until",
    "engine.pop",                "ccsim.run",           "flowsim.run",
    "telemetry.agg_flush",       "telemetry.ledger_finalize",
    "ft.run_robust_training"};

struct ProfPoint {
  std::array<std::uint64_t, kProfScopes.size()> count{};
  std::array<std::uint64_t, kProfScopes.size()> total_ns{};
  std::uint64_t allocs = 0;
};

ProfPoint prof_point() {
  ProfPoint p;
  for (const auto& s : prof::snapshot()) {
    for (std::size_t i = 0; i < kProfScopes.size(); ++i) {
      if (s.name == kProfScopes[i]) {
        p.count[i] = s.count;
        p.total_ns[i] = s.total_ns;
      }
    }
  }
  p.allocs = prof::alloc_count();
  return p;
}

struct Span {
  const char* name = "";
  int answer = -1;  // -1: set-up
  int parent = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::vector<std::pair<const char*, double>> attrs;
  bool profiled = false;
  ProfPoint prof;  // delta across the span when profiled
};

/// In-memory span store of the traced run; off (one branch) otherwise.
struct Recorder {
  bool on = false;
  int answer = -1;
  int current = -1;
  int last_closed = -1;
  std::vector<Span> spans;
};
Recorder g_rec;

/// Attaches a value to the span that closed last (for values measured
/// after the call, outside its span).
void annotate_last(const char* key, double value) {
  if (g_rec.on && g_rec.last_closed >= 0) {
    g_rec.spans[static_cast<std::size_t>(g_rec.last_closed)].attrs.emplace_back(
        key, value);
  }
}

/// RAII span around one public call. `profiled` spans also carry the
/// profiler-scope deltas (skipped on the 12,288 per-rank submit spans).
class SpanScope {
 public:
  explicit SpanScope(const char* name, bool profiled = true) {
    if (!g_rec.on) return;
    id_ = static_cast<int>(g_rec.spans.size());
    Span s;
    s.name = name;
    s.answer = g_rec.answer;
    s.parent = g_rec.current;
    s.profiled = profiled;
    if (profiled) s.prof = prof_point();
    g_rec.spans.push_back(std::move(s));
    g_rec.current = id_;
    g_rec.spans[static_cast<std::size_t>(id_)].start = mono_ns();
  }
  ~SpanScope() {
    if (id_ < 0) return;
    Span& s = g_rec.spans[static_cast<std::size_t>(id_)];
    s.end = mono_ns();
    if (s.profiled) {
      const ProfPoint now = prof_point();
      for (std::size_t i = 0; i < kProfScopes.size(); ++i) {
        s.prof.count[i] = now.count[i] - s.prof.count[i];
        s.prof.total_ns[i] = now.total_ns[i] - s.prof.total_ns[i];
      }
      s.prof.allocs = now.allocs - s.prof.allocs;
    }
    g_rec.current = s.parent;
    g_rec.last_closed = id_;
  }
  void attr(const char* key, double value) {
    if (id_ >= 0) {
      g_rec.spans[static_cast<std::size_t>(id_)].attrs.emplace_back(key,
                                                                    value);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_ = -1;
};

bool write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < g_rec.spans.size(); ++i) {
    const Span& s = g_rec.spans[i];
    out << "{\"id\":" << i << ",\"answer\":" << s.answer
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end;
    if (!s.attrs.empty()) {
      out << ",\"attrs\":{";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        out << (a ? "," : "") << '"' << s.attrs[a].first
            << "\":" << exact(s.attrs[a].second);
      }
      out << '}';
    }
    if (s.profiled) {
      out << ",\"prof\":{";
      for (std::size_t p = 0; p < kProfScopes.size(); ++p) {
        out << (p ? "," : "") << '"' << kProfScopes[p] << "\":["
            << s.prof.count[p] << ',' << s.prof.total_ns[p] << ']';
      }
      out << "},\"allocs\":" << s.prof.allocs;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

// -------------------------------------------------------- expected values

/// key -> field -> value, one line per key: "key field=value ...".
using Expected = std::map<std::string, std::map<std::string, std::string>>;

bool load_expected(const std::string& path, Expected& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, kv;
    fields >> key;
    auto& row = out[key];
    while (fields >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return false;
      row[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  return !out.empty();
}

/// Collects "field: got X, want Y" mismatches for one answer.
class Checker {
 public:
  Checker(const Expected& expected, const std::string& key) {
    auto it = expected.find(key);
    if (it == expected.end()) {
      fail("no expected values for " + key);
    } else {
      row_ = &it->second;
    }
  }
  void equal(const char* field, const std::string& got) {
    if (row_ == nullptr) return;
    auto it = row_->find(field);
    if (it == row_->end()) {
      fail(std::string("no expected ") + field);
    } else if (it->second != got) {
      fail(std::string(field) + ": got " + got + ", want " + it->second);
    }
  }
  void require(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    if (!msg_.empty()) msg_ += "; ";
    msg_ += what;
  }
  const std::string& message() const { return msg_; }

 private:
  const std::map<std::string, std::string>* row_ = nullptr;
  std::string msg_;
};

// ---------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Parses one generated input line into an answer index.
  virtual bool parse(const std::string& line, std::size_t& index) = 0;
  /// Lazily built state a user pays once per process.
  virtual void setup() {}
  /// One answer (timed).
  virtual void run(std::size_t index) = 0;
  /// Compares the last answer with the recorded values (untimed); returns
  /// "" on success.
  virtual std::string check(std::size_t index, const Expected& expected) = 0;
  /// Frees what the last answer kept for its check (untimed).
  virtual void release() {}
  /// Writes the expected values of every input this workload accepts.
  virtual void record(std::ostream& out) = 0;
};

// --- scaling_sweep --------------------------------------------------------

constexpr std::uint64_t kFoldRoot = 0xC1D5;
constexpr int kFoldSeeds = 4;

/// One paper configuration; the JobConfig is built at set-up, because
/// building it prices the fabric (plan::fabric_network_efficiency).
struct SweepConfig {
  std::string name;
  bool b175 = true;
  bool megascale = false;
  int gpus = 0;
  int batch = 0;
  engine::JobConfig job() const {
    if (b175) {
      return megascale ? bench::megascale_175b(gpus, batch)
                       : bench::megatron_175b(gpus, batch);
    }
    return megascale ? bench::megascale_530b(gpus, batch)
                     : bench::megatron_530b(gpus, batch);
  }
};

/// Table 2 (175B) and Figure 9 (530B), each as Megatron-LM and MegaScale.
std::vector<SweepConfig> sweep_grid() {
  std::vector<SweepConfig> grid;
  auto add = [&](bool b175, int gpus, int batch) {
    const std::string model = b175 ? "175b" : "530b";
    const std::string size = std::to_string(gpus);
    grid.push_back({model + "-megatron-" + size, b175, false, gpus, batch});
    grid.push_back({model + "-megascale-" + size, b175, true, gpus, batch});
  };
  for (int gpus : {256, 512, 768, 1024}) add(true, gpus, 768);
  for (int gpus : {3072, 6144, 8192, 12288}) add(true, gpus, 6144);
  for (int replicas : {4, 8, 16, 24, 32, 40}) {
    add(false, replicas * 280, replicas * 280);
  }
  return grid;
}

/// Bytes IterationResult::spans holds: the records plus their heap strings.
double span_bytes(const std::vector<sim::OpRecord>& spans) {
  const auto heap = [](const std::string& s) {
    return s.capacity() > 15 ? static_cast<double>(s.capacity() + 1) : 0.0;
  };
  double bytes = static_cast<double>(spans.capacity() * sizeof(sim::OpRecord));
  for (const auto& r : spans) {
    bytes += heap(r.name) + heap(r.tag) + heap(r.detail);
  }
  return bytes;
}

/// What one scaling_sweep answer is checked on.
struct SweepAnswer {
  TimeNs base_iter = 0;
  double base_mfu = 0;
  TimeNs iter = 0;
  double mfu = 0;
};

/// The fleet's machine-speed sample folded onto one iteration, exactly as
/// bench::run_with_cluster does it (that helper hides the base result).
engine::StragglerFold fold_with_cluster(const engine::IterationResult& base,
                                        const engine::JobConfig& cfg,
                                        std::uint64_t seed) {
  SpanScope span("engine.fold_stragglers");
  engine::StragglerPopulation pop;
  pop.slow_fraction = 0.005;
  pop.slow_factor = 1.10;
  pop.jitter_sigma = 0.01;
  Rng rng(seed);
  const auto speeds = engine::sample_machine_speeds(
      cfg.gpus() / cfg.cluster.gpus_per_node, pop, rng);
  return engine::fold_stragglers(base, cfg, speeds);
}

/// engine::simulate_iteration + fold_stragglers, as bench::run_with_cluster
/// composes them for the Table 2 / Figure 9 benches.
SweepAnswer sweep_answer(const engine::JobConfig& cfg, std::uint64_t seed) {
  SweepAnswer a;
  engine::IterationResult base;
  {
    SpanScope span("engine.simulate_iteration");
    base = engine::simulate_iteration(cfg);
    span.attr("ops", static_cast<double>(base.spans.size()));
  }
  if (g_rec.on) annotate_last("spans_bytes", span_bytes(base.spans));
  const auto fold = fold_with_cluster(base, cfg, seed);
  a.base_iter = base.iteration_time;
  a.base_mfu = base.mfu;
  a.iter = fold.iteration_time;
  a.mfu = fold.mfu;
  // Dropping the per-op spans is part of the answer's engine cost.
  SpanScope span("engine.free_result");
  base = engine::IterationResult{};
  return a;
}

class ScalingSweep final : public Workload {
 public:
  bool parse(const std::string& line, std::size_t& index) override {
    // "<config>#<fold seed index>"
    const auto hash = line.find('#');
    if (hash == std::string::npos) return false;
    const std::string name = line.substr(0, hash);
    const int k = std::atoi(line.c_str() + hash + 1);
    if (k < 0 || k >= kFoldSeeds) return false;
    for (std::size_t c = 0; c < grid_.size(); ++c) {
      if (grid_[c].name == name) {
        index = inputs_.size();
        inputs_.push_back({c, k, line});
        return true;
      }
    }
    return false;
  }
  void setup() override {
    // The fabric-efficiency ECMP cache: one CLOS analysis per job size.
    std::set<int> sizes;
    for (const auto& c : grid_) sizes.insert(c.gpus);
    for (int gpus : sizes) {
      SpanScope span("plan.fabric_network_efficiency");
      plan::fabric_network_efficiency(gpus);
    }
    jobs_.clear();
    for (const auto& c : grid_) jobs_.push_back(c.job());
  }
  void run(std::size_t index) override {
    const Input& in = inputs_[index];
    last_ = sweep_answer(jobs_[in.config], fold_seed(in.fold));
  }
  std::string check(std::size_t index, const Expected& expected) override {
    Checker c(expected, inputs_[index].key);
    c.equal("base_iter_ns", std::to_string(last_.base_iter));
    c.equal("base_mfu", exact(last_.base_mfu));
    c.equal("iter_ns", std::to_string(last_.iter));
    c.equal("mfu", exact(last_.mfu));
    return c.message();
  }
  void record(std::ostream& out) override {
    for (const auto& c : grid_) {
      const engine::JobConfig job = c.job();
      for (int k = 0; k < kFoldSeeds; ++k) {
        const auto a = sweep_answer(job, fold_seed(k));
        out << c.name << '#' << k << " base_iter_ns=" << a.base_iter
            << " base_mfu=" << exact(a.base_mfu) << " iter_ns=" << a.iter
            << " mfu=" << exact(a.mfu) << '\n';
      }
    }
  }

 private:
  struct Input {
    std::size_t config;
    int fold;
    std::string key;
  };
  static std::uint64_t fold_seed(int k) {
    return derive_seed(kFoldRoot, "perfbench.fold",
                       static_cast<std::uint64_t>(k));
  }
  std::vector<SweepConfig> grid_ = sweep_grid();
  std::vector<engine::JobConfig> jobs_;
  std::vector<Input> inputs_;
  SweepAnswer last_;
};

// --- trace_diagnose -------------------------------------------------------

/// The sec43 gauntlet's fixture job (175B, tp8 pp8 vpp6 dp4, batch 256).
engine::JobConfig diag_fixture_config() {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.par.tp = 8;
  cfg.par.pp = 8;
  cfg.par.vpp = 6;
  cfg.par.dp = 4;
  cfg.global_batch = 256;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

struct DiagCase {
  std::string kind;  // "straggler" | "slow-link"
  int injected = 0;  // rank (straggler) or sending stage (slow-link)
  double factor = 1;
  std::string key() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s:%d:%g", kind.c_str(), injected,
                  factor);
    return buf;
  }
};

/// The seven seeded fixtures the sec43 blame gauntlet scores top-1 on.
const std::vector<DiagCase>& diag_cases() {
  static const std::vector<DiagCase> cases = {
      {"straggler", 1, 1.5}, {"straggler", 3, 2.0}, {"straggler", 5, 2.0},
      {"straggler", 6, 3.0}, {"slow-link", 0, 16.0}, {"slow-link", 2, 16.0},
      {"slow-link", 4, 16.0},
  };
  return cases;
}

bool top1_correct(const DiagCase& c, const diag::StepDiagnosis& d) {
  if (d.blame.empty()) return false;
  const auto& top = d.blame.front();
  if (c.kind == "straggler") {
    return top.cause == diag::SegmentKind::kStragglerWait &&
           top.rank == c.injected;
  }
  return top.cause == diag::SegmentKind::kSlowLink &&
         top.link.rfind(std::to_string(c.injected) + "->", 0) == 0;
}

struct DiagAnswer {
  std::size_t traced_spans = 0;
  std::size_t ingested_spans = 0;
  bool ingest_ok = false;
  diag::StepDiagnosis diagnosis;
  calib::CalibrationReport calibration;
};

/// Post-mortem of one step: trace it, export the trace, read the export
/// back, blame the step, fit the cost model to it.
DiagAnswer diag_answer(const DiagCase& c) {
  DiagAnswer a;
  const engine::JobConfig base = diag_fixture_config();
  engine::JobConfig cfg = base;
  const auto pp = static_cast<std::size_t>(cfg.par.pp);
  if (c.kind == "straggler") {
    cfg.stage_speed.assign(pp, 1.0);
    cfg.stage_speed[static_cast<std::size_t>(c.injected)] = c.factor;
  } else {
    cfg.overlap.pp_decouple = false;  // expose the link (Megatron-style PP)
    cfg.link_speed.assign(pp, 1.0);
    cfg.link_speed[static_cast<std::size_t>(c.injected)] = c.factor;
  }
  telemetry::Tracer tracer;
  telemetry::MetricsRegistry registry;
  cfg.tracer = &tracer;
  cfg.metrics = &registry;
  {
    SpanScope span("engine.simulate_iteration");
    const auto result = engine::simulate_iteration(cfg);
    span.attr("ops", static_cast<double>(result.spans.size()));
  }
  a.traced_spans = tracer.size();
  // Span JSONL, the format `msdiag calibrate --emit` writes. The one-line
  // Chrome trace telemetry::chrome_trace emits is not usable here:
  // calib::detect_trace_format takes a single-line JSON object for span
  // JSONL, and ingest_trace then returns zero spans without an error.
  std::string text;
  {
    SpanScope span("telemetry.jsonl_spans");
    text = telemetry::jsonl_spans(tracer.spans());
    span.attr("bytes", static_cast<double>(text.size()));
  }
  calib::IngestResult ingested;
  {
    SpanScope span("calib.ingest_trace");
    std::string error;
    a.ingest_ok = calib::ingest_trace(text, ingested, error);
    span.attr("bytes", static_cast<double>(text.size()));
    span.attr("skipped_events",
              static_cast<double>(ingested.skipped_events));
  }
  a.ingested_spans = ingested.spans.size();
  {
    SpanScope span("diag.analyze_spans");
    a.diagnosis = diag::analyze_spans(ingested.spans);
    span.attr("spans", static_cast<double>(ingested.spans.size()));
  }
  annotate_last("top1_correct", top1_correct(c, a.diagnosis) ? 1 : 0);
  {
    SpanScope span("calib.fit_trace");
    a.calibration = calib::fit_trace(ingested.spans, base);
    int degenerate = a.calibration.ops.degenerate ? 1 : 0;
    for (const auto& f : a.calibration.coll) degenerate += f.degenerate;
    span.attr("degenerate_fits", degenerate);
  }
  return a;
}

class TraceDiagnose final : public Workload {
 public:
  bool parse(const std::string& line, std::size_t& index) override {
    const auto& cases = diag_cases();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].key() == line) {
        index = i;
        return true;
      }
    }
    return false;
  }
  void run(std::size_t index) override {
    last_ = diag_answer(diag_cases()[index]);
  }
  std::string check(std::size_t index, const Expected& expected) override {
    const DiagCase& c = diag_cases()[index];
    Checker k(expected, c.key());
    k.require(top1_correct(c, last_.diagnosis),
              "top-1 blame is not the injected " + c.kind);
    k.require(last_.ingest_ok, "ingest_trace failed on the exported trace");
    k.require(last_.ingested_spans == last_.traced_spans,
              "ingested " + std::to_string(last_.ingested_spans) +
                  " spans of " + std::to_string(last_.traced_spans));
    k.equal("spans", std::to_string(last_.traced_spans));
    k.equal("diag_digest", hex(last_.diagnosis.digest));
    k.equal("calib_digest", hex(last_.calibration.digest));
    return k.message();
  }
  void release() override { last_ = DiagAnswer{}; }
  void record(std::ostream& out) override {
    for (const auto& c : diag_cases()) {
      const DiagAnswer a = diag_answer(c);
      if (!top1_correct(c, a.diagnosis)) {
        std::fprintf(stderr, "record: %s is not blamed top-1\n",
                     c.key().c_str());
      }
      out << c.key() << " spans=" << a.traced_spans
          << " diag_digest=" << hex(a.diagnosis.digest)
          << " calib_digest=" << hex(a.calibration.digest) << '\n';
    }
  }

 private:
  DiagAnswer last_;
};

// --- production_replay ----------------------------------------------------

constexpr int kProdGpus = 12288;
constexpr int kProdBatch = 6144;
constexpr int kFaultSeeds = 8;
constexpr int kSketchPool = 16;
constexpr std::uint64_t kProdRoot = 0xF11;

struct LedgerAnswer {
  ft::RunReport report;
  telemetry::LedgerSeries series;
};

/// 56-day robust-training replay and its Figure-11 ledger for fault-seed k.
LedgerAnswer ledger_answer(const engine::StragglerFold& fold,
                           const engine::JobConfig& job,
                           telemetry::MetricsRegistry* metrics, int k) {
  const TimeNs duration = days(56.0);
  LedgerAnswer a;
  ft::WorkflowConfig wf;
  wf.nodes = kProdGpus / 8;
  wf.metrics = metrics;
  {
    SpanScope span("ft.run_robust_training");
    Rng fault_rng(derive_seed(kProdRoot, "perfbench.faults",
                              static_cast<std::uint64_t>(k)));
    const auto fails =
        ft::draw_fault_schedule(duration, hours(9.0), wf.nodes,
                                ft::default_fault_mix(), fault_rng);
    Rng run_rng(derive_seed(kProdRoot, "perfbench.run",
                            static_cast<std::uint64_t>(k)));
    a.report = ft::run_robust_training(wf, duration, fails, run_rng);
    span.attr("restarts", a.report.restarts);
  }
  SpanScope span("telemetry.ledger");
  telemetry::LedgerConfig lcfg;
  lcfg.duration = duration;
  lcfg.interval = hours(6.0);
  telemetry::RunLedger ledger(lcfg);
  telemetry::SteadyState steady;
  steady.step_time = fold.iteration_time;
  steady.mfu = fold.mfu;
  steady.tokens_per_second =
      job.tokens_per_iteration() / to_seconds(fold.iteration_time);
  ledger.set_steady_state(steady);
  ledger.ingest(a.report, wf.checkpoint_interval);
  a.series = ledger.finalize();
  return a;
}

class ProductionReplay final : public Workload {
 public:
  bool parse(const std::string& line, std::size_t& index) override {
    // "faults#<k> <rank-assignment seed>"
    unsigned long long assign = 0;
    int k = -1;
    if (std::sscanf(line.c_str(), "faults#%d %llu", &k, &assign) != 2 ||
        k < 0 || k >= kFaultSeeds) {
      return false;
    }
    index = inputs_.size();
    inputs_.push_back({k, assign});
    return true;
  }
  void setup() override {
    {
      SpanScope span("plan.fabric_network_efficiency");
      job_ = bench::megascale_175b(kProdGpus, kProdBatch);
    }
    // Distinct per-rank snapshots: each is a registry filled by one step
    // with its own seeded per-stage speed jitter.
    SpanScope span("telemetry.sketch_pool");
    pool_.clear();
    for (int p = 0; p < kSketchPool; ++p) {
      telemetry::MetricsRegistry registry;
      engine::JobConfig cfg = job_;
      cfg.metrics = &registry;
      Rng rng(derive_seed(kProdRoot, "perfbench.sketch_pool",
                          static_cast<std::uint64_t>(p)));
      cfg.stage_speed.resize(static_cast<std::size_t>(cfg.par.pp));
      for (auto& s : cfg.stage_speed) s = rng.uniform(1.0, 1.06);
      engine::simulate_iteration(cfg);
      pool_.push_back(telemetry::SketchSnapshot::from(registry.snapshot()));
    }
  }
  void run(std::size_t index) override {
    const Input& in = inputs_[index];
    telemetry::MetricsRegistry registry;
    telemetry::Tracer tracer;
    engine::JobConfig cfg = job_;
    cfg.metrics = &registry;
    cfg.tracer = &tracer;
    engine::IterationResult base;
    {
      SpanScope span("engine.simulate_iteration");
      base = engine::simulate_iteration(cfg);
      span.attr("ops", static_cast<double>(base.spans.size()));
    }
    const auto fold = fold_with_cluster(base, cfg, kFoldRoot);
    ledger_ = ledger_answer(fold, cfg, &registry, in.faults);
    telemetry::SketchSnapshot own;
    {
      SpanScope span("telemetry.snapshot");
      own = telemetry::SketchSnapshot::from(registry.snapshot());
    }
    telemetry::AggTreeConfig acfg;
    acfg.ranks = kProdGpus;
    acfg.ranks_per_host = cfg.cluster.gpus_per_node;
    acfg.hosts_per_pod = 32;
    acfg.cluster = cfg.cluster;
    acfg.network_efficiency = cfg.network_efficiency;
    {
      SpanScope span("telemetry.aggregation_tree");
      tree_ = std::make_unique<telemetry::AggregationTree>(acfg);
    }
    // Rank 0 ships this answer's own registry; every other rank ships a
    // pool snapshot chosen by the input's assignment seed.
    Rng assign(in.assign);
    std::vector<int> uses(kSketchPool, 0);
    std::vector<int> pick(static_cast<std::size_t>(kProdGpus), -1);
    for (int r = 1; r < kProdGpus; ++r) {
      pick[static_cast<std::size_t>(r)] =
          static_cast<int>(assign.uniform_index(kSketchPool));
    }
    double sketch_bytes = 0;
    {
      SpanScope group("telemetry.submit_all");
      for (int r = 0; r < kProdGpus; ++r) {
        const int p = pick[static_cast<std::size_t>(r)];
        const auto& sketch = p < 0 ? own : pool_[static_cast<std::size_t>(p)];
        if (g_rec.on) {
          sketch_bytes += static_cast<double>(sketch.encoded_bytes());
          if (p >= 0) ++uses[static_cast<std::size_t>(p)];
        }
        SpanScope span("telemetry.submit", false);
        tree_->submit(r, sketch);
      }
      if (g_rec.on) {
        int shared = 0;
        for (int u : uses) shared += u > 1 ? u : 0;
        group.attr("sketch_bytes", sketch_bytes / kProdGpus);
        group.attr("shared_sketch_frac",
                   static_cast<double>(shared) / kProdGpus);
        group.attr("rss_mb", proc_status_kb("VmRSS:") / 1024.0);
      }
    }
    SpanScope span("telemetry.flush");
    const auto flush = tree_->flush();
    span.attr("bytes", static_cast<double>(flush.network_bytes +
                                           flush.intra_bytes));
  }
  std::string check(std::size_t index, const Expected& expected) override {
    const Input& in = inputs_[index];
    Checker c(expected, "faults#" + std::to_string(in.faults));
    c.equal("ledger_digest", hex(ledger_.series.digest));
    c.equal("restarts", std::to_string(ledger_.report.restarts));
    const double closure = std::abs(ledger_.series.totals.ettr -
                                    ledger_.report.effective_time_ratio);
    c.require(closure <= 0.01,
              "ledger/ft ETTR closure " + exact(closure) + " > 0.01");
    c.require(telemetry::approx_same(tree_->root(), tree_->flat_merge()),
              "aggregation root differs from the flat-merge oracle");
    return c.message();
  }
  void release() override {
    tree_.reset();
    ledger_ = LedgerAnswer{};
  }
  void record(std::ostream& out) override {
    job_ = bench::megascale_175b(kProdGpus, kProdBatch);
    const auto base = engine::simulate_iteration(job_);
    const auto fold = fold_with_cluster(base, job_, kFoldRoot);
    for (int k = 0; k < kFaultSeeds; ++k) {
      const auto a = ledger_answer(fold, job_, nullptr, k);
      out << "faults#" << k << " ledger_digest=" << hex(a.series.digest)
          << " restarts=" << a.report.restarts << '\n';
    }
  }

 private:
  struct Input {
    int faults;
    std::uint64_t assign;
  };
  engine::JobConfig job_;
  std::vector<telemetry::SketchSnapshot> pool_;
  std::vector<Input> inputs_;
  LedgerAnswer ledger_;
  std::unique_ptr<telemetry::AggregationTree> tree_;
};

// --- chaos_campaign -------------------------------------------------------

constexpr std::uint64_t kChaosRoot = 0xC4A05;
constexpr int kChaosSeeds = 16;

class ChaosCampaign final : public Workload {
 public:
  bool parse(const std::string& line, std::size_t& index) override {
    // "<scenario>#<seed index>"
    const auto hash = line.find('#');
    if (hash == std::string::npos) return false;
    const chaos::Scenario* s = chaos::find_scenario(line.substr(0, hash));
    const int k = std::atoi(line.c_str() + hash + 1);
    if (s == nullptr || k < 0 || k >= kChaosSeeds) return false;
    index = inputs_.size();
    inputs_.push_back({s, k, line});
    return true;
  }
  void setup() override {
    SpanScope span("chaos.reference_step_time");
    chaos::reference_step_time();
  }
  void run(std::size_t index) override {
    const Input& in = inputs_[index];
    {
      SpanScope span("chaos.run_scenario");
      record_ = chaos::run_scenario(cfg_, *in.scenario, seed(in.seed));
    }
    SpanScope span("chaos.evaluate_outcome");
    verdict_ = chaos::evaluate_outcome(cfg_, record_);
    span.attr("oracle_failures", verdict_.pass ? 0 : 1);
  }
  std::string check(std::size_t index, const Expected& expected) override {
    Checker c(expected, inputs_[index].key);
    c.equal("record_digest", hex(record_.record_digest));
    c.equal("oracle_pass", verdict_.pass ? "1" : "0");
    c.require(record_.record_digest == chaos::compute_record_digest(record_),
              "record digest does not match the record's fields");
    return c.message();
  }
  void record(std::ostream& out) override {
    for (const auto& s : chaos::scenarios()) {
      for (int k = 0; k < kChaosSeeds; ++k) {
        const auto rec = chaos::run_scenario(cfg_, s, seed(k));
        const auto verdict = chaos::evaluate_outcome(cfg_, rec);
        out << s.name << '#' << k << " record_digest="
            << hex(rec.record_digest)
            << " oracle_pass=" << (verdict.pass ? 1 : 0) << '\n';
      }
    }
  }

 private:
  struct Input {
    const chaos::Scenario* scenario;
    int seed;
    std::string key;
  };
  static std::uint64_t seed(int k) {
    return derive_seed(kChaosRoot, "chaos.campaign",
                       static_cast<std::uint64_t>(k));
  }
  chaos::ChaosConfig cfg_;
  std::vector<Input> inputs_;
  chaos::OutcomeRecord record_;
  chaos::OracleVerdict verdict_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "scaling_sweep") return std::make_unique<ScalingSweep>();
  if (name == "trace_diagnose") return std::make_unique<TraceDiagnose>();
  if (name == "production_replay") return std::make_unique<ProductionReplay>();
  if (name == "chaos_campaign") return std::make_unique<ChaosCampaign>();
  return nullptr;
}

// ------------------------------------------------------- host reference

volatile std::uint64_t g_sink = 0;

/// Ordered-map inserts, heap strings and random updates of a 256 KiB
/// table: the kinds of work the simulator does, at a fixed size. Lives in
/// the benchmark, so no change under src/ can speed it up or slow it down.
void reference_kernel() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 15);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::map<std::uint32_t, std::uint64_t> m;
  std::string text;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[static_cast<std::uint32_t>(x & 0xFFFF)] += i;
    if (i % 4 == 0) text += std::to_string(x);
  }
  for (std::uint64_t i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += i;
  }
  g_sink = g_sink + m.size() + text.size() + table[x & 1023];
}

/// Wall ns of the reference kernel's second back-to-back run (so what an
/// answer left in the caches does not matter). Sampled between answers,
/// never inside one; run.py scales answer times by the host speed it
/// shows (NOTES.md, "Host-speed normalisation").
std::int64_t reference_ns() {
  reference_kernel();
  const std::int64_t t0 = mono_ns();
  reference_kernel();
  return mono_ns() - t0;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string mode, workload, inputs, expected, spans, out;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--inputs") a.inputs = value;
    else if (flag == "--expected") a.expected = value;
    else if (flag == "--spans") a.spans = value;
    else if (flag == "--out") a.out = value;
    else if (flag == "--seconds") a.seconds = std::atof(value.c_str());
    else if (flag == "--trace") a.trace = value == "1";
    else return false;
  }
  return !a.workload.empty();
}

/// Input list: the warm-up line, then rounds separated by blank lines.
bool load_inputs(const std::string& path, Workload& w, std::size_t& warmup,
                 std::vector<std::vector<std::size_t>>& rounds) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line) || !w.parse(line, warmup)) return false;
  rounds.emplace_back();
  while (std::getline(in, line)) {
    if (line.empty()) {
      if (!rounds.back().empty()) rounds.emplace_back();
      continue;
    }
    std::size_t index = 0;
    if (!w.parse(line, index)) {
      std::fprintf(stderr, "perfbench: bad input line '%s'\n", line.c_str());
      return false;
    }
    rounds.back().push_back(index);
  }
  if (rounds.back().empty()) rounds.pop_back();
  return !rounds.empty();
}

struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::vector<std::int64_t> untraced_ns;
  std::vector<std::int64_t> traced_ns;
  std::int64_t timed_ns = 0;
  /// Answer start times and (time, ns) reference samples, for run.py.
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> ref_at_ns;
  std::vector<std::int64_t> ref_ns;
  std::int64_t since_ref_ns = 0;
};

/// A reference sample per 10 ms of answers (see reference_ns).
void sample_reference(Tally& t) {
  t.ref_at_ns.push_back(mono_ns());
  t.ref_ns.push_back(reference_ns());
  t.since_ref_ns = 0;
}

/// One answer: timed run, then the untimed check and release.
void answer(Workload& w, std::size_t index, const Expected& expected,
            bool traced, Tally& t) {
  std::string failure;
  std::int64_t dur = 0;
  if (t.since_ref_ns >= 10000000) sample_reference(t);
  if (traced) {
    prof::set_enabled(true);
    g_rec.on = true;
    g_rec.answer = static_cast<int>(t.traced_ns.size());
  }
  std::int64_t t0 = 0;
  try {
    SpanScope root("answer");
    t0 = mono_ns();
    w.run(index);
    dur = mono_ns() - t0;
  } catch (const std::exception& e) {
    dur = mono_ns() - t0;
    failure = std::string("exception: ") + e.what();
  }
  if (!traced) t.start_ns.push_back(t0);
  g_rec.on = false;
  prof::set_enabled(false);
  if (failure.empty()) failure = w.check(index, expected);
  w.release();
  ++t.attempted;
  t.timed_ns += dur;
  t.since_ref_ns += dur;
  (traced ? t.traced_ns : t.untraced_ns).push_back(dur);
  if (!failure.empty()) {
    ++t.failed;
    if (t.failures.size() < 5) t.failures.push_back(failure);
  }
}

void print_int_list(const char* key, const std::vector<std::int64_t>& v) {
  std::printf(",\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%lld", i ? "," : "", static_cast<long long>(v[i]));
  }
  std::printf("]");
}

int run(const Args& args) {
  const std::int64_t start = mono_ns();
  auto w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Expected expected;
  if (!load_expected(args.expected, expected)) {
    std::fprintf(stderr, "perfbench: cannot read expected values %s\n",
                 args.expected.c_str());
    return 2;
  }
  std::size_t warmup = 0;
  std::vector<std::vector<std::size_t>> rounds;
  if (!load_inputs(args.inputs, *w, warmup, rounds)) {
    std::fprintf(stderr, "perfbench: cannot read inputs %s\n",
                 args.inputs.c_str());
    return 2;
  }

  // Set-up: lazily built state plus one untimed warm-up answer (checked,
  // and counted in attempted/failed).
  Tally tally;
  g_rec.on = args.trace;
  prof::set_enabled(args.trace);
  w->setup();
  g_rec.on = false;
  prof::set_enabled(false);
  answer(*w, warmup, expected, false, tally);
  tally.untraced_ns.clear();
  tally.start_ns.clear();
  tally.timed_ns = 0;
  const std::int64_t ready = mono_ns();
  // Host speed right after set-up (normalises setup_s and the first answers).
  for (int i = 0; i < 5; ++i) sample_reference(tally);

  if (!args.setup_only) {
    // Whole rounds until the timed budget is spent, so every seed weighs
    // each input class equally; the deadline bounds a run on a slow host.
    const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t deadline =
        ready + static_cast<std::int64_t>((3 * args.seconds + 30) * 1e9);
    for (std::size_t r = 0; tally.timed_ns < budget && mono_ns() < deadline;
         ++r) {
      const auto& round = rounds[r % rounds.size()];
      for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
        const bool traced = args.trace && (pass == 0) == (r % 2 == 1);
        for (std::size_t index : round) {
          answer(*w, index, expected, traced, tally);
        }
      }
    }
  }

  if (args.trace && !args.spans.empty() && !write_spans(args.spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans %s\n",
                 args.spans.c_str());
    return 2;
  }
  for (const auto& f : tally.failures) {
    std::fprintf(stderr, "perfbench: failed answer: %s\n", f.c_str());
  }
  std::printf("{\"start_ns\":%lld,\"ready_ns\":%lld,\"attempted\":%ld,"
              "\"failed\":%ld,\"peak_rss_kb\":%ld",
              static_cast<long long>(start), static_cast<long long>(ready),
              tally.attempted, tally.failed, proc_status_kb("VmHWM:"));
  print_int_list("untraced_ns", tally.untraced_ns);
  print_int_list("traced_ns", tally.traced_ns);
  print_int_list("start_ns", tally.start_ns);
  print_int_list("ref_at_ns", tally.ref_at_ns);
  print_int_list("ref_ns", tally.ref_ns);
  std::printf("}\n");
  return tally.failed == 0 ? 0 : 1;
}

int record(const Args& args) {
  auto w = make_workload(args.workload);
  std::ofstream out(args.out);
  if (!w || !out) return 2;
  out << "# perfbench expected values for " << args.workload
      << " (perfbench_driver record)\n";
  w->record(out);
  return out ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver run|record --workload W ...\n");
    return 2;
  }
  if (args.mode == "run") return run(args);
  if (args.mode == "record") return record(args);
  std::fprintf(stderr, "perfbench: unknown mode %s\n", args.mode.c_str());
  return 2;
}
