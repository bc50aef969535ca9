#include "prof/msprof.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>

#include "bench/common.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/time.h"
#include "core/wallclock.h"
#include "engine/job.h"
#include "ft/workflow.h"
#include "net/ccsim.h"
#include "net/fabric/observatory.h"
#include "prof/profiler.h"
#include "prof/report.h"
#include "prof/telemetry_bridge.h"
#include "sim/engine.h"
#include "telemetry/aggregator.h"
#include "telemetry/exporters.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace ms::prof {

namespace {

// Figure-11 shape (mirrors bench/fig11_production_run.cpp).
constexpr int kFig11Gpus = 12288;
constexpr int kFig11Batch = 6144;
// Figure 9's largest point: 40 replicas of tp 8 x pp 35, batch = GPUs.
constexpr int kFig9Gpus = 11200;

WorkloadResult result_from(const sim::Engine& eng) {
  WorkloadResult r;
  r.events = eng.executed();
  r.scheduled = eng.scheduled();
  r.cancelled = eng.cancelled();
  r.tombstone_pops = eng.tombstone_pops();
  r.peak_queue = eng.peak_queue_size();
  r.engine_digest = eng.digest();
  return r;
}

}  // namespace

WorkloadResult run_micro_engine(const MicroEngineConfig& cfg) {
  sim::Engine eng;

  // Phase 1: self-rescheduling chains — the steady-state DES pattern
  // (every handler schedules its successor; queue stays shallow).
  {
    MS_PROF_SCOPE("micro.churn");
    struct Chain {
      sim::Engine* eng = nullptr;
      int remaining = 0;
      std::function<void()> tick;
    };
    std::vector<std::unique_ptr<Chain>> chains;
    for (int c = 0; c < cfg.chains; ++c) {
      chains.push_back(std::make_unique<Chain>());
      Chain* ch = chains.back().get();
      ch->eng = &eng;
      ch->remaining = cfg.chain_events;
      ch->tick = [ch] {
        if (--ch->remaining > 0) ch->eng->after(1, ch->tick);
      };
      eng.after(1, ch->tick);
    }
    eng.run();
  }

  // Phase 2: fan-out — a deep pre-seeded queue (worst-case heap depth).
  {
    MS_PROF_SCOPE("micro.fanout");
    const TimeNs base = eng.now();
    for (int i = 0; i < cfg.fanout_events; ++i) {
      eng.at(base + 1 + i, [] {});
    }
    eng.run();
  }

  // Phase 3: cancel-heavy — every other event tombstoned, so the run
  // pays the pop-and-skip price of O(1) cancellation.
  {
    MS_PROF_SCOPE("micro.cancel");
    const TimeNs base = eng.now();
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(cfg.cancel_events));
    for (int i = 0; i < cfg.cancel_events; ++i) {
      ids.push_back(eng.at(base + 1 + i, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) eng.cancel(ids[i]);
    eng.run();
  }

  return result_from(eng);
}

WorkloadResult run_fig11_step() {
  MS_PROF_SCOPE("fig11.steady_step");
  auto job = bench::megascale_175b(kFig11Gpus, kFig11Batch);
  const auto fold = bench::run_with_cluster(job);
  (void)fold;
  return {};
}

WorkloadResult run_fig9_step() {
  MS_PROF_SCOPE("fig9.step");
  const auto result =
      engine::simulate_iteration(bench::megatron_530b(kFig9Gpus, kFig9Gpus));
  (void)result;
  return {};
}

WorkloadResult run_fig11_production() {
  const TimeNs duration = days(56.0);
  const TimeNs mtbf = hours(9.0);
  telemetry::MetricsRegistry registry;

  engine::JobConfig job;
  engine::StragglerFold fold;
  {
    MS_PROF_SCOPE("fig11.steady_step");
    job = bench::megascale_175b(kFig11Gpus, kFig11Batch);
    job.metrics = &registry;
    fold = bench::run_with_cluster(job);
  }

  ft::WorkflowConfig wf;
  std::vector<ft::FaultEvent> fails;
  {
    MS_PROF_SCOPE("fig11.fault_schedule");
    wf.nodes = kFig11Gpus / 8;
    wf.metrics = &registry;
    Rng fault_rng(0xF11);
    fails = ft::draw_fault_schedule(duration, mtbf, wf.nodes,
                                    ft::default_fault_mix(), fault_rng);
  }

  ft::RunReport report;
  {
    MS_PROF_SCOPE("fig11.ft_replay");
    Rng run_rng(0xF12);
    report = ft::run_robust_training(wf, duration, fails, run_rng);
  }

  {
    MS_PROF_SCOPE("fig11.ledger");
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
    ledger.ingest(report, wf.checkpoint_interval);
    const auto series = ledger.finalize();
    (void)series;
  }

  {
    MS_PROF_SCOPE("fig11.agg_tree");
    telemetry::AggTreeConfig acfg;
    acfg.ranks = kFig11Gpus;
    acfg.ranks_per_host = job.cluster.gpus_per_node;
    acfg.hosts_per_pod = 32;
    acfg.cluster = job.cluster;
    acfg.network_efficiency = job.network_efficiency;
    telemetry::AggregationTree tree(acfg);
    const auto rank_sketch =
        telemetry::SketchSnapshot::from(registry.snapshot());
    // Mirror the bench: the host leader rank ships the fabric observatory
    // sketch next to its rank metrics (see bench/fig11_production_run.cpp).
    net::fabric::FabricObservatory fabric_obs;
    net::MultiCcParams fparams = net::victim_params(8);
    fparams.observatory = &fabric_obs;
    net::run_multi_cc_sim(fparams,
                          [] { return std::make_unique<net::Dcqcn>(); });
    auto leader_sketch = rank_sketch;
    leader_sketch.merge(fabric_obs.sketch());
    for (int r = 0; r < acfg.ranks; ++r) {
      tree.submit(
          r, r % acfg.ranks_per_host == 0 ? leader_sketch : rank_sketch);
    }
    const auto flush = tree.flush();
    (void)flush;
    // Steady-state flush intervals after the cold full flush: a rank only
    // re-submits when its sketch content changed, so each interval sees a
    // sparse dirty set (1/32 of hosts here) and the tree's dirty-subtree
    // short-circuit skips the rest.
    for (int interval = 1; interval <= 4; ++interval) {
      for (int host = interval % 32; host < tree.hosts(); host += 32) {
        tree.submit(host * acfg.ranks_per_host, leader_sketch);
      }
      const auto inc = tree.flush();
      (void)inc;
    }
  }
  return {};
}

WorkloadResult run_cc_storm() {
  // Mirrors run_storm and localize_storm in src/chaos/runner.cpp.
  net::CcSimParams incast;
  incast.senders = 32;
  incast.duration_s = 0.02;
  incast.pfc_pause *= 0.5;
  incast.pfc_resume = incast.pfc_pause * 0.8;
  (void)net::run_cc_sim(incast, [] { return std::make_unique<net::Dcqcn>(); });
  net::fabric::FabricObservatory obs;
  net::MultiCcParams chain = net::victim_params(16);
  chain.observatory = &obs;
  (void)net::run_multi_cc_sim(chain,
                              [] { return std::make_unique<net::Dcqcn>(); });
  return {};
}

std::vector<std::string> workload_names() {
  return {"micro_engine", "fig9_step", "fig11_step", "fig11_production_run",
          "cc_storm"};
}

bool run_workload(const std::string& name, WorkloadResult& out) {
  if (name == "micro_engine") {
    out = run_micro_engine();
    return true;
  }
  if (name == "fig9_step") {
    out = run_fig9_step();
    return true;
  }
  if (name == "fig11_step") {
    out = run_fig11_step();
    return true;
  }
  if (name == "fig11_production_run") {
    out = run_fig11_production();
    return true;
  }
  if (name == "cc_storm") {
    out = run_cc_storm();
    return true;
  }
  return false;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

bool load_report(const std::string& path, ProfileReport& report,
                 std::ostream& err) {
  std::string text;
  if (!read_file(path, text)) {
    err << "msprof: cannot read " << path << "\n";
    return false;
  }
  std::string problem;
  if (!parse_jsonl(text, report, &problem)) {
    err << "msprof: " << path << ": " << problem << "\n";
    return false;
  }
  return true;
}

/// Engine events fired during the profiled window, recovered from the
/// engine's own attribution scopes (workloads that drive sim::Engine
/// indirectly cannot reach the instance to ask it).
std::uint64_t events_from_scopes(const ProfileReport& report) {
  std::uint64_t events = 0;
  for (const ScopeStats& s : report.scopes) {
    if (s.name == "engine.event" || s.name.rfind("event.", 0) == 0) {
      events += s.count;
    }
  }
  return events;
}

int run_usage(std::ostream& err) {
  err << "usage: msprof run <workload> [--top K] [--repeat N]\n"
         "                  [--json out.jsonl] [--trace out.json] [--prom "
         "out.prom]\n";
  return 1;
}

int run_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::string workload;
  std::string json_path, trace_path, prom_path;
  std::size_t top_k = 20;
  int repeat = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const char* {
      return (i + 1 < args.size()) ? args[++i].c_str() : nullptr;
    };
    if (arg == "--top") {
      const char* v = value();
      if (!v) return run_usage(err);
      top_k = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--repeat") {
      const char* v = value();
      if (!v) return run_usage(err);
      repeat = std::atoi(v);
    } else if (arg == "--json") {
      const char* v = value();
      if (!v) return run_usage(err);
      json_path = v;
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return run_usage(err);
      trace_path = v;
    } else if (arg == "--prom") {
      const char* v = value();
      if (!v) return run_usage(err);
      prom_path = v;
    } else if (workload.empty() && !arg.empty() && arg[0] != '-') {
      workload = arg;
    } else {
      return run_usage(err);
    }
  }
  if (workload.empty() || repeat < 1) return run_usage(err);

  reset();
  set_enabled(true);
  if (!trace_path.empty()) set_tracing(true);
  WorkloadResult result;
  const WallNs t0 = wallclock_ns();
  for (int r = 0; r < repeat; ++r) {
    if (!run_workload(workload, result)) {
      set_enabled(false);
      set_tracing(false);
      err << "msprof: unknown workload '" << workload
          << "' (try `msprof list`)\n";
      return 1;
    }
  }
  const WallNs wall = wallclock_ns() - t0;
  set_enabled(false);
  set_tracing(false);

  ProfileReport report = capture(workload, wall, 0);
  report.events = result.events != 0
                      ? result.events * static_cast<std::uint64_t>(repeat)
                      : events_from_scopes(report);
  out << report.render(top_k);
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(report.digest()));
  out << "profile digest: 0x" << digest_hex << " (structural: scope names + "
      << "counts only)\n";
  if (result.scheduled != 0) {
    out << "engine: scheduled "
        << Table::fmt_int(static_cast<long long>(result.scheduled))
        << " | executed "
        << Table::fmt_int(static_cast<long long>(result.events))
        << " | cancelled "
        << Table::fmt_int(static_cast<long long>(result.cancelled))
        << " | tombstone pops "
        << Table::fmt_int(static_cast<long long>(result.tombstone_pops))
        << " | peak queue "
        << Table::fmt_int(static_cast<long long>(result.peak_queue)) << "\n";
  }

  int failures = 0;
  if (!json_path.empty()) {
    if (write_file(json_path, report.to_jsonl())) {
      out << "wrote " << json_path << " (profile JSONL)\n";
    } else {
      err << "msprof: cannot write " << json_path << "\n";
      ++failures;
    }
  }
  if (!trace_path.empty()) {
    std::uint64_t dropped = 0;
    const auto events = drain_trace(&dropped);
    if (write_file(trace_path, to_chrome_trace(events, dropped))) {
      out << "wrote " << trace_path << " (" << events.size()
          << " self-trace spans";
      if (dropped != 0) out << ", " << dropped << " dropped";
      out << "; load in ui.perfetto.dev)\n";
    } else {
      err << "msprof: cannot write " << trace_path << "\n";
      ++failures;
    }
  }
  if (!prom_path.empty()) {
    telemetry::MetricsRegistry registry;
    export_profile(report, registry);
    if (write_file(prom_path, telemetry::prometheus_text(registry.snapshot()))) {
      out << "wrote " << prom_path << " (Prometheus exposition)\n";
    } else {
      err << "msprof: cannot write " << prom_path << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int report_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  std::string path;
  std::size_t top_k = 20;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = static_cast<std::size_t>(std::atoi(args[++i].c_str()));
    } else if (path.empty()) {
      path = args[i];
    } else {
      err << "usage: msprof report <profile.jsonl> [--top K]\n";
      return 1;
    }
  }
  if (path.empty()) {
    err << "usage: msprof report <profile.jsonl> [--top K]\n";
    return 1;
  }
  ProfileReport report;
  if (!load_report(path, report, err)) return 1;
  out << report.render(top_k);
  return 0;
}

int diff_main(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::vector<std::string> paths;
  std::size_t top_k = 20;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = static_cast<std::size_t>(std::atoi(args[++i].c_str()));
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) {
    err << "usage: msprof diff <base.jsonl> <cand.jsonl> [--top K]\n";
    return 1;
  }
  ProfileReport base, cand;
  if (!load_report(paths[0], base, err)) return 1;
  if (!load_report(paths[1], cand, err)) return 1;
  out << render_diff(base, cand, top_k);
  return 0;
}

int overhead_main(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  std::string workload = "fig11_production_run";
  int repeat = 3;
  double budget = 0.03;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const char* {
      return (i + 1 < args.size()) ? args[++i].c_str() : nullptr;
    };
    if (arg == "--workload") {
      const char* v = value();
      if (!v) return 1;
      workload = v;
    } else if (arg == "--repeat") {
      const char* v = value();
      if (!v) return 1;
      repeat = std::atoi(v);
    } else if (arg == "--budget") {
      const char* v = value();
      if (!v) return 1;
      budget = std::atof(v);
    } else {
      err << "usage: msprof overhead [--workload W] [--repeat N] [--budget "
             "F]\n";
      return 1;
    }
  }
  if (repeat < 1) repeat = 1;

  WorkloadResult result;
  if (!run_workload(workload, result)) {  // also serves as the warm-up run
    err << "msprof: unknown workload '" << workload
        << "' (try `msprof list`)\n";
    return 1;
  }

  // Alternate dormant/enabled rounds (instead of two blocks) so slow host
  // drift hits both sides equally; compare best-of-N, the standard way to
  // estimate the cost floor under scheduling noise.
  WallNs best_off = std::numeric_limits<WallNs>::max();
  WallNs best_on = std::numeric_limits<WallNs>::max();
  std::uint64_t digest_off = 0, digest_on = 0;
  for (int r = 0; r < repeat; ++r) {
    set_enabled(false);
    WallNs t0 = wallclock_ns();
    run_workload(workload, result);
    best_off = std::min(best_off, wallclock_ns() - t0);
    digest_off = result.engine_digest;

    set_enabled(true);
    reset();
    t0 = wallclock_ns();
    run_workload(workload, result);
    best_on = std::min(best_on, wallclock_ns() - t0);
    digest_on = result.engine_digest;
  }
  set_enabled(false);

  const double overhead =
      best_off > 0 ? static_cast<double>(best_on - best_off) /
                         static_cast<double>(best_off)
                   : 0.0;
  constexpr double kNsPerMs = 1'000'000.0;
  out << "profiler overhead on " << workload << " (best of " << repeat
      << "):\n"
      << "  dormant " << Table::fmt(static_cast<double>(best_off) / kNsPerMs, 2)
      << " ms | enabled "
      << Table::fmt(static_cast<double>(best_on) / kNsPerMs, 2) << " ms | "
      << "overhead " << Table::fmt_pct(overhead, 2) << " (budget "
      << Table::fmt_pct(budget, 2) << ")\n";
  if (digest_off != digest_on) {
    err << "msprof: FAIL — engine digest changed with profiling enabled "
           "(0x"
        << std::hex << digest_off << " vs 0x" << digest_on << std::dec
        << ")\n";
    return 1;
  }
  if (digest_off != 0) {
    out << "  engine digest identical with profiling on/off (0x" << std::hex
        << digest_off << std::dec << ")\n";
  }
  if (overhead > budget) {
    err << "msprof: FAIL — overhead " << Table::fmt_pct(overhead, 2)
        << " exceeds budget " << Table::fmt_pct(budget, 2) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

std::string msprof_usage() {
  std::string names;
  for (const std::string& n : workload_names()) {
    if (!names.empty()) names += " | ";
    names += n;
  }
  return "msprof — simulator self-profiling (where do the simulator's own "
         "nanoseconds go?)\n"
         "  msprof run <workload> [--top K] [--repeat N] [--json out.jsonl]\n"
         "                        [--trace out.json] [--prom out.prom]\n"
         "  msprof report <profile.jsonl> [--top K]\n"
         "  msprof diff <base.jsonl> <cand.jsonl> [--top K]\n"
         "  msprof overhead [--workload W] [--repeat N] [--budget F]\n"
         "  msprof list\n"
         "  workloads: " +
         names + "\n";
}

int msprof_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty() || args.front() == "--help" || args.front() == "-h") {
    err << msprof_usage();
    return args.empty() ? 1 : 0;
  }
  const std::string& cmd = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "run") return run_main(rest, out, err);
  if (cmd == "report") return report_main(rest, out, err);
  if (cmd == "diff") return diff_main(rest, out, err);
  if (cmd == "overhead") return overhead_main(rest, out, err);
  if (cmd == "list") {
    for (const std::string& n : workload_names()) out << n << "\n";
    return 0;
  }
  err << "msprof: unknown command '" << cmd << "'\n" << msprof_usage();
  return 1;
}

}  // namespace ms::prof
