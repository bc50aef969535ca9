// Reproduces Figure 11: a weeks-long production run of a multi-hundred-
// billion-parameter model on 10,000+ GPUs. The loss keeps converging while
// MegaScale's robust training framework repairs and recovers the job more
// than 100 times; >90% of faults are handled automatically and the
// effective-training-time ratio stays above 90%.
//
// This bench drives the full observability stack under a chaos schedule:
//   * ft::run_robust_training replays a production-shaped fail-stop
//     schedule (8 weeks, ~9 h cluster MTBF);
//   * extra chaos events — checkpoint-writer stalls, fabric link flaps and
//     silent stragglers — land on the same timeline;
//   * telemetry::RunLedger turns all of it into the per-interval
//     goodput/MFU/ETTR series of Figure 11 and must close with the ft
//     accounting to within 1%;
//   * a 12288-leaf telemetry::AggregationTree flushes the run's real
//     metric registry through the network cost model and must cost < 1%
//     of training bandwidth.
// Artifacts: fig11_ledger.jsonl (for `msdiag ledger`) and
// BENCH_fig11_production_run.json (for tools/bench_gate.py). Exits
// nonzero when a gate fails.
#include <cstdio>

#include <memory>

#include "bench/common.h"
#include "chaos/schedule.h"
#include "core/stats.h"
#include "core/table.h"
#include "diag/artifact.h"
#include "diag/blame.h"
#include "ft/workflow.h"
#include "net/ccsim.h"
#include "net/fabric/observatory.h"
#include "optim/trainer.h"
#include "telemetry/aggregator.h"
#include "telemetry/dashboard.h"
#include "telemetry/exporters.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"
#include "telemetry/trace.h"

using namespace ms;

namespace {

constexpr int kGpus = 12288;
constexpr int kBatch = 6144;
const TimeNs kDuration = days(56.0);  // eight weeks
const TimeNs kMtbf = hours(9.0);

/// Production-shaped chaos schedule: the ft fail-stop draw plus the event
/// classes the workflow does not model itself (extra checkpoint-writer
/// stalls, fabric link flaps, silent straggler windows).
chaos::FaultSchedule build_schedule(const std::vector<ft::FaultEvent>& fails,
                                    Rng& rng) {
  chaos::FaultSchedule sched;
  for (const auto& f : fails) {
    chaos::InjectedFault inj;
    inj.at = f.at;
    inj.kind = chaos::FaultKind::kFailStop;
    inj.node = f.node;
    inj.fail_type = f.type;
    sched.push_back(inj);
  }
  // Checkpoint-writer stalls: HDFS hiccups every ~4-5 days (§4.4).
  for (TimeNs t = hours(30.0); t < kDuration;
       t += hours(96.0) + seconds(rng.uniform(0.0, 24.0 * 3600.0))) {
    chaos::InjectedFault inj;
    inj.at = t;
    inj.kind = chaos::FaultKind::kCkptStall;
    inj.duration = minutes(rng.uniform(1.0, 4.0));
    sched.push_back(inj);
  }
  // Fabric link flaps: short stalls while routing converges (§3.6).
  for (TimeNs t = hours(12.0); t < kDuration;
       t += hours(110.0) + seconds(rng.uniform(0.0, 36.0 * 3600.0))) {
    chaos::InjectedFault inj;
    inj.at = t;
    inj.kind = chaos::FaultKind::kLinkFlap;
    inj.node = static_cast<int>(rng.next_u64() % 1536);
    inj.duration = seconds(rng.uniform(30.0, 300.0));
    sched.push_back(inj);
  }
  // Silent stragglers: one slow machine derates the whole job until the
  // §5.1 monitor catches it (~4 h observation window).
  for (TimeNs t = days(5.0); t < kDuration - hours(6.0);
       t += days(8.0) + seconds(rng.uniform(0.0, 3.0 * 24.0 * 3600.0))) {
    chaos::InjectedFault inj;
    inj.at = t;
    inj.kind = chaos::FaultKind::kStraggler;
    inj.node = static_cast<int>(rng.next_u64() % 1536);
    inj.duration = hours(4.0);
    inj.magnitude = rng.uniform(0.08, 0.20);
    sched.push_back(inj);
  }
  chaos::sort_schedule(sched);
  return sched;
}

}  // namespace

int main() {
  std::printf(
      "=== Figure 11: production run, >10,000 GPUs, several weeks ===\n\n");

  telemetry::MetricsRegistry registry;
  telemetry::TrainingDashboard dashboard(&registry);

  // ---- steady state: one traced MegaScale step (Table 2 conditions) ----
  auto job = bench::megascale_175b(kGpus, kBatch);
  job.metrics = &registry;
  telemetry::Tracer tracer;
  job.tracer = &tracer;
  const auto base = engine::simulate_iteration(job);
  const auto fold = bench::run_with_cluster(job);
  dashboard.record_step(job, base);
  const auto diagnosis = diag::analyze_spans(tracer.spans());
  dashboard.record_diagnosis(diagnosis);

  // ---- chaos schedule + robust-training replay ----
  ft::WorkflowConfig wf;
  wf.nodes = kGpus / 8;
  wf.metrics = &registry;
  Rng fault_rng(0xF11);
  const auto fails = ft::draw_fault_schedule(kDuration, kMtbf, wf.nodes,
                                             ft::default_fault_mix(),
                                             fault_rng);
  Rng chaos_rng(0xF14);
  const auto schedule = build_schedule(fails, chaos_rng);
  std::printf("chaos schedule: %zu events (digest 0x%016llx), e.g.\n",
              schedule.size(),
              static_cast<unsigned long long>(chaos::schedule_digest(schedule)));
  for (std::size_t i = 0; i < schedule.size() && i < 3; ++i) {
    std::printf("  %s\n", chaos::describe(schedule[i]).c_str());
  }
  Rng run_rng(0xF12);
  const auto report = ft::run_robust_training(wf, kDuration, fails, run_rng);
  dashboard.record_health(report);

  // ---- the run ledger: Figure 11 as a time series ----
  telemetry::LedgerConfig lcfg;
  lcfg.duration = kDuration;
  lcfg.interval = hours(6.0);
  telemetry::RunLedger ledger(lcfg);
  telemetry::SteadyState steady;
  steady.step_time = fold.iteration_time;
  steady.mfu = fold.mfu;
  steady.tokens_per_second =
      job.tokens_per_iteration() / to_seconds(fold.iteration_time);
  ledger.set_steady_state(steady);
  ledger.ingest(report, wf.checkpoint_interval);
  ledger.record_step_diagnosis(diagnosis);
  TimeNs extra_hard = 0;  // chaos charges the workflow didn't model
  for (const auto& inj : schedule) {
    switch (inj.kind) {
      case chaos::FaultKind::kCkptStall:
        ledger.add_lost(inj.at, inj.duration,
                        telemetry::LostCause::kCkptStall);
        extra_hard += inj.duration;
        break;
      case chaos::FaultKind::kLinkFlap:
        ledger.add_lost(inj.at, inj.duration,
                        telemetry::LostCause::kFabricStall);
        extra_hard += inj.duration;
        break;
      case chaos::FaultKind::kStraggler:
        ledger.add_slowdown(inj.at, inj.at + inj.duration,
                            1.0 + inj.magnitude,
                            telemetry::LostCause::kStraggler);
        break;
      default:
        break;  // fail-stops went through the workflow above
    }
  }
  const auto series = ledger.finalize();
  std::printf("\n%s\n", telemetry::render(series).c_str());

  // ---- loss trajectory driven by the ledger's goodput ----
  optim::ScalingLawLoss law(1.7, 12.0, 0.12, 1e9, 0xF13);
  Series loss_curve;
  loss_curve.name = "train loss";
  double tokens = 0;
  for (const auto& row : series.intervals) {
    tokens += row.goodput_tokens_per_second * to_seconds(row.end - row.begin);
    loss_curve.add(tokens / 1e12, law.loss_at(std::max(tokens, 1.0)));
  }
  std::printf("loss vs trillions of tokens:\n%s\n",
              ascii_chart({loss_curve}, 76, 12).c_str());

  // ---- aggregation tree: what does observing all this cost? ----
  telemetry::AggTreeConfig acfg;
  acfg.ranks = kGpus;
  acfg.ranks_per_host = job.cluster.gpus_per_node;
  acfg.hosts_per_pod = 32;
  acfg.cluster = job.cluster;
  acfg.network_efficiency = job.network_efficiency;
  telemetry::AggregationTree tree(acfg);
  const auto rank_sketch = telemetry::SketchSnapshot::from(registry.snapshot());
  // Each host's NIC daemon exports its local fabric series (per-link
  // utilization, queue depth, ECN and PFC counters from net/fabric)
  // alongside the rank metrics; a storm-shaped multi-hop run stands in for
  // one host's worth of link samples. The fabric sketch rides the host
  // leader rank's submission, so fabric sampling is charged against the
  // same <1% observability-overhead gate as everything else.
  net::fabric::FabricObservatory fabric_obs;
  {
    net::MultiCcParams fparams = net::victim_params(8);
    fparams.observatory = &fabric_obs;
    net::run_multi_cc_sim(fparams,
                          [] { return std::make_unique<net::Dcqcn>(); });
  }
  const auto fabric_sketch = fabric_obs.sketch();
  auto leader_sketch = rank_sketch;
  leader_sketch.merge(fabric_sketch);
  for (int r = 0; r < acfg.ranks; ++r) {
    tree.submit(r, r % acfg.ranks_per_host == 0 ? leader_sketch : rank_sketch);
  }
  const auto flush = tree.flush();
  Table at({"aggregation level", "senders", "bytes/flush", "stage latency"});
  for (const auto& level : flush.levels) {
    at.add_row({level.level, Table::fmt_int(level.senders),
                Table::fmt(static_cast<double>(level.bytes) / 1024.0, 1) + " KiB",
                format_duration(level.stage_latency)});
  }
  at.print();
  std::printf(
      "tree: %d hosts, %d pods; per-rank sketch %lld B; flush every %s\n"
      "propagation latency %s; per-host uplink %.3f MB/s = %.4f%% of "
      "training bandwidth\n\n",
      tree.hosts(), tree.pods(),
      static_cast<long long>(rank_sketch.encoded_bytes()),
      format_duration(acfg.flush_interval).c_str(),
      format_duration(flush.propagation_latency).c_str(),
      flush.per_host_uplink / 1e6, flush.overhead_fraction * 100.0);
  std::printf(
      "fabric observatory: %d links, %zu series, %lld B per host leader "
      "sketch\n\n",
      fabric_obs.link_count(), fabric_sketch.size(),
      static_cast<long long>(fabric_sketch.encoded_bytes()));

  std::printf("--- telemetry dashboard (per-step + heartbeat health) ---\n");
  std::printf("%s\n", dashboard.report().c_str());

  Table t({"metric", "simulated", "paper"});
  t.add_row({"duration", Table::fmt(to_days(kDuration), 0) + " days",
             "several weeks"});
  t.add_row({"tokens trained", Table::fmt(tokens / 1e12, 2) + "T",
             "multi-trillion"});
  t.add_row({"restarts", Table::fmt_int(report.restarts), "over 100"});
  t.add_row({"auto detected+fixed",
             Table::fmt_pct(report.auto_detected_fraction), "over 90%"});
  t.add_row({"effective training time",
             Table::fmt_pct(series.totals.ettr), "over 90%"});
  t.add_row({"telemetry overhead",
             Table::fmt_pct(flush.overhead_fraction, 3), "negligible"});
  t.print();

  // ---- artifacts ----
  const std::string ledger_path = "fig11_ledger.jsonl";
  if (!diag::write_text_file(ledger_path, telemetry::to_jsonl(series))) {
    std::fprintf(stderr, "fig11: cannot write %s\n", ledger_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu intervals; render with `msdiag ledger %s`)\n",
              ledger_path.c_str(), series.intervals.size(),
              ledger_path.c_str());

  // Perfetto-loadable trace of the steady-state step (the nightly job
  // uploads this next to the ledger, so a goodput regression comes with
  // the step timeline that produced the reference rate).
  const std::string trace_path = "fig11_step_trace.json";
  if (!diag::write_text_file(trace_path, telemetry::chrome_trace(tracer))) {
    std::fprintf(stderr, "fig11: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("wrote %s (steady-step Perfetto trace)\n", trace_path.c_str());

  bench::BenchReport br("fig11_production_run");
  br.config("gpus", kGpus);
  br.config("global_batch", kBatch);
  br.config("duration_days", to_days(kDuration));
  br.config("cluster_mtbf_hours", to_hours(kMtbf));
  br.config("flush_interval_ms", to_milliseconds(acfg.flush_interval));
  br.config("chaos_events", static_cast<double>(schedule.size()));
  br.metric("ettr", series.totals.ettr, 0.02);
  br.metric("goodput_fraction", series.totals.goodput_fraction, 0.02);
  br.metric("mfu_mean", series.totals.mfu_mean, 0.02);
  br.metric("restarts", report.restarts, 0.10);
  br.metric("auto_detected_fraction", report.auto_detected_fraction, 0.05);
  br.metric("tokens_trained_T", tokens / 1e12, 0.02);
  br.metric("telemetry_overhead_fraction", flush.overhead_fraction, 0.10);
  br.metric("agg_propagation_ms", to_milliseconds(flush.propagation_latency),
            0.10);
  br.info("ledger_intervals", static_cast<double>(series.intervals.size()));
  br.info("fabric_sketch_bytes",
          static_cast<double>(fabric_sketch.encoded_bytes()));

  // ---- gates ----
  int failures = 0;
  const double expected_ettr =
      report.effective_time_ratio -
      static_cast<double>(extra_hard) / static_cast<double>(kDuration);
  const double closure_err = std::abs(series.totals.ettr - expected_ettr);
  br.info("ettr_closure_error", closure_err);
  if (closure_err > 0.01) {
    std::fprintf(stderr,
                 "GATE FAIL: ledger ETTR %.6f vs ft accounting %.6f "
                 "(closure error %.6f > 0.01)\n",
                 series.totals.ettr, expected_ettr, closure_err);
    ++failures;
  }
  if (flush.overhead_fraction >= 0.01) {
    std::fprintf(stderr,
                 "GATE FAIL: telemetry overhead %.4f%% >= 1%% of training "
                 "bandwidth\n",
                 flush.overhead_fraction * 100.0);
    ++failures;
  }
  if (!br.write()) {
    std::fprintf(stderr, "fig11: cannot write BENCH artifact\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("gates: ledger/ft closure %.2e (<= 0.01), telemetry "
                "overhead %.4f%% (< 1%%) — OK\n",
                closure_err, flush.overhead_fraction * 100.0);
  }
  return failures == 0 ? 0 : 1;
}
