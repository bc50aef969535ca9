// msprof — the simulator self-profiling workflow as a CLI (library half).
//
//   msprof run <workload> [--top K] [--repeat N] [--json out.jsonl]
//                         [--trace out.json] [--prom out.prom]
//       profile a named workload; print the ranked hot-spot table and
//       optionally write the JSONL report, a Perfetto self-trace (track =
//       the simulator process) and a Prometheus exposition snapshot
//   msprof report <profile.jsonl> [--top K]
//       re-render a stored profile artifact
//   msprof diff <base.jsonl> <cand.jsonl> [--top K]
//       compare two profiles scope-by-scope (the before/after view for
//       ROADMAP item-2 hot-loop work)
//   msprof overhead [--workload W] [--repeat N] [--budget F]
//       measure the enabled-vs-dormant cost of MS_PROF on a workload;
//       exits nonzero when it exceeds the budget (default 3%)
//   msprof list
//       named workloads
//
// The entry point takes argv-style strings and writes to caller-supplied
// streams — tests drive it exactly like the shell does (msdiag pattern).
//
// The workload functions are public so bench/micro_engine.cpp runs the
// EXACT code `msprof run micro_engine` profiles — the gated baseline and
// the profiler agree on what "the engine hot loop" means.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ms::prof {

/// Deterministic outcome of one workload run (wall time excluded on
/// purpose: everything here must be bit-identical run to run).
struct WorkloadResult {
  std::uint64_t events = 0;          // engine events executed
  std::uint64_t scheduled = 0;       // event ids issued
  std::uint64_t cancelled = 0;       // events tombstoned before firing
  std::uint64_t tombstone_pops = 0;  // heap pops wasted on tombstones
  std::uint64_t peak_queue = 0;      // queue-depth high-water mark
  std::uint64_t engine_digest = 0;   // sim::Engine execution digest
};

/// The micro_engine workload: pure sim::Engine churn with three phases —
/// self-rescheduling chains (micro.churn), a deep pre-seeded queue
/// (micro.fanout) and a cancel-heavy pattern (micro.cancel). This is the
/// ROADMAP item-2 baseline workload: BENCH_micro_engine.json gates its
/// events/sec and allocations/event.
struct MicroEngineConfig {
  int chains = 8;            // concurrent self-rescheduling chains
  int chain_events = 150000;  // events per chain
  int fanout_events = 300000;  // pre-seeded queue depth
  int cancel_events = 200000;  // scheduled then half cancelled
};
WorkloadResult run_micro_engine(const MicroEngineConfig& cfg = {});

/// One Megatron-LM step of the 530B model at Figure 9's largest point
/// (11,200 GPUs, pp 35 x vpp 3, 280 microbatches): the biggest step graph
/// any bench builds, so graph build and event loop dominate.
WorkloadResult run_fig9_step();

/// One steady-state MegaScale step at Figure-11 scale (12288 GPUs).
WorkloadResult run_fig11_step();

/// The Figure-11 production-run pipeline: steady step, fault-schedule
/// draw, robust-training replay, run ledger, aggregation-tree flush —
/// each phase under its own fig11.* profiler scope.
WorkloadResult run_fig11_production();

/// The two congestion-control runs one chaos `pfc-storm` fault makes at
/// intensity 1.0: the 32-sender single-hop incast with halved PFC
/// thresholds, then the 16-sender victim chain under a fabric observatory.
WorkloadResult run_cc_storm();

/// Names accepted by run_workload / `msprof run` / `msprof overhead`.
std::vector<std::string> workload_names();

/// Runs a workload by name. Returns false for an unknown name.
bool run_workload(const std::string& name, WorkloadResult& out);

/// Runs one msprof command. Returns a process exit code (0 = success,
/// 1 = bad usage / failed load / budget exceeded).
int msprof_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

/// Usage text (also printed on bad invocations).
std::string msprof_usage();

}  // namespace ms::prof
