// End-to-end training-iteration simulator (the heart of the reproduction).
//
// One data-parallel replica — a pipeline of `pp` stage-GPUs, tensor
// parallelism folded into per-operator durations — is executed on the
// discrete-event GraphExecutor:
//   * compute kernels (model::OpCostModel) on a per-stage compute stream;
//   * pipeline point-to-point transfers on send/recv streams (or, when the
//     MegaScale PP overlap is off, blocking the compute stream — §3.2);
//   * ZeRO-2 parameter all-gathers / gradient reduce-scatters on a DP
//     communication stream, bucketed (Megatron-LM) or chunk-wise with
//     prefetch (MegaScale) — §3.2;
//   * TP/SP all-gather + reduce-scatter per layer, either serial on the
//     critical path or fused with the GEMMs via chunked pipelining — §3.2.
//
// Identical DP replicas execute in lockstep, so the replica's makespan is
// the iteration time of the whole job; stragglers that break that symmetry
// are layered on by engine/perturb.h.
#pragma once

#include <vector>

#include "collective/comm.h"
#include "core/time.h"
#include "model/ops.h"
#include "model/transformer.h"
#include "parallel/mapping.h"
#include "sim/graph.h"

namespace ms::telemetry {
class Tracer;
class MetricsRegistry;
}  // namespace ms::telemetry

namespace ms::engine {

/// Stream layout used by simulate_iteration: 4 streams per pipeline stage
/// (compute, send, recv, dp-comm) plus one trailing data-pipeline stream.
/// Consumers of IterationResult::spans (timelines, dashboards) use this to
/// fold streams back onto pipeline stages.
constexpr int kStreamsPerStage = 4;
constexpr int stage_of_stream(int stream) { return stream / kStreamsPerStage; }
constexpr bool is_compute_stream(int stream) {
  return stream % kStreamsPerStage == 0;
}

struct OverlapOptions {
  /// §3.2 TP/SP: fuse all-gather/reduce-scatter with FFN GEMM chunks.
  bool tp_overlap = false;
  int tp_overlap_chunks = 8;
  /// §3.2 PP: decouple send/recv, launch asynchronously on own streams.
  bool pp_decouple = false;
  /// §3.2 DP: chunk-wise all-gather prefetch / reduce-scatter issue with
  /// priority ordering, instead of bucketed barriers at iteration edges.
  bool dp_overlap = false;
  /// §3.4: asynchronous data preprocessing + tree-based loading (the
  /// exposed data-pipeline time at each step head shrinks).
  bool async_data_pipeline = false;

  static OverlapOptions megatron_lm() { return {}; }
  static OverlapOptions megascale() {
    OverlapOptions o;
    o.tp_overlap = true;
    o.pp_decouple = true;
    o.dp_overlap = true;
    o.async_data_pipeline = true;
    return o;
  }
};

enum class PipelineSchedule {
  kOneFOneB,  ///< classic or interleaved 1F1B, per par.vpp (the default)
  kGpipe,     ///< all-forward-then-all-backward (§2); requires vpp == 1
};

struct JobConfig {
  model::ModelConfig model;
  parallel::ParallelConfig par;
  model::OperatorProfile ops;
  collective::ClusterSpec cluster;
  OverlapOptions overlap;
  PipelineSchedule schedule = PipelineSchedule::kOneFOneB;
  /// Full activation recomputation: the backward pass re-runs the forward
  /// (≈+33% compute) but only layer-boundary activations are stored.
  /// The paper's setup uses selective recomputation (folded into operator
  /// efficiency) — this knob quantifies the alternative.
  bool full_recompute = false;
  /// Global batch in sequences; microbatch size is 1 sequence.
  int global_batch = 256;
  /// Effective fraction of nominal NIC bandwidth (ECMP conflicts, CC).
  double network_efficiency = 0.9;
  /// Data loading + preprocessing time per step when exposed (§3.4).
  TimeNs data_pipeline_time = milliseconds(250.0);
  /// Per-stage compute slowdown factors (straggler injection); empty means
  /// nominal speed. Size must equal par.pp when present.
  std::vector<double> stage_speed;
  /// Per-link p2p slowdown factors, indexed by the *sending* stage (the
  /// NIC that serializes the transfer). Models a degraded link / ECMP hash
  /// conflict on one pipeline hop (§3.6, §5.2); empty means nominal. Size
  /// must equal par.pp when present.
  std::vector<double> link_speed;
  /// Optional telemetry sinks (not owned). When `tracer` is set, every
  /// executed op is routed through it as a span (rank = pipeline stage);
  /// when `metrics` is set, per-op histograms, collective call/byte
  /// counters and iteration-level gauges are recorded.
  telemetry::Tracer* tracer = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;

  int gpus() const { return par.world(); }
  int microbatches_per_replica() const { return global_batch / par.dp; }
  double tokens_per_iteration() const {
    return static_cast<double>(global_batch) * model.seq_len;
  }
};

struct IterationBreakdown {
  TimeNs data_pipeline = 0;   // exposed data loading at step head
  TimeNs dp_exposed = 0;      // DP collectives not hidden by compute
  TimeNs optimizer = 0;
  TimeNs pipeline_body = 0;   // the 1F1B region (compute + exposed PP/TP)
};

struct IterationResult {
  TimeNs iteration_time = 0;
  double mfu = 0;
  double tokens_per_second = 0;
  double aggregate_pflops = 0;  // credited PFLOP/s across the job
  IterationBreakdown breakdown;
  /// Per-op spans of the representative replica (stage = stream grouping),
  /// raw material for the §5 diagnosis tools.
  std::vector<sim::OpRecord> spans;
  /// Stage index -> compute-stream busy time (straggler analysis).
  std::vector<TimeNs> stage_compute_busy;
};

/// Validates divisibility constraints; returns a human-readable error or
/// empty string.
std::string validate(const JobConfig& cfg);

/// One-line summary of a configuration ("175B gpus=3072 tp=8 pp=8 dp=48
/// vpp=6 batch=6144 m=128 overlap=megascale") — the planner and CLIs print
/// winning JobConfigs through this so descriptions stay uniform.
std::string describe(const JobConfig& cfg);

/// Simulates one steady-state training iteration.
IterationResult simulate_iteration(const JobConfig& cfg);

/// Days to push `total_tokens` through at the measured rate.
double training_days(double total_tokens, double tokens_per_second);

/// Appends the typed attributes of a simulate_iteration op to `out` as the
/// space-separated `k=v` tokens diag::SpanAttrs parses (e.g.
/// "s=1 c=0 mb=2 p=f", "p=f mb=2 from=0 to=1 c=0 pc=0 B=4096"), after a
/// space when `out` is not empty; Shape::kNone appends nothing. The tracer
/// route of simulate_iteration renders every span through this.
void append_attrs(std::string& out, const sim::OpAttrs& attrs);

}  // namespace ms::engine
