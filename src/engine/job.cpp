#include "engine/job.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "core/fatal.h"
#include "parallel/overlap.h"
#include "parallel/pipeline.h"
#include "parallel/zero.h"
#include "prof/profiler.h"
#include "sim/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ms::engine {

namespace {

using parallel::PassType;

// Stream layout: kStreamsPerStage (job.h) streams per stage + one
// data-pipeline stream.
sim::StreamId compute_stream(int s) { return s * kStreamsPerStage + 0; }
sim::StreamId send_stream(int s) { return s * kStreamsPerStage + 1; }
sim::StreamId recv_stream(int s) { return s * kStreamsPerStage + 2; }
sim::StreamId dp_stream(int s) { return s * kStreamsPerStage + 3; }

const char* coll_name(sim::OpAttrs::Coll c) {
  switch (c) {
    case sim::OpAttrs::Coll::kAllGather: return "allgather";
    case sim::OpAttrs::Coll::kReduceScatter: return "reducescatter";
    case sim::OpAttrs::Coll::kAllReduce: return "allreduce";
  }
  return "";
}

struct ChunkTimes {
  TimeNs fwd = 0;  // one microbatch through one model chunk, TP comm folded
  TimeNs bwd = 0;
  TimeNs fwd_last = 0;  // variant with logits head (last stage, last chunk)
  TimeNs bwd_last = 0;
};

}  // namespace

std::string validate(const JobConfig& cfg) {
  if (!cfg.par.valid()) return "invalid parallel config";
  if (cfg.global_batch % cfg.par.dp != 0) {
    return "global batch must divide evenly across DP replicas";
  }
  const int m = cfg.microbatches_per_replica();
  if (cfg.par.vpp > 1 && m % cfg.par.pp != 0) {
    return "interleaved schedule requires microbatches % pp == 0";
  }
  if (cfg.model.layers % (cfg.par.pp * cfg.par.vpp) != 0) {
    return "layers must divide evenly into pp*vpp chunks";
  }
  if (!cfg.stage_speed.empty() &&
      static_cast<int>(cfg.stage_speed.size()) != cfg.par.pp) {
    return "stage_speed must have pp entries";
  }
  if (!cfg.link_speed.empty() &&
      static_cast<int>(cfg.link_speed.size()) != cfg.par.pp) {
    return "link_speed must have pp entries";
  }
  if (cfg.par.pp == 1 && cfg.par.vpp != 1) {
    return "vpp > 1 requires pp > 1";
  }
  if (cfg.schedule == PipelineSchedule::kGpipe && cfg.par.vpp != 1) {
    return "GPipe schedule does not support interleaving (vpp must be 1)";
  }
  return "";
}

std::string describe(const JobConfig& cfg) {
  std::string out = cfg.model.name;
  out += " gpus=" + std::to_string(cfg.gpus());
  out += " tp=" + std::to_string(cfg.par.tp);
  out += " pp=" + std::to_string(cfg.par.pp);
  out += " dp=" + std::to_string(cfg.par.dp);
  out += " vpp=" + std::to_string(cfg.par.vpp);
  out += " batch=" + std::to_string(cfg.global_batch);
  out += " m=" + std::to_string(cfg.microbatches_per_replica());
  const bool megascale = cfg.overlap.tp_overlap && cfg.overlap.pp_decouple &&
                         cfg.overlap.dp_overlap &&
                         cfg.overlap.async_data_pipeline;
  const bool megatron = !cfg.overlap.tp_overlap && !cfg.overlap.pp_decouple &&
                        !cfg.overlap.dp_overlap &&
                        !cfg.overlap.async_data_pipeline;
  out += std::string(" overlap=") +
         (megascale ? "megascale" : (megatron ? "megatron-lm" : "custom"));
  if (cfg.schedule == PipelineSchedule::kGpipe) out += " schedule=gpipe";
  if (cfg.full_recompute) out += " recompute=full";
  return out;
}

namespace {

/// Every duration and payload the step graph needs, from the cost models.
struct StepCosts {
  ChunkTimes chunk;
  Bytes p2p_bytes = 0;
  TimeNs p2p_time = 0;
  TimeNs dp_ag_chunk = 0;  // per chunk; 0 when dp == 1
  TimeNs dp_rs_chunk = 0;
  Bytes dp_ag_bytes = 0;  // per call
  Bytes dp_rs_bytes = 0;
  TimeNs optimizer = 0;
};

/// Builds one replica's step DAG on `graph` and returns its data-load op.
sim::OpId build_graph(const JobConfig& cfg, const StepCosts& costs,
                      sim::GraphExecutor& graph) {
  MS_PROF_SCOPE("engine.build_graph");
  const auto& par = cfg.par;
  const int pp = par.pp;
  const int vpp = par.vpp;
  const int m = cfg.microbatches_per_replica();
  const ChunkTimes& chunk = costs.chunk;

  // Op and dependency counts, so the build never reallocates. Every
  // schedule visits each (stage, chunk, microbatch, pass) exactly once.
  // All but the first forward and the last backward of each microbatch
  // receive a transfer: two ops (send + recv, or blocking send +
  // recv-wait) and at most three dependencies.
  const auto compute_count = static_cast<std::size_t>(pp * vpp * m * 2);
  const std::size_t transfer_count =
      compute_count - 2 * static_cast<std::size_t>(m);
  const int dp_ops_per_stage =
      par.dp > 1 ? (cfg.overlap.dp_overlap ? 2 * vpp : 2) : 0;
  const std::size_t op_count =
      1 + compute_count + 2 * transfer_count +
      static_cast<std::size_t>(pp * (dp_ops_per_stage + 1));
  graph.reserve(op_count, op_count + transfer_count);

  const sim::StreamId data_stream =
      static_cast<sim::StreamId>(pp * kStreamsPerStage);
  const TimeNs data_time =
      cfg.overlap.async_data_pipeline ? 0 : cfg.data_pipeline_time;
  const sim::OpId data_op = graph.add_op(
      {.name = "data-load", .stream = data_stream, .duration = data_time,
       .tag = "data"});

  auto stage_factor = [&](int s) -> double {
    return cfg.stage_speed.empty() ? 1.0
                                   : cfg.stage_speed[static_cast<std::size_t>(s)];
  };
  auto scaled = [&](TimeNs t, int s) -> TimeNs {
    return static_cast<TimeNs>(static_cast<double>(t) * stage_factor(s));
  };
  // p2p transfers are serialized by the *sender's* NIC; a degraded link is
  // modeled as a slowdown factor indexed by the producing stage.
  auto scaled_p2p = [&](int producer_stage) -> TimeNs {
    const double f = cfg.link_speed.empty()
                         ? 1.0
                         : cfg.link_speed[static_cast<std::size_t>(producer_stage)];
    return static_cast<TimeNs>(static_cast<double>(costs.p2p_time) * f);
  };

  // Typed span attributes (sim::OpAttrs), rendered to the `k=v` grammar
  // diag::DepGraph parses only on the tracer route of simulate_iteration.
  // Transfers carry both endpoints so the analyzer can pair send/recv and
  // walk back to the producing compute op.
  using Shape = sim::OpAttrs::Shape;
  auto compute_attrs = [](int s, int c, int mb, bool is_bwd, bool head) {
    return sim::OpAttrs{.shape = Shape::kCompute, .bwd = is_bwd,
                        .head = head, .stage = s, .chunk = c, .mb = mb};
  };
  auto transfer_attrs = [&](int from, int to, int cons_chunk, int prod_chunk,
                            int mb, bool is_bwd) {
    return sim::OpAttrs{.shape = Shape::kTransfer, .bwd = is_bwd,
                        .chunk = cons_chunk, .mb = mb, .from = from,
                        .to = to, .prod_chunk = prod_chunk,
                        .bytes = costs.p2p_bytes};
  };

  // Compute op per (stage, chunk, microbatch, pass), densely indexed.
  auto op_index = [&](int s, int c, int mb, bool is_bwd) {
    return static_cast<std::size_t>(((s * vpp + c) * m + mb) * 2 +
                                    (is_bwd ? 1 : 0));
  };
  std::vector<sim::OpId> compute_ops(compute_count, sim::kInvalidOp);

  // Incoming-transfer topology. Producer of F(s,c,mb):
  //   s > 0            -> F(s-1, c,   mb)
  //   s == 0 && c > 0  -> F(pp-1, c-1, mb)   (interleaving wrap-around)
  //   s == 0 && c == 0 -> data pipeline
  // Producer of B(s,c,mb):
  //   s < pp-1               -> B(s+1, c,   mb)
  //   s == pp-1 && c < vpp-1 -> B(0,  c+1, mb)
  //   s == pp-1 && c == vpp-1 -> local F (no transfer)
  struct Endpoint {
    bool exists = false;
    int stage = 0, chunk = 0, microbatch = 0, is_bwd = 0;
  };
  auto producer_of = [&](int s, const parallel::ScheduleEntry& e) -> Endpoint {
    const bool is_bwd = e.pass == PassType::kBackward;
    if (!is_bwd) {
      if (s > 0) return {true, s - 1, e.chunk, e.microbatch, 0};
      if (e.chunk > 0) return {true, pp - 1, e.chunk - 1, e.microbatch, 0};
      return {};
    }
    if (s < pp - 1) return {true, s + 1, e.chunk, e.microbatch, 1};
    if (e.chunk < vpp - 1) return {true, 0, e.chunk + 1, e.microbatch, 1};
    return {};
  };
  auto consumer_of = [&](int s, const parallel::ScheduleEntry& e) -> Endpoint {
    const bool is_bwd = e.pass == PassType::kBackward;
    if (!is_bwd) {
      if (s < pp - 1) return {true, s + 1, e.chunk, e.microbatch, 0};
      if (e.chunk < vpp - 1) return {true, 0, e.chunk + 1, e.microbatch, 0};
      return {};
    }
    if (s > 0) return {true, s - 1, e.chunk, e.microbatch, 1};
    if (e.chunk > 0) return {true, pp - 1, e.chunk - 1, e.microbatch, 1};
    return {};
  };

  // First pass: create compute ops; in coupled (Megatron-LM) mode the
  // blocking recv/send ops join the stage's program chain right around the
  // compute op they serve ("send and recv are often implemented together
  // and can be blocked by the slower one", §3.2); in decoupled (MegaScale)
  // mode they live on dedicated streams and only the data dependency
  // remains.
  std::vector<sim::OpId> recv_ops, send_ops;  // coupled mode, by op_index
  if (!cfg.overlap.pp_decouple) {
    recv_ops.assign(compute_count, sim::kInvalidOp);  // consumer index
    send_ops.assign(compute_count, sim::kInvalidOp);  // producer index
  }
  std::vector<std::vector<parallel::ScheduleEntry>> schedules(
      static_cast<std::size_t>(pp));
  for (int s = 0; s < pp; ++s) {
    schedules[static_cast<std::size_t>(s)] =
        cfg.schedule == PipelineSchedule::kGpipe
            ? parallel::gpipe_schedule_for_stage(pp, s, m)
            : parallel::schedule_for_stage(pp, s, vpp, m);
    sim::OpId prev = sim::kInvalidOp;
    auto chain = [&](sim::OpId op) {
      if (prev != sim::kInvalidOp) graph.add_dep(prev, op);
      prev = op;
    };
    for (const auto& e : schedules[static_cast<std::size_t>(s)]) {
      const bool is_bwd = e.pass == PassType::kBackward;
      const std::size_t key = op_index(s, e.chunk, e.microbatch, is_bwd);

      const Endpoint prod = producer_of(s, e);
      if (!cfg.overlap.pp_decouple && prod.exists) {
        // Blocking receive: the coupled send/recv holds the receiving side
        // for the whole transfer too (no compute proceeds under it).
        recv_ops[key] = graph.add_op(
            {.name = "recv-wait",
             .stream = compute_stream(s),
             .duration = scaled_p2p(prod.stage),
             .tag = "pp-comm",
             .attrs = transfer_attrs(prod.stage, s, e.chunk, prod.chunk,
                                     e.microbatch, is_bwd)});
        chain(recv_ops[key]);
      }

      const bool has_head = (s == pp - 1) && (e.chunk == vpp - 1);
      TimeNs dur = is_bwd ? (has_head ? chunk.bwd_last : chunk.bwd)
                          : (has_head ? chunk.fwd_last : chunk.fwd);
      dur = scaled(dur, s);
      compute_ops[key] = graph.add_op(
          {.name = is_bwd ? "bwd" : "fwd",
           .stream = compute_stream(s),
           .duration = dur,
           .tag = is_bwd ? "bwd" : "fwd",
           .attrs = compute_attrs(s, e.chunk, e.microbatch, is_bwd, has_head)});
      chain(compute_ops[key]);

      const Endpoint cons = consumer_of(s, e);
      if (!cfg.overlap.pp_decouple && cons.exists) {
        // Blocking send occupies the compute stream for the wire time.
        send_ops[key] = graph.add_op(
            {.name = "send",
             .stream = compute_stream(s),
             .duration = scaled_p2p(s),
             .tag = "pp-comm",
             .attrs = transfer_attrs(s, cons.stage, cons.chunk, e.chunk,
                                     e.microbatch, is_bwd)});
        chain(send_ops[key]);
      }
    }
  }

  // Second pass: cross-stage data dependencies.
  for (int s = 0; s < pp; ++s) {
    for (const auto& e : schedules[static_cast<std::size_t>(s)]) {
      const bool is_bwd = e.pass == PassType::kBackward;
      const std::size_t key = op_index(s, e.chunk, e.microbatch, is_bwd);
      const sim::OpId consumer = compute_ops[key];
      const Endpoint prod = producer_of(s, e);
      if (!prod.exists) {
        if (!is_bwd) {
          graph.add_dep(data_op, consumer);  // F(0, 0, mb): needs input data
        } else {
          // B(pp-1, vpp-1, mb) starts from the local loss computation.
          graph.add_dep(compute_ops[op_index(s, e.chunk, e.microbatch, false)],
                        consumer);
        }
        continue;
      }
      const std::size_t prod_key = op_index(prod.stage, prod.chunk,
                                            prod.microbatch, prod.is_bwd != 0);
      if (cfg.overlap.pp_decouple) {
        const sim::OpAttrs attrs = transfer_attrs(
            prod.stage, s, e.chunk, prod.chunk, e.microbatch, is_bwd);
        sim::OpId snd = graph.add_op({.name = "send",
                                      .stream = send_stream(prod.stage),
                                      .duration = scaled_p2p(prod.stage),
                                      .tag = "pp-comm",
                                      .attrs = attrs});
        sim::OpId rcv = graph.add_op({.name = "recv",
                                      .stream = recv_stream(s),
                                      .duration = 0,
                                      .tag = "pp-comm",
                                      .attrs = attrs});
        graph.add_dep(compute_ops[prod_key], snd);
        graph.add_dep(snd, rcv);
        graph.add_dep(rcv, consumer);
      } else {
        // snd (producer chain) -> rcv wait (consumer chain). The chains
        // already order rcv before consumer and snd after producer.
        graph.add_dep(send_ops[prod_key], recv_ops[key]);
      }
    }
  }

  // Third pass: DP collectives + optimizer per stage.
  for (int s = 0; s < pp; ++s) {
    const auto& sched = schedules[static_cast<std::size_t>(s)];
    // First forward / last backward per chunk on this stage.
    std::vector<sim::OpId> first_fwd(static_cast<std::size_t>(vpp),
                                     sim::kInvalidOp);
    std::vector<sim::OpId> last_bwd(static_cast<std::size_t>(vpp),
                                    sim::kInvalidOp);
    for (const auto& e : sched) {
      const bool is_bwd = e.pass == PassType::kBackward;
      const sim::OpId op =
          compute_ops[op_index(s, e.chunk, e.microbatch, is_bwd)];
      if (!is_bwd && first_fwd[static_cast<std::size_t>(e.chunk)] ==
                         sim::kInvalidOp) {
        first_fwd[static_cast<std::size_t>(e.chunk)] = op;
      }
      if (is_bwd) last_bwd[static_cast<std::size_t>(e.chunk)] = op;
    }

    std::vector<sim::OpId> rs_ops;
    if (par.dp > 1) {
      // Collective-size attributes for the trace consumers (§5 diagnosis,
      // calibration): `op=` names the wire collective (ZeRO stage <= 1
      // all-reduces under the reduce-scatter op name), `B=` the per-call
      // payload, `calls=` how many back-to-back calls the span folds.
      using Coll = sim::OpAttrs::Coll;
      const int ag_calls = par.zero_stage >= 3 ? 2 : 1;
      const Coll rs_op =
          par.zero_stage <= 1 ? Coll::kAllReduce : Coll::kReduceScatter;
      // chunk -1: a bucketed collective spans every chunk (no `c=`).
      auto coll_attrs = [&](int c, Coll op, Bytes bytes, int calls) {
        return sim::OpAttrs{.shape = Shape::kCollective, .coll = op,
                            .stage = s, .chunk = c, .n = par.dp,
                            .calls = calls, .bytes = bytes};
      };
      if (cfg.overlap.dp_overlap) {
        // Chunk-wise, priority-ordered: the all-gather of the chunk needed
        // first carries the highest priority; the first one starts at t=0,
        // overlapping the data pipeline (the FSDP-inspired prefetch).
        for (int c = 0; c < vpp; ++c) {
          sim::OpId ag = graph.add_op(
              {.name = "dp-allgather",
               .stream = dp_stream(s),
               .duration = costs.dp_ag_chunk,
               .priority = vpp - c,
               .tag = "dp-comm",
               .attrs = coll_attrs(c, Coll::kAllGather, costs.dp_ag_bytes,
                                   ag_calls)});
          graph.add_dep(ag, first_fwd[static_cast<std::size_t>(c)]);
          sim::OpId rs = graph.add_op(
              {.name = "dp-reducescatter",
               .stream = dp_stream(s),
               .duration = costs.dp_rs_chunk,
               .priority = c,
               .tag = "dp-comm",
               .attrs = coll_attrs(c, rs_op, costs.dp_rs_bytes, 1)});
          graph.add_dep(last_bwd[static_cast<std::size_t>(c)], rs);
          rs_ops.push_back(rs);
        }
      } else {
        // Bucketed at the iteration edges: one all-gather before any
        // compute, one reduce-scatter after all backwards (the exposed
        // pattern of stock data-parallel synchronization).
        sim::OpId ag = graph.add_op(
            {.name = "dp-allgather",
             .stream = dp_stream(s),
             .duration = vpp * costs.dp_ag_chunk,
             .tag = "dp-comm",
             .attrs = coll_attrs(-1, Coll::kAllGather, costs.dp_ag_bytes,
                                 vpp * ag_calls)});
        graph.add_dep(data_op, ag);
        for (int c = 0; c < vpp; ++c) {
          graph.add_dep(ag, first_fwd[static_cast<std::size_t>(c)]);
        }
        sim::OpId rs = graph.add_op(
            {.name = "dp-reducescatter",
             .stream = dp_stream(s),
             .duration = vpp * costs.dp_rs_chunk,
             .tag = "dp-comm",
             .attrs = coll_attrs(-1, rs_op, costs.dp_rs_bytes, vpp)});
        for (int c = 0; c < vpp; ++c) {
          graph.add_dep(last_bwd[static_cast<std::size_t>(c)], rs);
        }
        rs_ops.push_back(rs);
      }
    }

    sim::OpId opt = graph.add_op(
        {.name = "optimizer",
         .stream = compute_stream(s),
         .duration = scaled(costs.optimizer, s),
         .tag = "optimizer",
         .attrs = sim::OpAttrs{.shape = Shape::kStage, .stage = s}});
    if (rs_ops.empty()) {
      for (int c = 0; c < vpp; ++c) {
        graph.add_dep(last_bwd[static_cast<std::size_t>(c)], opt);
      }
    }
    for (sim::OpId rs : rs_ops) graph.add_dep(rs, opt);
  }
  return data_op;
}

}  // namespace

IterationResult simulate_iteration(const JobConfig& cfg) {
  MS_PROF_SCOPE("engine.simulate_iteration");
  const std::string err = validate(cfg);
  // A bad config has no sane answer (the graph build would index past its
  // tables), so it aborts in every build mode. Every CLI validates first.
  MS_CHECK(err.empty(), "engine: simulate_iteration: invalid JobConfig: %s",
           err.c_str());

  const auto& par = cfg.par;
  const int pp = par.pp;
  const int vpp = par.vpp;
  const int layers_per_chunk = cfg.model.layers / (pp * vpp);
  const std::int64_t micro_tokens = cfg.model.seq_len;  // 1 sequence/microbatch
  const std::int64_t elem_tokens =
      par.sequence_parallel ? micro_tokens / par.tp : micro_tokens;

  const model::OpCostModel cost(cfg.model, cfg.ops, cfg.cluster.gpu);
  collective::CollectiveModel coll(cfg.cluster, cfg.network_efficiency);
  coll.set_metrics(cfg.metrics);
  const parallel::Zero2Sharding zero(model::params_count(cfg.model), par);
  StepCosts costs;

  // ---- per-layer TP/SP communication (§3.2, Figure 3) ----
  const Bytes act_bytes = micro_tokens * cfg.model.hidden * 2;
  // Parallel transformer block: attention and MLP branch from the same
  // LN(x), so one all-gather feeds both and one reduce-scatter merges both.
  const int tp_comms_per_layer = cfg.model.parallel_block ? 1 : 2;
  TimeNs tp_comm_fwd_layer = 0;
  if (par.tp > 1) {
    const TimeNs ag =
        coll.all_gather(act_bytes, par.tp, collective::Domain::kIntraNode);
    const TimeNs rs =
        coll.reduce_scatter(act_bytes, par.tp, collective::Domain::kIntraNode);
    tp_comm_fwd_layer = tp_comms_per_layer * (ag + rs);
  }
  const TimeNs tp_comm_bwd_layer = tp_comm_fwd_layer;  // mirrored pattern

  // ---- chunk compute durations with TP comm folded in ----
  const TimeNs fwd_layer_compute =
      cost.fwd_layer(micro_tokens, elem_tokens, par.tp);
  const TimeNs bwd_layer_compute =
      cost.bwd_layer(micro_tokens, elem_tokens, par.tp);

  auto fold_tp = [&](TimeNs compute, TimeNs comm) -> TimeNs {
    if (comm == 0) return compute;
    if (cfg.overlap.tp_overlap) {
      return parallel::chunked_overlap(compute, comm,
                                       cfg.overlap.tp_overlap_chunks)
          .total;
    }
    return compute + comm;
  };

  ChunkTimes& chunk = costs.chunk;
  chunk.fwd = layers_per_chunk * fold_tp(fwd_layer_compute, tp_comm_fwd_layer);
  chunk.bwd = layers_per_chunk * fold_tp(bwd_layer_compute, tp_comm_bwd_layer);
  if (cfg.full_recompute) {
    // The backward pass first re-runs the chunk's forward (including its
    // TP communication) to rebuild activations from the stored boundary.
    chunk.bwd += chunk.fwd;
  }
  const TimeNs logits_fwd = cost.fwd_logits(micro_tokens, par.tp);
  chunk.fwd_last = chunk.fwd + logits_fwd;
  chunk.bwd_last = chunk.bwd + 2 * logits_fwd;

  // ---- pipeline p2p transfer ----
  costs.p2p_bytes = par.sequence_parallel ? act_bytes / par.tp : act_bytes;
  costs.p2p_time =
      coll.send_recv(costs.p2p_bytes, collective::Domain::kInterNode);

  // ---- DP collectives (ZeRO, §2 Figure 1) ----
  // Stage 2 (the paper's choice): param all-gather forward + gradient
  // reduce-scatter backward — together exactly one all-reduce's volume.
  // Stage 1: gradients are still all-reduced in full (2x the reduce-scatter
  // volume) and updated params all-gathered.
  // Stage 3: parameters are re-gathered for the backward pass as well
  // (second all-gather per chunk).
  costs.dp_ag_bytes = zero.allgather_bytes_per_chunk();
  costs.dp_rs_bytes = zero.reducescatter_bytes_per_chunk();
  if (par.dp > 1) {
    costs.dp_ag_chunk = coll.all_gather(costs.dp_ag_bytes, par.dp,
                                        collective::Domain::kInterNode);
    costs.dp_rs_chunk = coll.reduce_scatter(costs.dp_rs_bytes, par.dp,
                                            collective::Domain::kInterNode);
    if (par.zero_stage <= 1) {
      costs.dp_rs_chunk = coll.all_reduce(costs.dp_rs_bytes, par.dp,
                                          collective::Domain::kInterNode);
    } else if (par.zero_stage >= 3) {
      costs.dp_ag_chunk *= 2;  // forward + backward parameter gathers
    }
  }
  costs.optimizer = cost.optimizer_step(zero.optimizer_shard_params());

  // ---- build and run the DAG ----
  sim::Engine sim_engine;
  sim::GraphExecutor graph(static_cast<std::size_t>(pp * kStreamsPerStage + 1));
  const sim::OpId data_op = build_graph(cfg, costs, graph);
  const TimeNs makespan = graph.run(sim_engine);

  // ---- metrics ----
  IterationResult result;
  result.iteration_time = makespan;
  const double iter_s = to_seconds(makespan);
  result.tokens_per_second = cfg.tokens_per_iteration() / iter_s;
  result.mfu = model::mfu(cfg.model, result.tokens_per_second, cfg.gpus(),
                          cfg.cluster.gpu.peak_flops);
  result.aggregate_pflops =
      model::reference_train_flops_per_token(cfg.model) *
      result.tokens_per_second / peta(1.0);

  // Breakdown from spans.
  TimeNs pipeline_start = makespan, pipeline_end = 0;
  TimeNs opt_start = makespan;
  for (const auto& rec : graph.records()) {
    if (rec.tag == "fwd" || rec.tag == "bwd") {
      pipeline_start = std::min(pipeline_start, rec.start);
      pipeline_end = std::max(pipeline_end, rec.end);
    } else if (rec.tag == "optimizer") {
      opt_start = std::min(opt_start, rec.start);
    }
  }
  result.breakdown.data_pipeline = graph.record(data_op).end;
  result.breakdown.pipeline_body = pipeline_end - pipeline_start;
  result.breakdown.dp_exposed =
      (pipeline_start - graph.record(data_op).end) +
      std::max<TimeNs>(0, opt_start - pipeline_end);
  result.breakdown.optimizer = makespan - opt_start;

  result.stage_compute_busy.resize(static_cast<std::size_t>(pp));
  for (int s = 0; s < pp; ++s) {
    result.stage_compute_busy[static_cast<std::size_t>(s)] =
        graph.stream_busy(compute_stream(s));
  }
  result.spans = graph.take_records();

  // ---- telemetry routing (§5: one substrate instead of ad-hoc copies) ----
  if (cfg.tracer != nullptr) {
    for (const auto& rec : result.spans) {
      // The stream id is appended so the analyzer can recover hardware-queue
      // program order even after spans are folded onto per-stage ranks.
      std::string detail;
      append_attrs(detail, rec.attrs);
      if (!detail.empty()) detail += ' ';
      detail += "stream=" + std::to_string(rec.stream);
      cfg.tracer->record(stage_of_stream(rec.stream), rec.name, rec.tag,
                         rec.start, rec.end, std::move(detail));
    }
  }
  if (cfg.metrics != nullptr) {
    auto& m = *cfg.metrics;
    // One counter/histogram pair per op tag, registered at the tag's first
    // op (the registration order of a per-op lookup).
    struct TagSeries {
      const std::string* tag;
      telemetry::Counter* ops;
      telemetry::Histogram* seconds;
    };
    std::vector<TagSeries> by_tag;
    for (const auto& rec : result.spans) {
      auto it = std::find_if(by_tag.begin(), by_tag.end(),
                             [&](const TagSeries& t) {
                               return *t.tag == rec.tag;
                             });
      if (it == by_tag.end()) {
        const telemetry::Labels op_labels{{"op", rec.tag}};
        auto& ops = m.counter("engine_ops_total", op_labels);
        auto& seconds = m.histogram("engine_op_seconds", op_labels);
        by_tag.push_back({&rec.tag, &ops, &seconds});
        it = by_tag.end() - 1;
      }
      it->ops->add();
      it->seconds->observe(to_seconds(rec.end - rec.start));
    }
    m.counter("engine_iterations_total").add();
    m.gauge("engine_iteration_seconds").set(iter_s);
    m.gauge("engine_mfu").set(result.mfu);
    m.gauge("engine_tokens_per_second").set(result.tokens_per_second);
    for (int s = 0; s < pp; ++s) {
      m.gauge("engine_stage_compute_busy_seconds",
              {{"stage", std::to_string(s)}})
          .set(to_seconds(result.stage_compute_busy[static_cast<std::size_t>(s)]));
    }
  }
  return result;
}

double training_days(double total_tokens, double tokens_per_second) {
  MS_CHECK(tokens_per_second > 0,
           "engine: training_days: tokens_per_second must be positive (got %g)",
           tokens_per_second);
  return total_tokens / tokens_per_second / 86400.0;
}

void append_attrs(std::string& out, const sim::OpAttrs& a) {
  using Shape = sim::OpAttrs::Shape;
  auto put = [&](std::string_view key, std::string_view value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  auto num = [](std::int64_t v) { return std::to_string(v); };
  const std::string_view pass = a.bwd ? "b" : "f";
  switch (a.shape) {
    case Shape::kNone:
      break;
    case Shape::kCompute:
      put("s", num(a.stage));
      put("c", num(a.chunk));
      put("mb", num(a.mb));
      put("p", pass);
      if (a.head) put("head", "1");
      break;
    case Shape::kTransfer:
      put("p", pass);
      put("mb", num(a.mb));
      put("from", num(a.from));
      put("to", num(a.to));
      put("c", num(a.chunk));
      put("pc", num(a.prod_chunk));
      put("B", num(a.bytes));
      break;
    case Shape::kCollective:
      put("s", num(a.stage));
      if (a.chunk >= 0) put("c", num(a.chunk));
      put("grp", "dp");
      put("n", num(a.n));
      put("op", coll_name(a.coll));
      put("B", num(a.bytes));
      if (a.calls > 1) put("calls", num(a.calls));
      break;
    case Shape::kStage:
      put("s", num(a.stage));
      break;
  }
}

}  // namespace ms::engine
