// Golden pin of what one simulated step hands its consumers.
//
// Every OpRecord of IterationResult::spans (name, tag, stream, start, end)
// and every span routed through a Tracer (rank, name, tag, start, end and
// the rendered `k=v` detail that diag::DepGraph and calib parse) is folded,
// in order, into one digest per config. The expected values were recorded
// before the step simulation moved to dense op indices, typed span
// attributes and a slab event loop; they must hold exactly, so any change
// to the schedule, the DAG, the event order or the attribute grammar shows
// up here first. The configs are small (a 24-layer model, a few
// microbatches) but cover every branch of the graph build: coupled and
// decoupled PP, vpp 1 and > 1, DP overlap on and off, ZeRO stages 1-3,
// GPipe, dp = 1, and per-stage / per-link slowdowns.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/digest.h"
#include "engine/job.h"
#include "telemetry/trace.h"

namespace ms::engine {
namespace {

JobConfig small(int pp, int vpp, int dp, int batch, bool megascale) {
  JobConfig cfg;
  cfg.model = model::config_13b();
  cfg.model.layers = 24;
  cfg.par.tp = 8;
  cfg.par.pp = pp;
  cfg.par.vpp = vpp;
  cfg.par.dp = dp;
  cfg.global_batch = batch;
  cfg.cluster.gpus_per_node = 8;
  if (megascale) {
    cfg.ops = model::OperatorProfile::megascale();
    cfg.overlap = OverlapOptions::megascale();
  } else {
    cfg.ops = model::OperatorProfile::megatron_baseline();
    cfg.overlap = OverlapOptions::megatron_lm();
  }
  return cfg;
}

struct Pin {
  std::size_t ops = 0;
  TimeNs iteration_time = 0;
  std::uint64_t records = 0;  // digest over IterationResult::spans
  std::uint64_t traced = 0;   // digest over the tracer's spans
};

Pin pin_of(JobConfig cfg) {
  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  const IterationResult r = simulate_iteration(cfg);
  Pin p;
  p.ops = r.spans.size();
  p.iteration_time = r.iteration_time;
  check::Digest rec;
  for (const auto& s : r.spans) {
    rec.fold(s.name);
    rec.fold(s.tag);
    rec.fold(static_cast<std::int64_t>(s.stream));
    rec.fold(s.start);
    rec.fold(s.end);
  }
  p.records = rec.value();
  check::Digest tr;
  for (const auto& s : tracer.spans()) {
    tr.fold(static_cast<std::int64_t>(s.rank));
    tr.fold(s.name);
    tr.fold(s.tag);
    tr.fold(s.start);
    tr.fold(s.end);
    tr.fold(s.detail);
  }
  p.traced = tr.value();
  EXPECT_EQ(tracer.size(), r.spans.size());
  return p;
}

void expect_pin(const JobConfig& cfg, const Pin& want) {
  const Pin got = pin_of(cfg);
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.iteration_time, want.iteration_time);
  EXPECT_EQ(got.records, want.records)
      << std::hex << "records 0x" << got.records;
  EXPECT_EQ(got.traced, want.traced) << std::hex << "traced 0x" << got.traced;
}

TEST(SpanPin, CoupledVpp1) {
  expect_pin(small(4, 1, 2, 16, false),
             {173, 545360175, 0x92fb9b8bfa961620, 0x2df50c756ba553f5});
}

TEST(SpanPin, CoupledInterleaved) {
  expect_pin(small(4, 2, 2, 16, false),
             {365, 515518063, 0xecca2fac9a386d47, 0xba178f03c1f14296});
}

TEST(SpanPin, DecoupledInterleavedDpOverlap) {
  expect_pin(small(4, 3, 2, 16, true),
             {573, 168160239, 0x362a5c1a8a80eafb, 0xa955b2551ed4545c});
}

TEST(SpanPin, DecoupledVpp1DpOverlap) {
  expect_pin(small(4, 1, 2, 12, true),
             {133, 176066885, 0xcc1179bf2fdcb1c4, 0x6d7387e1694c5165});
}

TEST(SpanPin, DecoupledBucketedDp) {
  JobConfig cfg = small(4, 2, 2, 16, true);
  cfg.overlap.dp_overlap = false;
  expect_pin(cfg,
             {365, 189361551, 0x8534e924e79094bc, 0x94bc7c6e0e0d025f});
}

TEST(SpanPin, CoupledDpOverlap) {
  JobConfig cfg = small(4, 2, 2, 16, false);
  cfg.overlap.dp_overlap = true;
  expect_pin(cfg,
             {373, 499068433, 0xbcc42b909278863a, 0x354a6e42b923bc67});
}

TEST(SpanPin, ZeroStage1) {
  JobConfig on = small(4, 2, 2, 16, true);
  on.par.zero_stage = 1;
  expect_pin(on,
             {373, 183878342, 0xce3eec5307952593, 0x4e0e46a74e4fcefa});
  JobConfig off = small(4, 2, 2, 16, false);
  off.par.zero_stage = 1;
  expect_pin(off,
             {365, 526484485, 0xa2b97ca76f6ed997, 0x5f2dd078549918d4});
}

TEST(SpanPin, ZeroStage3) {
  JobConfig on = small(4, 2, 2, 16, true);
  on.par.zero_stage = 3;
  expect_pin(on,
             {373, 183878341, 0x4b11792f1f253770, 0x71ad942768b13a99});
  JobConfig off = small(4, 2, 2, 16, false);
  off.par.zero_stage = 3;
  expect_pin(off,
             {365, 526484483, 0x766998c0db68e60f, 0xf2c854c83379cf4e});
}

TEST(SpanPin, Gpipe) {
  JobConfig coupled = small(4, 1, 2, 12, false);
  coupled.schedule = PipelineSchedule::kGpipe;
  expect_pin(coupled,
             {133, 494914533, 0xca2cf670716e409e, 0xfd559a3f3f484895});
  JobConfig decoupled = small(4, 1, 2, 12, true);
  decoupled.schedule = PipelineSchedule::kGpipe;
  expect_pin(decoupled,
             {133, 176066885, 0x3c736a88747317ab, 0x978addf6896d869e});
}

TEST(SpanPin, SingleReplicaAndSingleStage) {
  expect_pin(small(4, 2, 1, 8, true),
             {357, 169843664, 0x2b2bcbf208cf1734, 0xb6d18d383d0c487d});
  expect_pin(small(1, 1, 2, 8, false),
             {12, 718925330, 0x644190a456676d6d, 0xfb09f10efd0783e6});
}

TEST(SpanPin, StageAndLinkSlowdowns) {
  JobConfig coupled = small(4, 2, 2, 16, false);
  coupled.stage_speed = {1.0, 1.3, 1.0, 1.05};
  coupled.link_speed = {1.0, 1.0, 2.5, 1.0};
  expect_pin(coupled,
             {365, 543890800, 0xd8aa52f0cc3c439c, 0x3c484165bf8a592f});
  JobConfig decoupled = small(4, 2, 2, 16, true);
  decoupled.stage_speed = {1.2, 1.0, 1.0, 1.0};
  decoupled.link_speed = {1.0, 3.0, 1.0, 1.0};
  expect_pin(decoupled,
             {373, 185981969, 0x16034470403d89ea, 0x6a7b54d9dfe51765});
}

}  // namespace
}  // namespace ms::engine
