#include <gtest/gtest.h>

#include "engine/job.h"
#include "engine/perturb.h"

namespace ms::engine {
namespace {

JobConfig base_config(int gpus = 256, int batch = 256) {
  JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.par.tp = 8;
  cfg.par.pp = 8;
  cfg.par.vpp = 6;
  cfg.par.dp = gpus / 64;
  cfg.global_batch = batch;
  cfg.ops = model::OperatorProfile::megatron_baseline();
  cfg.overlap = OverlapOptions::megatron_lm();
  return cfg;
}

JobConfig megascale_config(int gpus = 256, int batch = 256) {
  JobConfig cfg = base_config(gpus, batch);
  cfg.model.parallel_block = true;
  cfg.model.attention = model::AttentionKind::kSlidingWindow;
  cfg.model.window = 512;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = OverlapOptions::megascale();
  return cfg;
}

// -------------------------------------------------------------- validate

TEST(Validate, AcceptsPaperConfigs) {
  EXPECT_EQ(validate(base_config()), "");
  EXPECT_EQ(validate(megascale_config(12288, 6144)), "");
}

TEST(Validate, RejectsIndivisibleBatch) {
  auto cfg = base_config();
  cfg.global_batch = 255;  // not divisible by dp=4
  EXPECT_NE(validate(cfg), "");
}

TEST(Validate, RejectsBadMicrobatchCount) {
  auto cfg = base_config();
  cfg.global_batch = cfg.par.dp * 12;  // m=12, not divisible by pp=8
  EXPECT_NE(validate(cfg), "");
}

TEST(Validate, RejectsBadLayerSplit) {
  auto cfg = base_config();
  cfg.model.layers = 90;  // not divisible by pp*vpp=48
  EXPECT_NE(validate(cfg), "");
}

TEST(Validate, RejectsWrongStageSpeedSize) {
  auto cfg = base_config();
  cfg.stage_speed = {1.0, 1.0};
  EXPECT_NE(validate(cfg), "");
}

// ------------------------------------------------------------- iteration

TEST(Iteration, MegaScaleBeatsMegatron) {
  const auto mg = simulate_iteration(base_config());
  const auto msc = simulate_iteration(megascale_config());
  EXPECT_LT(msc.iteration_time, mg.iteration_time);
  EXPECT_GT(msc.mfu, mg.mfu);
  const double speedup = msc.mfu / mg.mfu;
  EXPECT_GT(speedup, 1.15);
  EXPECT_LT(speedup, 1.55);
}

TEST(Iteration, MfuInPaperBallpark256Gpus) {
  // Paper Table 3: Megatron baseline 47.7%, full MegaScale 65.3% @ BS 256.
  const auto mg = simulate_iteration(base_config());
  EXPECT_GT(mg.mfu, 0.42);
  EXPECT_LT(mg.mfu, 0.58);
  const auto msc = simulate_iteration(megascale_config(256, 768));
  EXPECT_GT(msc.mfu, 0.60);
  EXPECT_LT(msc.mfu, 0.72);
}

TEST(Iteration, MfuDeclinesWithScaleAtFixedBatch) {
  // Paper Table 2: strong scaling with batch 6144 decreases MFU.
  const auto small = simulate_iteration(megascale_config(3072, 6144));
  const auto large = simulate_iteration(megascale_config(12288, 6144));
  EXPECT_GT(small.mfu, large.mfu);
  // Iteration time still improves with more GPUs.
  EXPECT_LT(large.iteration_time, small.iteration_time);
}

TEST(Iteration, ThroughputConsistentWithIterationTime) {
  const auto cfg = megascale_config();
  const auto r = simulate_iteration(cfg);
  EXPECT_NEAR(r.tokens_per_second,
              cfg.tokens_per_iteration() / to_seconds(r.iteration_time), 1.0);
  EXPECT_GT(r.aggregate_pflops, 0);
}

TEST(Iteration, EveryOverlapKnobHelps) {
  auto cfg = base_config();
  cfg.model.parallel_block = true;
  double prev = simulate_iteration(cfg).mfu;
  cfg.overlap.tp_overlap = true;
  double with_tp = simulate_iteration(cfg).mfu;
  EXPECT_GT(with_tp, prev);
  cfg.overlap.pp_decouple = true;
  double with_pp = simulate_iteration(cfg).mfu;
  EXPECT_GT(with_pp, with_tp);
  cfg.overlap.dp_overlap = true;
  double with_dp = simulate_iteration(cfg).mfu;
  EXPECT_GT(with_dp, with_pp);
  cfg.overlap.async_data_pipeline = true;
  EXPECT_GT(simulate_iteration(cfg).mfu, with_dp);
}

TEST(Iteration, ParallelBlockHelps) {
  auto cfg = base_config();
  const double serial = simulate_iteration(cfg).mfu;
  cfg.model.parallel_block = true;
  EXPECT_GT(simulate_iteration(cfg).mfu, serial);
}

TEST(Iteration, SlidingWindowHelps) {
  auto cfg = base_config();
  cfg.model.parallel_block = true;
  const double full = simulate_iteration(cfg).mfu;
  cfg.model.attention = model::AttentionKind::kSlidingWindow;
  cfg.model.window = 512;
  EXPECT_GT(simulate_iteration(cfg).mfu, full);
}

TEST(Iteration, LargerBatchReducesBubble) {
  // LAMB effect: 3x batch raises MFU (§3.1).
  const auto small = simulate_iteration(megascale_config(256, 256));
  const auto large = simulate_iteration(megascale_config(256, 768));
  EXPECT_GT(large.mfu, small.mfu);
}

TEST(Iteration, EfficientOperatorsHelp) {
  auto cfg = base_config();
  const double naive = simulate_iteration(cfg).mfu;
  cfg.ops = model::OperatorProfile::megascale();
  EXPECT_GT(simulate_iteration(cfg).mfu, naive);
}

TEST(Iteration, DegradedNetworkHurtsMegatronMore) {
  auto mg = base_config();
  auto msc = megascale_config();
  mg.network_efficiency = 1.0;
  msc.network_efficiency = 1.0;
  const double mg_full = simulate_iteration(mg).mfu;
  const double msc_full = simulate_iteration(msc).mfu;
  mg.network_efficiency = 0.5;
  msc.network_efficiency = 0.5;
  const double mg_deg = simulate_iteration(mg).mfu;
  const double msc_deg = simulate_iteration(msc).mfu;
  // Overlapping hides most of the slowdown.
  EXPECT_GT(mg_full - mg_deg, msc_full - msc_deg);
}

TEST(Iteration, DpExposureShrinksWithOverlap) {
  auto cfg = base_config();
  const auto bucketed = simulate_iteration(cfg);
  cfg.overlap.dp_overlap = true;
  const auto overlapped = simulate_iteration(cfg);
  EXPECT_LT(overlapped.breakdown.dp_exposed, bucketed.breakdown.dp_exposed);
}

TEST(Iteration, AsyncDataPipelineRemovesExposedLoad) {
  auto cfg = base_config();
  cfg.data_pipeline_time = milliseconds(500.0);
  const auto exposed = simulate_iteration(cfg);
  EXPECT_GE(exposed.breakdown.data_pipeline, milliseconds(500.0));
  cfg.overlap.async_data_pipeline = true;
  const auto hidden = simulate_iteration(cfg);
  EXPECT_EQ(hidden.breakdown.data_pipeline, 0);
}

TEST(Iteration, StageSlowdownStretchesIteration) {
  auto cfg = megascale_config();
  const auto nominal = simulate_iteration(cfg);
  cfg.stage_speed = std::vector<double>(8, 1.0);
  cfg.stage_speed[3] = 1.10;  // the paper's ~10%-slower straggler host
  const auto slowed = simulate_iteration(cfg);
  EXPECT_GT(slowed.iteration_time, nominal.iteration_time);
  // One slow stage gates the whole pipeline: closer to 10% than to 10%/8.
  const double stretch = to_seconds(slowed.iteration_time) /
                         to_seconds(nominal.iteration_time);
  EXPECT_GT(stretch, 1.04);
}

TEST(Iteration, SpansCoverAllTags) {
  const auto r = simulate_iteration(megascale_config());
  bool fwd = false, bwd = false, dp = false, pp = false, opt = false;
  for (const auto& rec : r.spans) {
    EXPECT_TRUE(rec.done());
    fwd |= rec.tag == "fwd";
    bwd |= rec.tag == "bwd";
    dp |= rec.tag == "dp-comm";
    pp |= rec.tag == "pp-comm";
    opt |= rec.tag == "optimizer";
  }
  EXPECT_TRUE(fwd && bwd && dp && pp && opt);
}

TEST(Iteration, TrainingDays300BTokens) {
  // Table 2 reports days for 300B tokens; MegaScale @256 GPUs ~ 70.86 days.
  const auto r = simulate_iteration(megascale_config(256, 768));
  const double days = training_days(300e9, r.tokens_per_second);
  EXPECT_GT(days, 55.0);
  EXPECT_LT(days, 90.0);
}

TEST(Iteration, DataParallelScalingNearLinear) {
  // Same per-replica microbatch count, more replicas => similar iteration
  // time (weak scaling), so throughput scales ~linearly.
  const auto one = simulate_iteration(megascale_config(256, 256));
  const auto four = simulate_iteration(megascale_config(1024, 1024));
  const double ratio = four.tokens_per_second / one.tokens_per_second;
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 4.05);
}

// -------------------------------------------------------------- perturb

TEST(Perturb, MachineSpeedsRespectPopulation) {
  Rng rng(7);
  StragglerPopulation pop;
  pop.slow_fraction = 0.10;
  pop.slow_factor = 1.5;
  pop.jitter_sigma = 0.0;
  auto speeds = sample_machine_speeds(10000, pop, rng);
  int slow = 0;
  for (double s : speeds) {
    if (s > 1.2) ++slow;
  }
  EXPECT_NEAR(static_cast<double>(slow) / 10000.0, 0.10, 0.02);
}

TEST(Perturb, FoldWithNominalSpeedsIsIdentity) {
  const auto cfg = megascale_config();
  const auto base = simulate_iteration(cfg);
  std::vector<double> nominal(static_cast<std::size_t>(cfg.gpus() / 8), 1.0);
  const auto fold = fold_stragglers(base, cfg, nominal);
  EXPECT_EQ(fold.iteration_time, base.iteration_time);
  EXPECT_DOUBLE_EQ(fold.mfu, base.mfu);
}

TEST(Perturb, OneSlowMachineGatesTheJob) {
  const auto cfg = megascale_config();
  const auto base = simulate_iteration(cfg);
  std::vector<double> speeds(static_cast<std::size_t>(cfg.gpus() / 8), 1.0);
  speeds[5] = 1.10;
  const auto fold = fold_stragglers(base, cfg, speeds);
  EXPECT_GT(fold.iteration_time, base.iteration_time);
  EXPECT_LT(fold.mfu, base.mfu);
  EXPECT_EQ(fold.slow_machines, 1);
  EXPECT_DOUBLE_EQ(fold.worst_factor, 1.10);
}

TEST(Perturb, EvictingStragglersRecoverssMfu) {
  // Paper §6.3: removing problematic hosts improved MFU ~0.7%.
  const auto cfg = megascale_config(1024, 1024);
  const auto base = simulate_iteration(cfg);
  Rng rng(11);
  StragglerPopulation pop;  // 0.5% slow at 1.10x
  auto speeds = sample_machine_speeds(cfg.gpus() / 8, pop, rng);
  const auto with = fold_stragglers(base, cfg, speeds);
  // Evict: clamp all factors to the healthy jitter range.
  auto healthy = speeds;
  for (auto& s : healthy) s = std::min(s, 1.02);
  const auto without = fold_stragglers(base, cfg, healthy);
  EXPECT_GE(without.mfu, with.mfu);
}

TEST(Perturb, ProblematicCodeDecaysMfu) {
  const auto cfg = megascale_config();
  const auto base = simulate_iteration(cfg);
  Rng rng(13);
  PerturbConfig perturb;
  auto decayed = mfu_over_time(base, cfg, perturb, 2000, true, {}, rng);
  Rng rng2(13);
  auto stable = mfu_over_time(base, cfg, perturb, 2000, false, {}, rng2);
  // The drift run degrades over time; the fixed run does not.
  const double decayed_drop = decayed.y.front() - decayed.tail_mean(100);
  const double stable_drop = stable.y.front() - stable.tail_mean(100);
  EXPECT_GT(decayed_drop, stable_drop + 0.01);
  // Fixed-code MFU stays near the base value.
  EXPECT_NEAR(stable.tail_mean(100), base.mfu, 0.02);
}

TEST(Perturb, DifferentClusterSamplesGiveDifferentMfu) {
  // Figure 6: stochastic machine scheduling => inconsistent MFU across runs.
  const auto cfg = megascale_config(12288, 6144);
  const auto base = simulate_iteration(cfg);
  StragglerPopulation pop;
  std::vector<double> mfus;
  for (int trial = 0; trial < 5; ++trial) {
    Rng rng(100 + static_cast<std::uint64_t>(trial));
    auto speeds = sample_machine_speeds(cfg.gpus() / 8, pop, rng);
    mfus.push_back(fold_stragglers(base, cfg, speeds).mfu);
  }
  double lo = mfus[0], hi = mfus[0];
  for (double m : mfus) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_GT(hi - lo, 0.001);  // visible spread across trials
}

// ------------------------------------------------- release-safe checks
// Each of these would read past a table in Release, so it aborts with a
// message in every build mode. The CLIs call validate() first, so users
// see its error text instead.

TEST(EngineDeathTest, SimulateRejectsInvalidConfig) {
  auto cfg = base_config();
  cfg.global_batch = 255;  // not divisible by dp=4
  EXPECT_DEATH(simulate_iteration(cfg),
               "invalid JobConfig: global batch must divide");
}

TEST(EngineDeathTest, FoldRejectsShortSpeedVector) {
  const auto cfg = megascale_config();
  const auto base = simulate_iteration(cfg);
  const std::vector<double> speeds(static_cast<std::size_t>(cfg.gpus() / 8) - 1,
                                   1.0);
  EXPECT_DEATH(fold_stragglers(base, cfg, speeds), "machine_speed has");
}

TEST(EngineDeathTest, TrainingDaysRejectsNonPositiveRate) {
  EXPECT_DEATH(training_days(300e9, 0.0),
               "tokens_per_second must be positive");
  EXPECT_DEATH(training_days(300e9, -1.0),
               "tokens_per_second must be positive");
}

}  // namespace
}  // namespace ms::engine
