// Tests for the multi-hop congestion-control model: PFC cascades and
// head-of-line victim flows (§3.6).
#include <gtest/gtest.h>

#include <vector>

#include "net/ccsim.h"

namespace ms::net {
namespace {

MultiCcParams uncongested() {
  MultiCcParams p;
  p.hops = 3;
  p.flows = {{0, 2, 25e9}};  // one flow, plenty of capacity
  p.duration_s = 0.02;
  return p;
}

TEST(MultiCc, SingleFlowRunsAtLineRate) {
  auto r = run_multi_cc_sim(uncongested(),
                            [] { return std::make_unique<MegaScaleCc>(); });
  ASSERT_EQ(r.flow_goodput_frac.size(), 1u);
  EXPECT_GT(r.flow_goodput_frac[0], 0.9);
  for (double pause : r.hop_pause_fraction) EXPECT_DOUBLE_EQ(pause, 0.0);
}

TEST(MultiCc, GoodputNeverExceedsLineRate) {
  MultiCcParams p;
  p.hops = 2;
  for (int i = 0; i < 8; ++i) p.flows.push_back({0, 1, 25e9});
  p.duration_s = 0.02;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<Swift>(); });
  for (double g : r.flow_goodput_frac) {
    EXPECT_LE(g, 1.0 + 1e-9);
    EXPECT_GE(g, 0.0);
  }
}

TEST(MultiCc, BottleneckHopHasDeepestQueue) {
  MultiCcParams p;
  p.hops = 3;
  // Early hops can absorb even the initial full-line-rate burst, so with
  // PFC disabled the only queue that ever builds is the bottleneck's.
  // (With PFC on, upstream queues legitimately grow PAST the bottleneck's
  // while their egress is paused — that is what headroom buffers absorb.)
  p.hop_capacities = {500e9, 500e9, 25e9};
  p.pfc_pause = 1e18;  // disable PFC for this invariant
  p.pfc_resume = 1e18;
  for (int i = 0; i < 16; ++i) p.flows.push_back({0, 2, 25e9});
  p.duration_s = 0.02;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_GT(r.hop_max_queue[2], r.hop_max_queue[0]);
  EXPECT_GT(r.hop_max_queue[2], r.hop_max_queue[1]);
}

TEST(MultiCc, AggregateBoundedByBottleneck) {
  MultiCcParams p;
  p.hops = 2;
  p.hop_capacities = {100e9, 25e9};
  for (int i = 0; i < 8; ++i) p.flows.push_back({0, 1, 25e9});
  p.duration_s = 0.03;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<MegaScaleCc>(); });
  double delivered = 0;
  for (double g : r.flow_goodput_frac) delivered += g * 25e9;
  EXPECT_LE(delivered, 25e9 * 1.05);  // small slack for the drain tail
}

/// Heavy incast into a slow last hop with shallow buffers.
MultiCcParams cascade_params() {
  MultiCcParams p;
  p.hops = 3;
  p.hop_capacities = {200e9, 200e9, 25e9};
  p.pfc_pause = 600e3;
  p.pfc_resume = 500e3;
  for (int i = 0; i < 32; ++i) p.flows.push_back({0, 2, 25e9});
  p.duration_s = 0.02;
  return p;
}

TEST(MultiCc, PfcCascadePropagatesUpstream) {
  // The pause must reach hop 0's egress at least briefly (the cascade).
  auto r = run_multi_cc_sim(cascade_params(),
                            [] { return std::make_unique<Dcqcn>(); });
  EXPECT_GT(r.hop_pause_events[1], 0);  // hop1 paused by queue2
}

// ------------------------------------------------------- pinned outputs

// Pinned outputs of the multi-hop chain. Every field must stay
// bit-identical: chaos localization, `msdiag fabric` and the fabric
// observatory bench digest all read these runs. The literals carry 17
// significant digits, so they round-trip to the exact doubles.
struct MultiPin {
  std::vector<double> goodput;
  std::vector<double> pause_fraction;
  std::vector<int> pause_events;
  std::vector<double> max_queue;
};

void expect_pinned(const MultiCcResult& r, const MultiPin& pin) {
  EXPECT_EQ(r.flow_goodput_frac, pin.goodput);
  EXPECT_EQ(r.hop_pause_fraction, pin.pause_fraction);
  EXPECT_EQ(r.hop_pause_events, pin.pause_events);
  EXPECT_EQ(r.hop_max_queue, pin.max_queue);
}

TEST(MultiCcPinned, VictimSixteenDcqcn) {
  expect_pinned(
      run_multi_cc_sim(victim_params(16),
                       [] { return std::make_unique<Dcqcn>(); }),
      {{0.055327517139780999, 0.052662680768763848, 0.053897312084684131,
        0.056648403408140938, 0.053844416154469443, 0.054433817419696273,
        0.052190687670603531, 0.055624227377687803, 0.052545033687445154,
        0.056878273723639655, 0.057441155588428688, 0.052284378955951817,
        0.051167113972851001, 0.052507379846814084, 0.054962692061130226,
        0.053408389946030546, 0.95577702244085183},
       {0.0024666666666666661, 0.058466666666667659, 0},
       {1, 174, 0},
       {1452342.9392574262, 7746324.9229389234, 1400000}});
}

TEST(MultiCcPinned, VictimSixteenMegaScaleCc) {
  expect_pinned(
      run_multi_cc_sim(victim_params(16),
                       [] { return std::make_unique<MegaScaleCc>(); }),
      {{0.047506150624744135, 0.047502422774154403, 0.047455309190983126,
        0.047440194742079285, 0.047506150624744135, 0.047502422774154403,
        0.047455309190983126, 0.047446701141124904, 0.047506150624744135,
        0.047502422774154403, 0.047455309190983126, 0.047440194742079285,
        0.047506150624744135, 0.047502422774154403, 0.047455309190983126,
        0.047446701141124904, 0.97566229718975084},
       {0.0039333333333333286, 0.0018666666666666673, 0},
       {1, 4, 0},
       {1976013.648424889, 10504107.150496459, 1400000}});
}

TEST(MultiCcPinned, PfcCascade) {
  expect_pinned(
      run_multi_cc_sim(cascade_params(),
                       [] { return std::make_unique<Dcqcn>(); }),
      {{0.010695107528077437, 0.011785245737701613, 0.011708579834216854,
        0.011694853465196468, 0.011698924914172688, 0.011642900944355831,
        0.011522804607846375, 0.011287280272498796, 0.010915783838399735,
        0.012081510929723083, 0.010384298387747581, 0.011420019427891117,
        0.010164841845020827, 0.011819260102252515, 0.011814690529683437,
        0.010939464300892047, 0.011045744978111517, 0.011004003533651628,
        0.011646057520145511, 0.012543420948470727, 0.011924403769232039,
        0.0099292489140075171, 0.010625233365429877, 0.0097862886389652494,
        0.011843578849859116, 0.013264997404404873, 0.010539429812850451,
        0.011546221160380924, 0.011769034566732976, 0.011733069461614771,
        0.011549984935166511, 0.011300441771497853},
       {0.014799999999999969, 0.60140000000004734, 0},
       {139, 1749, 0},
       {14917287.737668812, 800000, 750000}});
}

// ---------------------------------------------------------------- victim

TEST(Victim, InnocentFlowHurtByPfcCollateral) {
  // The victim shares NO queue with the incast; any slowdown is pure PFC.
  auto r = run_victim_scenario(32, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_LT(r.victim_goodput, 0.99);
  EXPECT_GT(r.victim_goodput, 0.5);
}

TEST(Victim, HybridProtectsVictimBetterThanDcqcn) {
  for (int senders : {16, 32, 64}) {
    auto dcqcn =
        run_victim_scenario(senders, [] { return std::make_unique<Dcqcn>(); });
    auto hybrid = run_victim_scenario(
        senders, [] { return std::make_unique<MegaScaleCc>(); });
    EXPECT_GT(hybrid.victim_goodput, dcqcn.victim_goodput)
        << senders << " senders";
  }
}

TEST(Victim, NoIncastMeansNoCollateral) {
  auto r = run_victim_scenario(1, [] { return std::make_unique<MegaScaleCc>(); });
  EXPECT_GT(r.victim_goodput, 0.95);
}

TEST(MultiCcDeathTest, RejectsBadChains) {
  const auto make = [] { return std::make_unique<Dcqcn>(); };
  auto p = uncongested();
  p.hops = 0;
  p.flows = {{0, 0, 25e9}};
  EXPECT_DEATH(run_multi_cc_sim(p, make), "hops must be >= 1");
  p = uncongested();
  p.flows.clear();
  EXPECT_DEATH(run_multi_cc_sim(p, make), "at least one flow");
  // A flow past the last hop would read outside the queue history.
  p = uncongested();
  p.flows = {{0, 3, 25e9}};
  EXPECT_DEATH(run_multi_cc_sim(p, make), "flow 0 spans hops \\[0, 3\\]");
  p.flows = {{-1, 1, 25e9}};
  EXPECT_DEATH(run_multi_cc_sim(p, make), "flow 0 spans hops");
  p.flows = {{2, 1, 25e9}};
  EXPECT_DEATH(run_multi_cc_sim(p, make), "flow 0 spans hops");
  p = uncongested();
  p.hop_capacities = {100e9, 100e9};  // three hops
  EXPECT_DEATH(run_multi_cc_sim(p, make),
               "hop_capacities must be empty or have one entry per hop");
  p = uncongested();
  p.step_s = -1e-6;
  EXPECT_DEATH(run_multi_cc_sim(p, make), "step_s must be positive");
}

}  // namespace
}  // namespace ms::net
