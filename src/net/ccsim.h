// Congestion-control simulator (MegaScale §3.6 "Congestion control").
//
// The paper observes that default DCQCN under all-to-all traffic drives
// deep switch queues, triggers Priority Flow Control (PFC) pauses and
// head-of-line blocking; they deploy a hybrid algorithm combining Swift's
// precise RTT measurement with DCQCN's fast ECN response.
//
// One time-stepped fluid engine reproduces the mechanism over a chain of
// switch egress queues ("parking lot"): flow f enters at `first_hop` and
// leaves after `last_hop`. Per step each queue integrates arrivals minus
// service, and the flows crossing it are shaped to their FIFO share of what
// it served. ECN marks with a RED-style ramp on every hop of a flow's path.
// Each flow runs a pluggable congestion controller fed with (RTT, ECN)
// feedback delayed by one base RTT.
//
// PFC rule: queue h latches a pause when it holds more than `pfc_pause`
// bytes and releases it below `pfc_resume`. For h > 0 the pause stops hop
// h-1's egress, and a paused egress serves nobody, including flows that
// leave the chain there: that is how a pause cascades upstream onto
// innocent flows. Queue 0 has no upstream queue. Whether its pause stops
// the senders is fixed by the entry point:
//   * run_cc_sim, the single-bottleneck incast (the one-hop chain): yes.
//     Every sender stops injecting, which is the HoL collateral damage,
//     and no feedback arrives while they are stopped.
//   * run_multi_cc_sim, the multi-hop chain: never. Senders are not
//     paused; queue 0 just keeps growing.
#pragma once
// ms-lint: allow-file(raw-seconds): the fluid model integrates rate * dt in
// double seconds by design; TimeNs applies at event-scheduling boundaries.
// ms-lint: allow-file(unit-literal): parameter defaults are physical values
// (bytes/s, bytes, seconds), not unit-conversion factors.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/time.h"
#include "core/units.h"

namespace ms::telemetry {
class MetricsRegistry;
}  // namespace ms::telemetry

namespace ms::net::fabric {
class FabricObservatory;
}  // namespace ms::net::fabric

namespace ms::net {

struct CcFeedback {
  double rtt_s = 0;       // measured round-trip time, seconds
  bool ecn = false;       // ECN-CE observed on this feedback
  double line_rate = 0;   // bytes/s
  double dt = 0;          // feedback interval, seconds
};

/// Per-sender congestion controller. Stateful; one instance per sender.
class CcAlgorithm {
 public:
  virtual ~CcAlgorithm() = default;
  virtual std::string name() const = 0;
  /// Initial sending rate (bytes/s) given the NIC line rate.
  virtual double initial_rate(double line_rate) const { return line_rate; }
  /// Consumes one feedback sample, returns the new sending rate (bytes/s).
  virtual double on_feedback(double current_rate, const CcFeedback& fb) = 0;
};

/// DCQCN (Zhu et al., SIGCOMM'15), simplified: ECN-fraction EWMA `alpha`,
/// multiplicative decrease on mark, fast-recovery then additive increase.
class Dcqcn : public CcAlgorithm {
 public:
  std::string name() const override { return "DCQCN"; }
  double on_feedback(double current_rate, const CcFeedback& fb) override;

 private:
  double alpha_ = 1.0;
  double target_rate_ = 0;
  int recovery_stage_ = 0;
  double since_decrease_s_ = 0;
};

/// Swift (Kumar et al., SIGCOMM'20), simplified: delay-target AIMD with
/// multiplicative decrease proportional to delay overshoot.
class Swift : public CcAlgorithm {
 public:
  explicit Swift(double target_delay_s = 20e-6) : target_delay_s_(target_delay_s) {}
  std::string name() const override { return "Swift"; }
  double on_feedback(double current_rate, const CcFeedback& fb) override;

 private:
  double target_delay_s_;
  double since_decrease_s_ = 0;
};

/// MegaScale's hybrid: ECN provides the fast brake (multiplicative decrease
/// before the queue ever reaches the PFC threshold), RTT provides the fine
/// control that lets the rate sit just under the bandwidth-delay product
/// instead of oscillating.
class MegaScaleCc : public CcAlgorithm {
 public:
  explicit MegaScaleCc(double target_delay_s = 15e-6)
      : target_delay_s_(target_delay_s) {}
  std::string name() const override { return "MegaScaleCC"; }
  double on_feedback(double current_rate, const CcFeedback& fb) override;

 private:
  double target_delay_s_;
  double ecn_ewma_ = 1.0;  // assume congestion until told otherwise
};

struct CcSimParams {
  int senders = 16;
  double line_rate = 25e9;           // bytes/s (200 Gb/s NIC)
  double bottleneck_rate = 50e9;     // bytes/s (shared egress)
  double base_rtt_s = 8e-6;
  double step_s = 2e-6;
  double duration_s = 0.05;
  // RED-style ECN marking thresholds (bytes of queue). Defaults mirror a
  // shallow-headroom production DCQCN config: marking starts late and caps
  // at 10%, which is exactly the regime where DCQCN lets the queue reach
  // the PFC threshold under heavy incast (the paper's observation).
  double ecn_kmin = 400e3;
  double ecn_kmax = 1600e3;
  double ecn_pmax = 0.1;
  // PFC pause/resume thresholds (bytes of queue).
  double pfc_pause = 2000e3;
  double pfc_resume = 1600e3;
  /// Optional telemetry (not owned): queue-depth histogram, ECN-mark and
  /// PFC-pause counters, utilization/pause-fraction gauges — all labeled
  /// {algo=<controller>}.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Optional fabric observatory (not owned, strictly passive): the shared
  /// egress registers under `observatory_link` and every step's queue
  /// depth, served bytes, ECN marks and PFC pause time feed its series.
  fabric::FabricObservatory* observatory = nullptr;
  std::string observatory_link = "incast-egress";
};

struct CcSimResult {
  std::string algorithm;
  double utilization = 0;        // served / (bottleneck * duration)
  double mean_queue_bytes = 0;
  double p99_queue_bytes = 0;
  double pfc_pause_fraction = 0; // fraction of time senders were paused
  int pfc_pause_events = 0;
  double fairness = 0;           // Jain index over per-sender sent bytes
};

/// Runs the incast: `senders` flows into one shared egress, whose PFC pause
/// stops every sender. `make_algorithm` is invoked once per sender.
/// Aborts with a message unless senders >= 1 and step_s > 0.
CcSimResult run_cc_sim(const CcSimParams& params,
                       const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm);

// ------------------------------------------------- multi-hop PFC chain
//
// The single bottleneck shows queue depth and pause time. What it cannot
// show is WHY PFC is so damaging in a fabric: a pause frame stops the
// upstream port's entire egress, so flows that never touch the congested
// queue stall behind the ones that do.

struct MultiHopFlow {
  int first_hop = 0;
  int last_hop = 0;  // inclusive
  double line_rate = 25e9;
};

struct MultiCcParams {
  int hops = 3;
  double hop_capacity = 50e9;   // bytes/s service per queue (default)
  /// Optional per-hop override (size == hops); empty = uniform.
  std::vector<double> hop_capacities;
  double base_rtt_s = 8e-6;
  double step_s = 2e-6;
  double duration_s = 0.03;
  double ecn_kmin = 400e3;
  double ecn_kmax = 1600e3;
  double ecn_pmax = 0.1;
  double pfc_pause = 2000e3;
  double pfc_resume = 1600e3;
  std::vector<MultiHopFlow> flows;
  /// Optional fabric observatory (not owned, strictly passive). Each hop
  /// registers as "<prefix><i>"; flows register their hop lists and their
  /// delivered bytes are attributed across the path, so a PFC storm at the
  /// bottleneck hop is localizable from the recorded series alone.
  fabric::FabricObservatory* observatory = nullptr;
  std::string observatory_link_prefix = "hop";
};

struct MultiCcResult {
  /// Delivered bytes / (line_rate * duration) per flow.
  std::vector<double> flow_goodput_frac;
  /// Fraction of time each hop's egress was paused by downstream PFC.
  std::vector<double> hop_pause_fraction;
  /// Pause events observed at each hop.
  std::vector<int> hop_pause_events;
  /// Max queue depth per hop (bytes).
  std::vector<double> hop_max_queue;
};

/// Runs the chain with one congestion controller per flow. Hop 0's PFC
/// never pauses the senders (see the PFC rule above). Aborts with a
/// message unless hops >= 1, there is at least one flow, every flow has
/// 0 <= first_hop <= last_hop < hops, hop_capacities is empty or has one
/// entry per hop, and step_s > 0.
MultiCcResult run_multi_cc_sim(
    const MultiCcParams& params,
    const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm);

/// The §3.6 victim scenario: `incast_senders` flows cross hops 1..2 and
/// congest the last one; one victim flow uses only the first hop. Returns
/// {victim goodput fraction, incast aggregate goodput fraction,
/// first-hop pause fraction}.
struct VictimReport {
  double victim_goodput = 0;
  double incast_goodput = 0;
  double first_hop_pause_fraction = 0;
};
VictimReport run_victim_scenario(
    int incast_senders,
    const std::function<std::unique_ptr<CcAlgorithm>()>& make_algorithm);

/// The parameter set run_victim_scenario() uses: 3 hops with the LAST one
/// the 25 GB/s bottleneck, shallow-buffer PFC thresholds, `incast_senders`
/// flows over hops 1..2 plus one victim on hop 0 only. Exposed so callers
/// (chaos localization, `msdiag fabric`) can attach an observatory or
/// rescale thresholds before running run_multi_cc_sim() themselves.
MultiCcParams victim_params(int incast_senders);

}  // namespace ms::net
