#include "net/ccsim.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/audit.h"
#include "prof/profiler.h"
#include "core/rng.h"
#include "core/stats.h"
#include "net/fabric/observatory.h"
#include "telemetry/metrics.h"

namespace ms::net {

namespace {
constexpr double kMinRateFraction = 0.001;  // floor: 0.1% of line rate
}  // namespace

// ----------------------------------------------------------------- DCQCN

double Dcqcn::on_feedback(double current_rate, const CcFeedback& fb) {
  constexpr double kG = 1.0 / 16.0;
  constexpr double kIncreasePeriodS = 55e-6;
  alpha_ = (1.0 - kG) * alpha_ + kG * (fb.ecn ? 1.0 : 0.0);
  double rate = current_rate;
  if (fb.ecn) {
    target_rate_ = current_rate;
    rate = current_rate * (1.0 - alpha_ / 2.0);
    recovery_stage_ = 0;
    since_decrease_s_ = 0;
  } else {
    since_decrease_s_ += fb.dt;
    if (target_rate_ <= 0) target_rate_ = fb.line_rate;
    if (since_decrease_s_ >= kIncreasePeriodS) {
      since_decrease_s_ = 0;
      if (recovery_stage_ < 5) {
        // Fast recovery: climb back toward the pre-decrease rate.
        ++recovery_stage_;
      } else {
        // Additive increase phase: raise the target itself.
        target_rate_ += 0.02 * fb.line_rate;
      }
      rate = (current_rate + target_rate_) / 2.0;
    }
  }
  return std::clamp(rate, kMinRateFraction * fb.line_rate, fb.line_rate);
}

// ----------------------------------------------------------------- Swift

double Swift::on_feedback(double current_rate, const CcFeedback& fb) {
  // Feedback arrives once per RTT, so one decrease per feedback already
  // matches Swift's "at most one multiplicative decrease per RTT".
  constexpr double kBeta = 0.8;
  constexpr double kMaxMdf = 0.5;
  double rate = current_rate;
  since_decrease_s_ += fb.dt;
  if (fb.rtt_s > target_delay_s_) {
    const double overshoot = (fb.rtt_s - target_delay_s_) / fb.rtt_s;
    rate = current_rate * std::max(1.0 - kBeta * overshoot, 1.0 - kMaxMdf);
    since_decrease_s_ = 0;
  } else {
    // Additive increase per RTT.
    rate = current_rate + 0.004 * fb.line_rate;
  }
  return std::clamp(rate, kMinRateFraction * fb.line_rate, fb.line_rate);
}

// ------------------------------------------------------------ MegaScaleCC

double MegaScaleCc::on_feedback(double current_rate, const CcFeedback& fb) {
  constexpr double kG = 1.0 / 8.0;
  ecn_ewma_ = (1.0 - kG) * ecn_ewma_ + kG * (fb.ecn ? 1.0 : 0.0);
  double rate = current_rate;
  if (fb.ecn) {
    // Fast ECN brake (DCQCN-style) — the emergency response that fires
    // within one feedback interval of the queue crossing the mark point.
    rate = current_rate * (1.0 - 0.3 * std::max(ecn_ewma_, 0.25));
  } else if (fb.rtt_s > target_delay_s_) {
    // Precise RTT-proportional trim (Swift-style), once per RTT.
    const double overshoot = (fb.rtt_s - target_delay_s_) / fb.rtt_s;
    rate = current_rate * (1.0 - 0.8 * overshoot);
  } else {
    // Headroom-proportional additive increase per RTT.
    const double headroom = (target_delay_s_ - fb.rtt_s) / target_delay_s_;
    rate = current_rate + (0.002 + 0.008 * headroom) * fb.line_rate;
  }
  return std::clamp(rate, kMinRateFraction * fb.line_rate, fb.line_rate);
}

// ---------------------------------------------------------------- engine

namespace {

constexpr double kMtu = 4096.0;

using MakeAlgorithm = std::function<std::unique_ptr<CcAlgorithm>()>;

// A bad config is a wiring bug with no sane fallback (a flow past the last
// hop would read outside the queue history), so it aborts with a message in
// every build mode instead of through an assert that NDEBUG compiles out.
void require(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "ccsim: %s\n", what.c_str());
  std::abort();
}

void validate(const MultiCcParams& p) {
  require(p.hops >= 1, "hops must be >= 1, got " + std::to_string(p.hops));
  require(!p.flows.empty(), "at least one flow is required");
  require(p.hop_capacities.empty() ||
              p.hop_capacities.size() == static_cast<std::size_t>(p.hops),
          "hop_capacities must be empty or have one entry per hop");
  require(p.step_s > 0, "step_s must be positive");
  for (std::size_t f = 0; f < p.flows.size(); ++f) {
    const MultiHopFlow& flow = p.flows[f];
    require(0 <= flow.first_hop && flow.first_hop <= flow.last_hop &&
                flow.last_hop < p.hops,
            "flow " + std::to_string(f) + " spans hops [" +
                std::to_string(flow.first_hop) + ", " +
                std::to_string(flow.last_hop) +
                "]; need 0 <= first_hop <= last_hop < hops");
  }
}

/// Passive observers of one run: nothing here feeds back into it.
struct Taps {
  std::vector<int> link;  ///< observatory link per hop
  /// Observatory flow record per flow. Empty means no flow ledger: each
  /// link then records the bytes its queue served as its tx.
  std::vector<int> flow;
  std::vector<double>* queue0 = nullptr;  ///< gets hop 0's queue every step
};

/// What one run of the engine accumulates.
struct ChainTotals {
  std::string algorithm;
  std::vector<double> sent;       ///< per flow: bytes injected
  std::vector<double> delivered;  ///< per flow: bytes out of its last hop
  std::vector<double> served;     ///< per hop: bytes served
  std::vector<double> queue;      ///< per hop: depth at the end (bytes)
  std::vector<double> max_queue;  ///< per hop (bytes)
  /// Per queue h: time its PFC pause held and how often it latched. Entry
  /// `hops` stays zero: nothing pauses the last hop's egress.
  std::vector<double> pause_time;
  std::vector<int> pause_events;
  long ecn_marks = 0;
};

/// The one time-stepped loop behind run_cc_sim and run_multi_cc_sim, over
/// a validated chain. `pause_hosts` says whether queue 0's PFC pause stops
/// the senders; `seed` seeds the ECN draws.
ChainTotals run_chain(const MultiCcParams& p, const MakeAlgorithm& make,
                      std::uint64_t seed, bool pause_hosts, const Taps& taps) {
  MS_PROF_SCOPE("ccsim.run");
  const std::size_t hops = static_cast<std::size_t>(p.hops);
  const std::size_t n = p.flows.size();
  const double dt = p.step_s;
  const int steps = static_cast<int>(p.duration_s / dt);
  const int rtt_steps = std::max(1, static_cast<int>(p.base_rtt_s / dt));
  std::vector<double> capacity = p.hop_capacities;
  if (capacity.empty()) capacity.assign(hops, p.hop_capacity);

  std::vector<std::unique_ptr<CcAlgorithm>> algos;
  std::vector<double> rate(n);
  for (std::size_t f = 0; f < n; ++f) {
    algos.push_back(make());
    rate[f] = algos.back()->initial_rate(p.flows[f].line_rate);
  }

  ChainTotals t;
  t.algorithm = algos.front()->name();
  t.sent.assign(n, 0.0);
  t.delivered.assign(n, 0.0);
  t.served.assign(hops, 0.0);
  t.queue.assign(hops, 0.0);
  t.max_queue.assign(hops, 0.0);
  t.pause_time.assign(hops + 1, 0.0);
  t.pause_events.assign(hops + 1, 0);
  std::vector<char> pfc(hops + 1, 0);  // pfc[h]: queue h pauses upstream
  std::vector<double> forwarded(n);    // flow rate after shaping so far
  std::vector<double> delay(hops);     // queueing-delay term of the RTT
  std::vector<double> mark(hops);      // RED mark probability
  std::vector<std::vector<std::size_t>> crossing(hops);  // in index order
  for (std::size_t f = 0; f < n; ++f) {
    for (int h = p.flows[f].first_hop; h <= p.flows[f].last_hop; ++h) {
      crossing[static_cast<std::size_t>(h)].push_back(f);
    }
  }
  // Queue history for the delayed feedback: a ring of rtt_steps + 2 rows.
  // Step s writes row (s + 1) % rows before it reads row (s - rtt_steps) %
  // rows, so one row fewer would overwrite the row about to be read. Row 0
  // holds the empty queues that feedback sees during the first RTT.
  const std::size_t rows = static_cast<std::size_t>(rtt_steps) + 2;
  std::vector<double> history(rows * hops, 0.0);
  Rng rng(seed);
  fabric::FabricObservatory* obs = p.observatory;

  for (int step = 0; step < steps; ++step) {
    const bool hosts_paused = pause_hosts && pfc[0] != 0;
    const TimeNs now =
        obs != nullptr ? seconds(static_cast<double>(step) * dt) : 0;
    for (std::size_t h = 0; h < hops; ++h) {
      if (pfc[h] != 0) t.pause_time[h] += dt;
    }

    // --- data plane: inject, then serve and shape hop by hop (fluid FIFO)
    for (std::size_t f = 0; f < n; ++f) {
      forwarded[f] = hosts_paused ? 0.0 : rate[f];
      t.sent[f] += forwarded[f] * dt;
    }
    double* row = history.data() +
                  (static_cast<std::size_t>(step) + 1) % rows * hops;
    for (std::size_t h = 0; h < hops; ++h) {
      // Arrivals are summed as rates and only then turned into bytes. The
      // sum stays local to its loop: live across the audit calls below, gcc
      // keeps it in memory and every add waits on a store.
      double rate_in = 0;
      for (std::size_t f : crossing[h]) rate_in += forwarded[f];
      const double arrived = rate_in * dt;
      const double service = pfc[h + 1] != 0 ? 0.0 : capacity[h];
      double& q = t.queue[h];
      const double backlog = q + arrived;
      const double served = std::min(backlog, service * dt);
      q = backlog - served;
      row[h] = q;
      t.served[h] += served;
      t.max_queue[h] = std::max(t.max_queue[h], q);
      MS_AUDIT("net.ccsim", "queue_nonnegative", q >= 0.0,
               "hop " + std::to_string(h) + " queue at " + std::to_string(q) +
                   " bytes in step " + std::to_string(step));
      MS_AUDIT("net.ccsim", "byte_conservation",
               served <= backlog * (1.0 + 1e-9) + 1e-6,
               "hop " + std::to_string(h) + " served " +
                   std::to_string(served) + " of " + std::to_string(backlog) +
                   " bytes");
      if (obs != nullptr) {
        const int link = taps.link[h];
        if (taps.flow.empty()) obs->record_tx(link, now, served);
        obs->record_queue(link, now, q);
        obs->record_active_flows(
            link, now, hosts_paused ? 0 : static_cast<int>(crossing[h].size()));
        if (pfc[h + 1] != 0) obs->record_pause(link, now, seconds(dt));
      }
      // Flows crossing this hop get their FIFO share of what it actually
      // served (HoL: everyone shares the same fate). A share of 1 or more
      // leaves them as they are.
      const double share = arrived > 0 ? served / arrived : 1.0;
      if (share < 1.0) {
        for (std::size_t f : crossing[h]) forwarded[f] *= share;
      }
    }
    for (std::size_t f = 0; f < n; ++f) t.delivered[f] += forwarded[f] * dt;
    if (taps.queue0 != nullptr) taps.queue0->push_back(t.queue[0]);
    if (obs != nullptr) {
      // The senders have no link of their own: their pause shows on hop 0.
      if (hosts_paused) obs->record_pause(taps.link[0], now, seconds(dt));
      // Delivered bytes charge every hop of the flow's path (the per-link
      // tx series and the per-flow ledger share one attribution source).
      for (std::size_t f = 0; f < taps.flow.size(); ++f) {
        obs->attribute_flow_bytes(taps.flow[f], now, forwarded[f] * dt);
      }
    }

    // --- PFC: a queue over the pause mark pauses its upstream ---
    for (std::size_t h = pause_hosts ? 0 : 1; h < hops; ++h) {
      const double q = t.queue[h];
      if (pfc[h] == 0 && q > p.pfc_pause) {
        pfc[h] = 1;
        ++t.pause_events[h];
        if (obs != nullptr) {
          obs->record_pause(taps.link[h == 0 ? 0 : h - 1], now, 0, 1);
        }
      } else if (pfc[h] != 0 && q < p.pfc_resume) {
        pfc[h] = 0;
      }
      // Bounded PFC state: the pause latch only holds above the resume mark.
      MS_AUDIT("net.ccsim", "pfc_state_bounded",
               pfc[h] == 0 || q >= p.pfc_resume,
               "hop " + std::to_string(h) + " paused at " + std::to_string(q) +
                   " bytes, below resume " + std::to_string(p.pfc_resume));
    }

    // --- control plane: per-RTT feedback, staggered across flows ---
    // Each flow receives one ACK batch per base RTT, reflecting the queues
    // one RTT ago (the feedback delay). While PFC has the senders paused
    // there is no ACK clock, so no feedback is processed.
    if (pause_hosts && pfc[0] != 0) continue;
    const double* fb_queue =
        history.data() +
        static_cast<std::size_t>(std::max(0, step - rtt_steps)) % rows * hops;
    for (std::size_t h = 0; h < hops; ++h) {
      const double q = fb_queue[h];
      delay[h] = q / capacity[h];
      // Per-packet RED marking probability at that queue depth.
      mark[h] = 0;
      if (q > p.ecn_kmax) {
        mark[h] = 1.0;
      } else if (q > p.ecn_kmin) {
        mark[h] = p.ecn_pmax * (q - p.ecn_kmin) / (p.ecn_kmax - p.ecn_kmin);
      }
      MS_AUDIT("net.ccsim", "ecn_mark_probability_bounded",
               mark[h] >= 0.0 && mark[h] <= 1.0,
               "RED mark probability " + std::to_string(mark[h]) +
                   " at hop " + std::to_string(h) + " queue " +
                   std::to_string(q));
    }
    // The flows whose staggered phase comes up this step, in index order.
    const std::size_t stride = static_cast<std::size_t>(rtt_steps);
    for (std::size_t f = (stride - static_cast<std::size_t>(step) % stride) %
                         stride;
         f < n; f += stride) {
      const MultiHopFlow& flow = p.flows[f];
      const std::size_t first = static_cast<std::size_t>(flow.first_hop);
      const std::size_t last = static_cast<std::size_t>(flow.last_hop);
      // Probability that at least one packet of this flow's last RTT worth
      // of traffic was marked on some hop of its path.
      const double packets = std::max(1.0, rate[f] * p.base_rtt_s / kMtu);
      double rtt = p.base_rtt_s;
      double no_mark = 1.0;
      for (std::size_t h = first; h <= last; ++h) {
        rtt += delay[h];
        if (mark[h] != 0.0) no_mark *= std::pow(1.0 - mark[h], packets);
      }
      const CcFeedback fb{rtt, rng.chance(1.0 - no_mark), flow.line_rate,
                          p.base_rtt_s};
      if (fb.ecn) {
        ++t.ecn_marks;
        if (obs != nullptr) {
          // Charge the mark to the deepest queue on the flow's path: the
          // hop that did the marking with overwhelming probability.
          std::size_t marked = first;
          for (std::size_t h = first; h <= last; ++h) {
            if (fb_queue[h] > fb_queue[marked]) marked = h;
          }
          obs->record_ecn(taps.link[marked], now, 1.0);
        }
      }
      rate[f] = algos[f]->on_feedback(rate[f], fb);
      MS_AUDIT("net.ccsim", "rate_within_line_rate",
               rate[f] >= 0.0 && rate[f] <= flow.line_rate * (1.0 + 1e-9),
               t.algorithm + " flow " + std::to_string(f) + " set rate " +
                   std::to_string(rate[f]) + " B/s over line rate " +
                   std::to_string(flow.line_rate));
    }
  }
  return t;
}

}  // namespace

// ----------------------------------------------------------- entry points

CcSimResult run_cc_sim(const CcSimParams& params,
                       const MakeAlgorithm& make_algorithm) {
  require(params.senders >= 1,
          "senders must be >= 1, got " + std::to_string(params.senders));
  const MultiCcParams chain{
      .hops = 1,
      .hop_capacity = params.bottleneck_rate,
      .base_rtt_s = params.base_rtt_s,
      .step_s = params.step_s,
      .duration_s = params.duration_s,
      .ecn_kmin = params.ecn_kmin,
      .ecn_kmax = params.ecn_kmax,
      .ecn_pmax = params.ecn_pmax,
      .pfc_pause = params.pfc_pause,
      .pfc_resume = params.pfc_resume,
      .flows = std::vector<MultiHopFlow>(
          static_cast<std::size_t>(params.senders), {0, 0, params.line_rate}),
      .observatory = params.observatory};
  validate(chain);
  std::vector<double> queue_trace;
  Taps taps{.queue0 = &queue_trace};
  if (params.observatory != nullptr) {
    taps.link = {params.observatory->add_link(params.observatory_link,
                                              params.bottleneck_rate)};
  }
  const ChainTotals t = run_chain(
      chain, make_algorithm,
      0xCC51u + static_cast<std::uint64_t>(params.senders),
      /*pause_hosts=*/true, taps);

  CcSimResult result;
  result.algorithm = t.algorithm;
  result.utilization =
      t.served[0] / (params.bottleneck_rate * params.duration_s);
  RunningStat queue_stat;
  Percentiles queue_pct;
  for (double q : queue_trace) {
    queue_stat.add(q);
    queue_pct.add(q);
  }
  result.mean_queue_bytes = queue_stat.mean();
  result.p99_queue_bytes = queue_pct.p99();
  result.pfc_pause_fraction = t.pause_time[0] / params.duration_s;
  result.pfc_pause_events = t.pause_events[0];

  if (params.metrics != nullptr) {
    auto& m = *params.metrics;
    const telemetry::Labels algo_labels{{"algo", t.algorithm}};
    auto& queue_hist = m.histogram("ccsim_queue_bytes", algo_labels);
    for (double q : queue_trace) queue_hist.observe(q);
    m.counter("ccsim_ecn_marks_total", algo_labels)
        .add(static_cast<double>(t.ecn_marks));
    m.counter("ccsim_pfc_pause_events_total", algo_labels)
        .add(static_cast<double>(t.pause_events[0]));
    m.gauge("ccsim_pfc_pause_fraction", algo_labels)
        .set(result.pfc_pause_fraction);
    m.gauge("ccsim_queue_depth_bytes", algo_labels).set(t.queue[0]);
    m.gauge("ccsim_utilization", algo_labels).set(result.utilization);
  }

  // Jain fairness over per-sender sent bytes.
  double sum = 0, sum_sq = 0;
  for (double s : t.sent) {
    sum += s;
    sum_sq += s * s;
  }
  result.fairness =
      sum_sq > 0
          ? (sum * sum) / (static_cast<double>(params.senders) * sum_sq)
          : 1.0;
  return result;
}

MultiCcResult run_multi_cc_sim(const MultiCcParams& params,
                               const MakeAlgorithm& make_algorithm) {
  validate(params);
  // Fabric observatory hooks (strictly passive). Hops register as links;
  // flows register their hop lists so delivered bytes stay attributable.
  Taps taps;
  if (params.observatory != nullptr) {
    for (std::size_t h = 0; h < static_cast<std::size_t>(params.hops); ++h) {
      taps.link.push_back(params.observatory->add_link(
          params.observatory_link_prefix + std::to_string(h),
          params.hop_capacities.empty() ? params.hop_capacity
                                        : params.hop_capacities[h]));
    }
    for (std::size_t f = 0; f < params.flows.size(); ++f) {
      std::vector<int> path;
      for (int h = params.flows[f].first_hop; h <= params.flows[f].last_hop;
           ++h) {
        path.push_back(taps.link[static_cast<std::size_t>(h)]);
      }
      taps.flow.push_back(params.observatory->record_flow_path(f, path));
    }
  }
  const ChainTotals t = run_chain(params, make_algorithm, 0xCCA11,
                                  /*pause_hosts=*/false, taps);

  MultiCcResult result;
  for (std::size_t f = 0; f < params.flows.size(); ++f) {
    result.flow_goodput_frac.push_back(
        t.delivered[f] / (params.flows[f].line_rate * params.duration_s));
  }
  // Hop h's egress is paused by the PFC of queue h + 1.
  for (std::size_t h = 0; h < t.queue.size(); ++h) {
    result.hop_pause_fraction.push_back(t.pause_time[h + 1] /
                                        params.duration_s);
    result.hop_pause_events.push_back(t.pause_events[h + 1]);
    result.hop_max_queue.push_back(t.max_queue[h]);
  }
  return result;
}

MultiCcParams victim_params(int incast_senders) {
  MultiCcParams params;
  params.hops = 3;
  // First hops have headroom; the LAST hop is the bottleneck (a slow
  // receiver or a hashing hot spot): that is where the queue builds and
  // where PFC pause frames start cascading upstream.
  params.hop_capacities = {200e9, 200e9, 25e9};
  // Shallow-buffer ToR: per-priority headroom of ~1.2 MB before PFC.
  params.pfc_pause = 1200e3;
  params.pfc_resume = 1000e3;
  // Incast enters at hop 1 and collides at hop 2; the victim uses ONLY
  // hop 0 and shares no queue with the incast. Any victim slowdown is pure
  // PFC collateral: queue2 over threshold pauses hop1, queue1 then builds
  // and pauses hop0 — the victim's hop — even though the victim's own path
  // has abundant capacity.
  for (int i = 0; i < incast_senders; ++i) {
    params.flows.push_back({1, 2, 25e9});
  }
  params.flows.push_back({0, 0, 25e9});
  return params;
}

VictimReport run_victim_scenario(int incast_senders,
                                 const MakeAlgorithm& make_algorithm) {
  const auto result =
      run_multi_cc_sim(victim_params(incast_senders), make_algorithm);
  VictimReport report;
  report.victim_goodput = result.flow_goodput_frac.back();
  // Fraction of the 25 GB/s bottleneck the incast aggregate achieved (every
  // incast flow's line rate is the bottleneck's rate).
  for (int i = 0; i < incast_senders; ++i) {
    report.incast_goodput +=
        result.flow_goodput_frac[static_cast<std::size_t>(i)];
  }
  report.first_hop_pause_fraction = result.hop_pause_fraction.front();
  return report;
}

}  // namespace ms::net
