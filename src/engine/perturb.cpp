#include "engine/perturb.h"

#include <algorithm>
#include <cmath>

#include "core/fatal.h"

namespace ms::engine {

std::vector<double> sample_machine_speeds(int machines,
                                          const StragglerPopulation& pop,
                                          Rng& rng) {
  std::vector<double> speeds(static_cast<std::size_t>(machines));
  for (auto& s : speeds) {
    // Healthy machines: tight lognormal jitter around nominal.
    s = rng.lognormal(0.0, pop.jitter_sigma);
    if (rng.chance(pop.slow_fraction)) s *= pop.slow_factor;
  }
  return speeds;
}

namespace {

/// Fraction of the iteration that scales with compute speed.
double compute_fraction(const IterationResult& base) {
  if (base.iteration_time <= 0 || base.stage_compute_busy.empty()) return 1.0;
  double busy = 0;
  for (TimeNs t : base.stage_compute_busy) busy += static_cast<double>(t);
  busy /= static_cast<double>(base.stage_compute_busy.size());
  return std::clamp(busy / static_cast<double>(base.iteration_time), 0.0, 1.0);
}

}  // namespace

StragglerFold fold_stragglers(const IterationResult& base,
                              const JobConfig& cfg,
                              const std::vector<double>& machine_speed) {
  const int machines_per_replica =
      std::max(1, cfg.par.tp * cfg.par.pp / cfg.cluster.gpus_per_node);
  const int replicas = cfg.par.dp;
  // A short speed vector would be read past its end: a caller bug, so it
  // aborts with a message in every build mode.
  const int needed = machines_per_replica * replicas;
  MS_CHECK(static_cast<int>(machine_speed.size()) >= needed,
           "engine: fold_stragglers: machine_speed has %zu entries, needs %d "
           "(%d replicas x %d machines)",
           machine_speed.size(), needed, replicas, machines_per_replica);

  StragglerFold fold;
  fold.worst_factor = 0.0;
  for (int r = 0; r < replicas; ++r) {
    double worst = 0.0;
    for (int k = 0; k < machines_per_replica; ++k) {
      worst = std::max(
          worst, machine_speed[static_cast<std::size_t>(r * machines_per_replica + k)]);
    }
    fold.worst_factor = std::max(fold.worst_factor, worst);
  }
  for (double s : machine_speed) {
    if (s > 1.05) ++fold.slow_machines;
  }

  const double cf = compute_fraction(base);
  const double scale = cf * fold.worst_factor + (1.0 - cf);
  fold.iteration_time =
      static_cast<TimeNs>(static_cast<double>(base.iteration_time) * scale);
  fold.mfu = base.mfu * static_cast<double>(base.iteration_time) /
             static_cast<double>(fold.iteration_time);
  return fold;
}

Series mfu_over_time(const IterationResult& base, const JobConfig& cfg,
                     const PerturbConfig& perturb, int steps,
                     bool problematic_code,
                     const std::vector<double>& machine_speed, Rng& rng) {
  // Straggler baseline for this cluster sample.
  TimeNs base_iter = base.iteration_time;
  double base_mfu = base.mfu;
  if (!machine_speed.empty()) {
    const auto fold = fold_stragglers(base, cfg, machine_speed);
    base_iter = fold.iteration_time;
    base_mfu = fold.mfu;
  }

  const int replicas = std::max(1, cfg.par.dp);
  std::vector<double> walk(static_cast<std::size_t>(replicas), 0.0);

  Series series;
  series.name = "mfu";
  const double base_s = to_seconds(base_iter);
  for (int step = 0; step < steps; ++step) {
    double delay_s = 0.0;
    if (problematic_code) {
      // Each replica's launch-time stagger drifts as a random walk; the
      // collective waits for the most-staggered rank (§6.3: "fluctuating
      // reciprocally ... the size of this time stagger increased as more
      // steps were executed").
      double envelope = 0.0;
      for (auto& w : walk) {
        w += rng.normal(0.0, perturb.stagger_walk_sigma * base_s);
        envelope = std::max(envelope, std::fabs(w));
      }
      delay_s += envelope;
      if (rng.chance(perturb.gc_probability_per_step)) {
        delay_s += to_seconds(perturb.gc_pause);
      }
    }
    // Bounded jitter persists even on healthy code.
    delay_s += std::fabs(rng.normal(0.0, perturb.residual_jitter * base_s));

    const double iter_s = base_s + delay_s;
    series.add(static_cast<double>(step), base_mfu * base_s / iter_s);
  }
  return series;
}

}  // namespace ms::engine
