#include "plan/plan_cli.h"

#include <cstdio>
#include <ostream>

#include "core/cli.h"
#include "diag/artifact.h"
#include "engine/job.h"
#include "plan/planner.h"

namespace ms::plan {

std::string msplan_usage() {
  return
      "usage: msplan --model 175b|530b|13b --gpus N [--batch B]\n"
      "              [--top-k K] [--top N] [--net-eff X|auto] [--baseline]\n"
      "              [--schedule 1f1b|gpipe] [--recompute-search]\n"
      "              [--json FILE] [--no-sim]\n"
      "  searches the (TP x PP x DP x vpp x recompute) space for the given\n"
      "  model and cluster size: analytic pruning (bubble fraction, alpha-\n"
      "  beta communication volume, memory), then DES validation of the\n"
      "  top-K finalists; prints the ranked table and the winning JobConfig\n"
      "  and optionally writes the full JSONL report with its digest\n";
}

int msplan_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  PlanSpec spec;
  PlannerOptions opt;
  std::string model_name = "175b";
  std::string json_path;
  std::string net_eff = "auto";
  std::string schedule = "1f1b";
  bool baseline = false;
  int top_rows = 10;
  spec.gpus = 0;
  spec.global_batch = 0;

  cli::Parser parser("msplan", msplan_usage());
  parser.flag("--model", model_name)
      .flag("--gpus", spec.gpus)
      .flag("--batch", spec.global_batch)
      .flag("--top-k", opt.top_k)
      .flag("--top", top_rows)
      .flag("--net-eff", net_eff)
      .flag("--schedule", schedule)
      .flag("--json", json_path)
      .toggle("--baseline", baseline)
      .toggle("--recompute-search", spec.search_recompute)
      .toggle("--no-sim", opt.simulate, false);
  if (!parser.parse(args, err)) return 1;
  if (schedule == "gpipe") {
    spec.schedule = engine::PipelineSchedule::kGpipe;
  } else if (schedule != "1f1b") {
    err << "msplan: unknown schedule `" << schedule << "`\n" << msplan_usage();
    return 1;
  }

  if (!model::config_by_name(model_name, spec.model)) {
    err << "msplan: unknown model `" << model_name << "`\n" << msplan_usage();
    return 1;
  }
  if (spec.gpus <= 0) {
    err << "msplan: --gpus is required and must be positive\n"
        << msplan_usage();
    return 1;
  }
  if (spec.global_batch <= 0) spec.global_batch = 6144;
  if (baseline) {
    spec.ops = model::OperatorProfile::megatron_baseline();
    spec.overlap = engine::OverlapOptions::megatron_lm();
  } else {
    // The MegaScale software generation also changes the model execution
    // (PTB + sliding-window attention), exactly as the Table 2 benches do.
    spec.model.parallel_block = true;
    spec.model.attention = model::AttentionKind::kSlidingWindow;
    spec.model.window = 512;
  }
  if (net_eff == "auto") {
    spec.network_efficiency = fabric_network_efficiency(spec.gpus);
  } else if (!cli::parse_number(net_eff, spec.network_efficiency) ||
             spec.network_efficiency <= 0 || spec.network_efficiency > 1.0) {
    err << "msplan: --net-eff must be in (0,1] or `auto`\n";
    return 1;
  }

  const PlanReport report = search(spec, opt);
  out << "msplan: " << spec.model.name << " on " << spec.gpus
      << " GPUs, batch " << spec.global_batch << ", net-eff "
      << spec.network_efficiency << "\n";
  out << "space: " << report.enumerated << " candidates, "
      << report.memory_rejected << " memory-rejected, " << report.feasible()
      << " feasible, " << report.simulated << " simulated\n\n";
  if (report.plans.empty()) {
    err << "msplan: no feasible plan (model does not fit this cluster)\n";
    return 1;
  }
  out << report.render_table(top_rows) << "\n";

  const engine::JobConfig winner = best_job_config(spec, report);
  out << "winner: " << engine::describe(winner) << "\n";
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016llx",
                static_cast<unsigned long long>(report.digest()));
  out << "digest: " << digest_hex << "\n";

  if (!json_path.empty()) {
    if (!diag::write_text_file(json_path, report.to_jsonl())) {
      err << "msplan: cannot write " << json_path << "\n";
      return 1;
    }
    out << "report: " << json_path << " (" << report.plans.size()
        << " plans)\n";
  }
  return 0;
}

}  // namespace ms::plan
