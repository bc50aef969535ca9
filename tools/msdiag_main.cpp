// msdiag — command-line front end for the §5 diagnosis library.
//
//   msdiag analyze out/trace.jsonl --top 5
//   msdiag diff base.jsonl cand.jsonl
//   msdiag flight out/flight-000.jsonl --perfetto flight.json
//   msdiag export out/trace.jsonl annotated.json
//   msdiag demo out/trace.jsonl [--straggler R | --slow-link S] [--factor F]
//   msdiag ledger out/fig11_ledger.jsonl [--json] [--no-chart]
//   msdiag ledger --diff base.jsonl cand.jsonl
//   msdiag calibrate trace.jsonl --preset fixture --fitted-out fit.jsonl
//   msdiag calibrate --emit trace.jsonl --gemm-eff 0.65
//   msdiag fabric top --scenario storm --intensity 0.8
//   msdiag fabric timeline --scenario rehash --out fabric.json
//
// `demo` and `ledger` are the two commands implemented here rather than in
// src/diag: `ledger` renders telemetry::RunLedger artifacts (src/diag cannot
// depend on the telemetry dashboard layer), and `demo` is below. `demo`
// links the training-iteration engine (which src/diag cannot depend on) to
// synthesize a realistic single-step trace, optionally with an injected
// straggler stage or degraded p2p link, then writes the JSONL artifact the
// other commands consume. That makes the full workflow reproducible from a
// clean checkout:  msdiag demo t.jsonl --straggler 3 && msdiag analyze t.jsonl
//
// ms-lint: allow-file(test-coverage): thin CLI shim; all command logic is
// in src/diag/msdiag.cpp, exercised by tests/diag_analyzer_test.cpp.
#include <iostream>
#include <string>
#include <vector>

#include "calib/calibrate_cli.h"
#include "core/cli.h"
#include "diag/artifact.h"
#include "net/fabric/fabric_cli.h"
#include "diag/blame.h"
#include "diag/msdiag.h"
#include "engine/job.h"
#include "telemetry/exporters.h"
#include "telemetry/ledger.h"
#include "telemetry/trace.h"

namespace {

using namespace ms;

int demo_main(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::string out_path;
  int straggler = -1;
  int slow_link = -1;
  double factor = 2.5;
  cli::Parser parser(
      "msdiag demo",
      "usage: msdiag demo <out.jsonl> [--straggler RANK | --slow-link STAGE] "
      "[--factor F]\n"
      "  synthesizes one traced training step (pp=8 pipeline) and writes\n"
      "  it as a trace artifact; --straggler slows one stage's compute,\n"
      "  --slow-link one stage's outbound p2p link, by factor F (default "
      "2.5)\n");
  parser.positional("<out.jsonl>", out_path)
      .flag("--straggler", straggler)
      .flag("--slow-link", slow_link)
      .flag("--factor", factor);
  if (!parser.parse(args, err)) return 1;

  engine::JobConfig cfg = calib::demo_config();
  const auto pp = static_cast<std::size_t>(cfg.par.pp);
  if (straggler >= 0) {
    if (straggler >= cfg.par.pp) {
      err << "msdiag demo: --straggler rank out of range [0, " << cfg.par.pp
          << ")\n";
      return 1;
    }
    cfg.stage_speed.assign(pp, 1.0);
    cfg.stage_speed[static_cast<std::size_t>(straggler)] = factor;
  }
  if (slow_link >= 0) {
    if (slow_link >= cfg.par.pp) {
      err << "msdiag demo: --slow-link stage out of range [0, " << cfg.par.pp
          << ")\n";
      return 1;
    }
    cfg.link_speed.assign(pp, 1.0);
    cfg.link_speed[static_cast<std::size_t>(slow_link)] = factor;
  }
  if (const auto problem = engine::validate(cfg); !problem.empty()) {
    err << "msdiag demo: invalid config: " << problem << "\n";
    return 1;
  }

  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  const auto result = engine::simulate_iteration(cfg);
  if (!diag::write_text_file(out_path,
                             telemetry::jsonl_spans(tracer.spans()))) {
    err << "msdiag demo: cannot write " << out_path << "\n";
    return 1;
  }
  out << "wrote " << out_path << " (" << tracer.size() << " spans, step "
      << format_duration(result.iteration_time) << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args.front() == "demo") {
    return demo_main({args.begin() + 1, args.end()}, std::cout, std::cerr);
  }
  if (!args.empty() && args.front() == "ledger") {
    return ms::telemetry::ledger_main({args.begin() + 1, args.end()},
                                      std::cout, std::cerr);
  }
  if (!args.empty() && args.front() == "calibrate") {
    return ms::calib::calibrate_main({args.begin() + 1, args.end()}, std::cout,
                                     std::cerr);
  }
  if (!args.empty() && args.front() == "fabric") {
    return ms::net::fabric::fabric_main({args.begin() + 1, args.end()},
                                        std::cout, std::cerr);
  }
  if (args.empty() || args.front() == "--help" || args.front() == "-h") {
    std::cerr << ms::diag::msdiag_usage() << ms::telemetry::ledger_usage()
              << ms::calib::calibrate_usage() << ms::net::fabric::fabric_usage();
    return args.empty() ? 1 : 0;
  }
  return ms::diag::msdiag_main(args, std::cout, std::cerr);
}
