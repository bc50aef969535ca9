// chaos_campaign: the command-line front end for the chaos harness.
//
//   chaos_campaign --list
//   chaos_campaign --scenario mixed --seeds 32
//   chaos_campaign --scenario mixed --seed 1234567   # replay one seed
//   chaos_campaign --scenario mixed --seeds 32 --canary --artifact-dir out/
//
// Exit status 0 when every seed passes the resilience oracle, 1 otherwise
// (and 2 on usage errors). MS_CHAOS_CANARY=1 is equivalent to --canary.
//
// ms-lint: allow-file(test-coverage): CLI entry point; the campaign logic
// it drives is covered by tests/chaos_test.cpp and chaos_campaign_test.cpp.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "chaos/campaign.h"
#include "core/cli.h"
#include "diag/artifact.h"
#include "diag/flight_recorder.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

namespace {

using namespace ms;
using namespace ms::chaos;

void print_record(const OutcomeRecord& r) {
  std::printf(
      "  seed=%" PRIu64 " faults=%d restarts=%d undetected=%d"
      " eff=%.3f slowdown=%.3f steps_lost=%" PRId64
      " digest=0x%016" PRIx64 "\n",
      r.seed, r.faults_injected, r.restarts, r.undetected_faults,
      r.effective_time_ratio, r.slowdown_factor, r.steps_lost,
      r.record_digest);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string artifact_dir;
  std::string flight_dir;
  std::uint64_t base_seed = 0xC405;  // "chaos"
  std::uint64_t single_seed = 0;
  int n_seeds = 8;
  bool canary = false;
  bool as_json = false;
  bool dump_metrics = false;
  bool list = false;

  const std::string argv0 = argv[0];
  cli::Parser parser(
      "chaos_campaign",
      "usage: " + argv0 + " --scenario <name> [--seeds N | --seed S]\n"
      "          [--base-seed B] [--canary] [--json]\n"
      "          [--artifact-dir DIR] [--flight-dir DIR] [--metrics]\n"
      "       " + argv0 + " --list\n");
  parser.toggle("--list", list)
      .flag("--scenario", scenario_name)
      .flag("--seeds", n_seeds)
      .seed("--seed", single_seed)
      .seed("--base-seed", base_seed)
      .flag("--artifact-dir", artifact_dir)
      .flag("--flight-dir", flight_dir)
      .toggle("--canary", canary)
      .toggle("--json", as_json)
      .toggle("--metrics", dump_metrics);
  if (!parser.parse({argv + 1, argv + argc}, std::cerr)) return 2;
  if (list) {
    for (const auto& s : scenarios()) {
      std::printf("%-22s %s\n", s.name, s.summary);
    }
    return 0;
  }
  if (scenario_name.empty() || n_seeds < 1) {
    // A zero-seed campaign would pass without judging anything.
    parser.error(std::cerr, scenario_name.empty()
                                ? "--scenario is required"
                                : "--seeds must be at least 1");
    return 2;
  }
  const Scenario* scenario = find_scenario(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 scenario_name.c_str());
    return 2;
  }

  const char* env = std::getenv("MS_CHAOS_CANARY");
  if (env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    canary = true;
  }

  telemetry::MetricsRegistry metrics;
  ms::diag::FlightRecorder flight;
  ChaosConfig cfg;
  cfg.canary = canary;
  cfg.metrics = &metrics;
  if (!flight_dir.empty()) cfg.flight = &flight;

  // Post-mortem dumps (frozen by the AnomalyDetector at alarm time) become
  // msdiag-loadable JSONL artifacts; cap the count so a dense campaign
  // doesn't flood the artifact store.
  auto write_flight_dumps = [&] {
    if (flight_dir.empty()) return;
    constexpr std::size_t kMaxDumps = 16;
    const auto dumps = flight.dumps();
    for (std::size_t i = 0; i < dumps.size() && i < kMaxDumps; ++i) {
      char name[48];
      std::snprintf(name, sizeof(name), "flight-%03zu.jsonl", i);
      const std::string path = flight_dir + "/" + name;
      if (ms::diag::write_text_file(path,
                                    ms::diag::flight_dump_jsonl(dumps[i]))) {
        std::printf("flight dump: %s (%s)\n", path.c_str(),
                    dumps[i].reason.c_str());
      } else {
        std::fprintf(stderr, "flight dump write failed: %s\n", path.c_str());
      }
    }
  };

  // --seed S: replay exactly one seed (the repro path).
  if (parser.seen("--seed")) {
    const auto schedule = generate_schedule(cfg, *scenario, single_seed);
    const auto record = run_schedule(cfg, scenario->name, single_seed, schedule);
    const auto verdict = evaluate_outcome(cfg, record);
    if (as_json) {
      std::printf("%s\n", to_json(record).c_str());
    } else {
      std::printf("%s seed %" PRIu64 ": %s\n", scenario->name, single_seed,
                  verdict.pass ? "PASS" : "FAIL");
      print_record(record);
      if (!verdict.pass) {
        std::printf("  reason: %s\n", verdict.reason.c_str());
        const auto minimized =
            shrink_schedule(cfg, scenario->name, single_seed, schedule);
        std::printf("  minimized to %zu fault(s):\n", minimized.size());
        for (const auto& fault : minimized) {
          std::printf("    %s\n", describe(fault).c_str());
        }
      }
    }
    if (dump_metrics) {
      std::printf("%s", telemetry::prometheus_text(metrics.snapshot()).c_str());
    }
    write_flight_dumps();
    return verdict.pass ? 0 : 1;
  }

  const auto result = run_campaign(cfg, *scenario, base_seed, n_seeds);
  if (as_json) {
    std::printf("[");
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      std::printf("%s%s", i ? ",\n " : "",
                  to_json(result.records[i]).c_str());
    }
    std::printf("]\n");
  } else {
    std::printf("scenario %s: %d/%d seeds passed (base seed %" PRIu64 "%s)\n",
                result.scenario.c_str(), result.passed, result.seeds,
                result.base_seed, canary ? ", canary ON" : "");
    for (const auto& record : result.records) print_record(record);
  }
  for (const auto& failure : result.failures) {
    std::printf("FAIL seed=%" PRIu64 ": %s\n", failure.seed,
                failure.reason.c_str());
    std::printf("  minimized to %zu fault(s):\n", failure.minimized.size());
    for (const auto& fault : failure.minimized) {
      std::printf("    %s\n", describe(fault).c_str());
    }
    std::printf("  repro: %s\n", failure.repro.c_str());
    if (!artifact_dir.empty()) {
      const auto path = write_failure_artifact(artifact_dir, failure);
      if (!path.empty()) {
        std::printf("  artifact: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "  artifact write failed under %s\n",
                     artifact_dir.c_str());
      }
    }
  }
  if (dump_metrics) {
    std::printf("%s", telemetry::prometheus_text(metrics.snapshot()).c_str());
  }
  write_flight_dumps();
  return result.failures.empty() ? 0 : 1;
}
