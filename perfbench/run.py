#!/usr/bin/env python3
"""Repository benchmark: closed-loop answers of the 12,288-GPU simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench_driver (and
the simulator libraries it links) in .bench_build/. The input list is made
here from --seed; the driver only sees that list. With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Workloads and metrics: perfbench/NOTES.md.
"""
import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("scaling_sweep", "trace_diagnose", "production_replay",
             "chaos_campaign")
# Set-up is measured in separate processes (the first answer's cost is per
# process) and the median reported: at least SETUP_MIN samples, more while
# they add up to under SETUP_BUDGET_S, at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
# Input list length; the driver wraps around if a run outlasts it.
ROUNDS = 400
# Tail percentile per workload: the highest of p99.9, p99, p95, p90, p75,
# p50 with at least 10 answers beyond it in a run of BENCHMARK.json's
# run_seconds on the tuning host. Fixed, not re-derived per run, so a run
# that fits one more round does not switch percentiles.
TAIL_PERCENTILE = {"scaling_sweep": 75.0, "trace_diagnose": 75.0,
                   "production_replay": 50.0, "chaos_campaign": 99.0}
RUN_TIMEOUT_S = 170
# Host-speed normalisation (NOTES.md): times of the NORMALISED workloads are
# scaled by REFERENCE_NS / (the driver's reference kernel time next to them,
# the median of the REFERENCE_WINDOW samples nearest in time). REFERENCE_NS
# is the kernel's median over 40 runs on the 4-vCPU Xeon VM the benchmark
# was tuned on, so reported times read as that host's wall time.
REFERENCE_NS = 870e3
REFERENCE_WINDOW = 9
# The kernel is CPU-bound. production_replay's answers are bound by page
# faults and memory traffic (3 GB per answer) and do not follow it: over 20
# runs its raw p50 spread 8-9% while the kernel spread 11-27%, so scaling
# by the kernel only added noise. Its times are reported unscaled.
NORMALISED = {"scaling_sweep", "trace_diagnose", "chaos_campaign"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def expected_keys(path):
    keys = []
    with open(path) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                keys.append(line.split()[0])
    return keys


def make_inputs(workload, seed, keys):
    """Warm-up line, then ROUNDS rounds. A round holds each input class once
    (config, fixture or scenario) in seeded order, so every seed weighs the
    classes equally and varies the order and per-answer seeds."""
    rng = random.Random(seed)
    classes = {}
    for key in keys:
        classes.setdefault(key.split("#")[0], []).append(key)
    names = sorted(classes)
    if workload == "production_replay":
        warmup = "faults#0 1"
        rounds = [["%s %d" % (rng.choice(keys), rng.getrandbits(63))]
                  for _ in range(ROUNDS)]
    else:
        warmup = {"scaling_sweep": "530b-megascale-11200#0",
                  "chaos_campaign": "mixed#0"}.get(workload, keys[0])
        rounds = []
        for _ in range(ROUNDS):
            order = names[:]
            rng.shuffle(order)
            rounds.append([rng.choice(classes[n]) for n in order])
    return warmup + "\n" + "\n\n".join("\n".join(r) for r in rounds) + "\n"


def pin_to_one_cpu():
    """Keeps the single-threaded driver on one CPU, so the reference kernel
    samples the CPU the answers ran on."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def run_driver(args, extra, timeout):
    """One driver process; returns (exit code, parsed last line or None)."""
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    t0 = time.monotonic_ns()
    path = os.path.join(BUILD, "runs", "%s-%d.inputs" % (args.workload,
                                                          args.seed))
    with open(path, "w") as f:
        f.write(make_inputs(args.workload, args.seed,
                            expected_keys(args.expected)))
    cmd = [DRIVER, "run", "--workload", args.workload, "--inputs", path,
           "--expected", args.expected, "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    result["t0_ns"] = t0
    return proc.returncode, result


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def speed_scale(workload, result, t):
    """REFERENCE_NS over the median kernel ns of the samples nearest to
    time t; 1 for workloads reported unscaled."""
    if workload not in NORMALISED:
        return 1.0
    at, ref = result["ref_at_ns"], result["ref_ns"]
    hi = min(len(ref), max(REFERENCE_WINDOW,
                           bisect.bisect(at, t) + REFERENCE_WINDOW // 2))
    return REFERENCE_NS / statistics.median(
        ref[max(0, hi - REFERENCE_WINDOW):hi])


def end_to_end(workload, main, setups, failed, attempted):
    raw = main["untraced_ns"]
    lat = sorted(ns * speed_scale(workload, main, t)
                 for t, ns in zip(main["start_ns"], raw))
    n = len(lat)
    tail_p = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(
            (r["ready_ns"] - r["t0_ns"]) / 1e9 *
            speed_scale(workload, r, r["ready_ns"]) for r in setups),
        "answers_per_s": n / (sum(lat) / 1e9),
        "answer_ms_p50": statistics.median(lat) / 1e6,
        "answer_ms_tail": percentile(lat, tail_p) / 1e6,
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "answers_ok_frac": 1.0 - failed / attempted,
    }
    units = {"setup_s": "s", "answers_per_s": "1/s", "answer_ms_p50": "ms",
             "answer_ms_tail": "ms", "peak_rss_mb": "MiB",
             "answers_ok_frac": "ratio"}
    beyond = n - int(max(1, -(-n * tail_p // 100)))
    print("answers %d timed, tail = p%g of %d answers (%d beyond it%s); "
          "answers_failed_frac %.6f" % (
              n, tail_p, n, beyond, "" if beyond >= 10 else ", fewer than 10",
              failed / attempted))
    print("raw wall: answers_per_s %.4g, answer_ms_p50 %.4g; host speed %.3f "
          "of reference (%s)" % (
              n / (sum(raw) / 1e9), statistics.median(raw) / 1e6,
              REFERENCE_NS / statistics.median(main["ref_ns"]),
              "times scaled" if workload in NORMALISED else "times unscaled"))
    return metrics, units


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def per_layer(main, spans):
    """Per-layer numbers of a traced run (per traced answer unless noted)."""
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = (child_ns.get(s["parent"], 0) +
                                     s["end_ns"] - s["start_ns"])

    def dur(s):
        return s["end_ns"] - s["start_ns"]

    def self_ns(s):
        return dur(s) - child_ns.get(s["id"], 0)

    def prof(s, scope, i):
        return s.get("prof", {}).get(scope, [0, 0])[i]

    def sim_ns(s):
        return prof(s, "engine.run", 1) + prof(s, "engine.run_until", 1)

    traced = [s for s in spans if s["answer"] >= 0]
    answers = [s for s in traced if s["name"] == "answer"]
    n = max(1, len(answers))

    def named(name):
        return [s for s in traced if s["name"] == name]

    def ms(name):
        return sum(dur(s) for s in named(name)) / n / 1e6

    def attr_values(name, key):
        return [s["attrs"][key] for s in named(name)
                if key in s.get("attrs", {})]

    def attr_mean(name, key):
        v = attr_values(name, key)
        return sum(v) / len(v) if v else 0.0

    def attr_sum(name, key):
        return sum(attr_values(name, key))

    sims = named("engine.simulate_iteration")
    engine_spans = [s for s in traced if s["name"].startswith("engine.")]
    build_ns = sum(self_ns(s) - sim_ns(s) for s in sims)
    ops = attr_sum("engine.simulate_iteration", "ops")
    pops = sum(prof(a, "engine.pop", 0) for a in answers)
    loops = sum(prof(a, "engine.run", 0) + prof(a, "engine.run_until", 0)
                for a in answers)
    events = max(0, pops - loops)
    run_ns = sum(sim_ns(a) for a in answers)
    allocs = sum(a.get("allocs", 0) for a in answers)
    analyze_ns = sum(dur(s) for s in named("diag.analyze_spans"))
    analyzed = attr_sum("diag.analyze_spans", "spans")
    ingest_ns = sum(dur(s) for s in named("calib.ingest_trace"))
    answer_ns = sum(dur(a) for a in answers)
    unattributed_ns = sum(self_ns(a) for a in answers)
    untraced, traced_lat = sum(main["untraced_ns"]), sum(main["traced_ns"])
    setup_plan = [s for s in spans if s["answer"] < 0 and
                  s["name"] == "plan.fabric_network_efficiency"]
    agg_ns = sum(dur(s) for s in named("telemetry.submit_all") +
                 named("telemetry.flush"))
    spans_bytes = attr_values("engine.simulate_iteration", "spans_bytes")

    m = {
        "engine.calls": sum(prof(a, "engine.simulate_iteration", 0)
                            for a in answers) / n,
        "engine.self_ms": sum(self_ns(s) - sim_ns(s)
                              for s in engine_spans) / n / 1e6,
        "engine.ops": ops / n,
        "engine.ns_per_op": build_ns / ops if ops else 0.0,
        "engine.build_ms": build_ns / n / 1e6,
        "engine.build_frac": (build_ns / sum(dur(s) for s in sims)
                              if sims else 0.0),
        "engine.spans_mb": (sum(spans_bytes) / len(spans_bytes) / 2**20
                            if spans_bytes else 0.0),
        "sim.events": events / n,
        "sim.run_ms": run_ns / n / 1e6,
        "sim.ns_per_event": run_ns / events if events else 0.0,
        "sim.allocs_per_event": allocs / events if events else 0.0,
        "telemetry.submit_ms": ms("telemetry.submit_all"),
        "telemetry.flush_ms": ms("telemetry.flush"),
        "telemetry.agg_frac": agg_ns / answer_ns if answer_ns else 0.0,
        "telemetry.sketch_bytes": attr_mean("telemetry.submit_all",
                                            "sketch_bytes"),
        "telemetry.flush_bytes": attr_mean("telemetry.flush", "bytes"),
        "telemetry.rss_after_submit_mb": max(
            attr_values("telemetry.submit_all", "rss_mb") or [0.0]),
        "telemetry.shared_sketch_frac": attr_mean("telemetry.submit_all",
                                                  "shared_sketch_frac"),
        "telemetry.snapshot_ms": ms("telemetry.snapshot"),
        "telemetry.ledger_ms": ms("telemetry.ledger"),
        "ft.replay_ms": ms("ft.run_robust_training"),
        "ft.restarts": attr_mean("ft.run_robust_training", "restarts"),
        "telemetry.export_ms": ms("telemetry.jsonl_spans"),
        "telemetry.export_bytes": attr_mean("telemetry.jsonl_spans", "bytes"),
        "diag.analyze_ms": analyze_ns / n / 1e6,
        "diag.ns_per_span": analyze_ns / analyzed if analyzed else 0.0,
        "diag.top1_correct_ratio": attr_mean("diag.analyze_spans",
                                             "top1_correct"),
        "calib.ingest_ms": ingest_ns / n / 1e6,
        "calib.ingest_mb_per_s": (attr_sum("calib.ingest_trace", "bytes") /
                                  1e6 / (ingest_ns / 1e9)
                                  if ingest_ns else 0.0),
        "calib.skipped_events": attr_mean("calib.ingest_trace",
                                          "skipped_events"),
        "calib.fit_ms": ms("calib.fit_trace"),
        "calib.degenerate_fits": attr_mean("calib.fit_trace",
                                           "degenerate_fits"),
        "chaos.run_ms": ms("chaos.run_scenario"),
        "chaos.judge_ms": ms("chaos.evaluate_outcome"),
        "chaos.oracle_failures": attr_sum("chaos.evaluate_outcome",
                                          "oracle_failures") / n,
        "net.ccsim_calls": sum(prof(a, "ccsim.run", 0) for a in answers) / n,
        "net.ccsim_ms": sum(prof(a, "ccsim.run", 1) for a in answers) / n / 1e6,
        "net.flowsim_ms": sum(prof(a, "flowsim.run", 1)
                              for a in answers) / n / 1e6,
        "plan.fabric_eff_ms": sum(dur(s) for s in setup_plan) / 1e6,
        "trace.overhead_frac": (1.0 - untraced / traced_lat
                                if traced_lat else 0.0),
        "trace.attributed_frac": (1.0 - unattributed_ns / answer_ns
                                  if answer_ns else 0.0),
    }
    print("traced answers %d (untraced %d); layer self time per answer:" %
          (len(answers), len(main["untraced_ns"])))
    layers = {}
    for s in traced:
        if s["name"] != "answer":
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0) + self_ns(s)
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("  %-10s %10.3f ms  %5.1f%%" % (layer, ns / n / 1e6,
                                                100.0 * ns / max(1, answer_ns)))
    return m


UNITS = {"calls": "count", "ops": "count", "events": "count",
         "restarts": "count", "skipped_events": "count",
         "degenerate_fits": "count", "oracle_failures": "count",
         "ccsim_calls": "count", "ns_per_op": "ns", "ns_per_event": "ns",
         "ns_per_span": "ns", "allocs_per_event": "count",
         "sketch_bytes": "B", "flush_bytes": "B", "export_bytes": "B",
         "spans_mb": "MiB", "rss_after_submit_mb": "MiB",
         "ingest_mb_per_s": "MB/s"}


def unit_of(name):
    leaf = name.split(".", 1)[1]
    if leaf in UNITS:
        return UNITS[leaf]
    return "ms" if leaf.endswith("_ms") else "ratio"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected",
                    help="expected-values file (default: "
                         "perfbench/expected/<workload>.txt)")
    args = ap.parse_args()
    if args.expected is None:
        args.expected = os.path.join(HERE, "expected", args.workload + ".txt")
    if not os.path.isfile(args.expected):
        log("perfbench: missing " + args.expected)
        return 2
    started = time.monotonic()
    if not build():
        return 2

    def remaining():
        return max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))

    spans_path = os.path.join(BUILD, "runs", "%s-%d.spans.jsonl" %
                              (args.workload, args.seed))
    setups = []
    spent = 0.0
    while not args.trace and len(setups) < SETUP_MAX - 1 and (
            len(setups) < SETUP_MIN - 1 or spent < SETUP_BUDGET_S):
        code, result = run_driver(args, ["--setup-only"], remaining())
        if result is None or code not in (0, 1):
            return 2
        setups.append(result)
        spent += (result["ready_ns"] - result["t0_ns"]) / 1e9
    extra = ["--spans", spans_path] if args.trace else []
    code, result = run_driver(args, extra, remaining())
    if result is None:
        log("perfbench: driver failed with exit code %d" % code)
        return 2
    setups.append(result)
    # The driver's raw output (latencies, kernel samples), for inspection.
    with open(os.path.join(BUILD, "runs", "%s-%d.result.json" %
                           (args.workload, args.seed)), "w") as f:
        json.dump(result, f)
    failed = result["failed"] + sum(s["failed"] for s in setups[:-1])
    attempted = result["attempted"] + sum(s["attempted"] for s in setups[:-1])
    if args.trace:
        values = per_layer(result, load_spans(spans_path))
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
    else:
        values, units = end_to_end(args.workload, result, setups, failed,
                                   attempted)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
    for k, v in metrics.items():
        print("%-32s %14.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
