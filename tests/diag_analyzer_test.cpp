// Tests for the §5 performance-diagnosis analyzer: dependency-graph
// reconstruction from engine traces, critical-path decomposition, blame
// attribution of seeded stragglers / slow links, the RDMA flight recorder,
// trace-artifact IO, and the msdiag CLI.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "diag/artifact.h"
#include "diag/blame.h"
#include "diag/depgraph.h"
#include "diag/flight_recorder.h"
#include "diag/msdiag.h"
#include "engine/job.h"
#include "ft/driver_sim.h"
#include "telemetry/exporters.h"
#include "telemetry/trace.h"

namespace {

using namespace ms;

engine::JobConfig diag_config() {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.par.tp = 8;
  cfg.par.pp = 8;
  cfg.par.vpp = 6;
  cfg.par.dp = 4;
  cfg.global_batch = 256;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

std::vector<diag::TraceSpan> traced_spans(engine::JobConfig cfg) {
  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  EXPECT_EQ(engine::validate(cfg), "");
  engine::simulate_iteration(cfg);
  return tracer.spans();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ------------------------------------------------------------- SpanAttrs

TEST(SpanAttrs, ParsesKeyValueTokens) {
  const diag::SpanAttrs a("s=3 c=1 mb=12 p=b head=1 grp=dp");
  EXPECT_EQ(a.num("s"), 3);
  EXPECT_EQ(a.num("mb"), 12);
  EXPECT_EQ(a.text("p"), "b");
  EXPECT_TRUE(a.has("head"));
  EXPECT_FALSE(a.has("stream"));
  EXPECT_EQ(a.num("missing", -7), -7);
  EXPECT_EQ(a.text("missing", "x"), "x");
}

// The engine's typed attributes render to exactly the grammar SpanAttrs
// parses, one layout per op shape.
TEST(SpanAttrs, ParsesWhatTheEngineRenders) {
  using Shape = sim::OpAttrs::Shape;
  using Coll = sim::OpAttrs::Coll;
  auto render = [](const sim::OpAttrs& a) {
    std::string out;
    engine::append_attrs(out, a);
    return out;
  };
  const std::string compute = render({.shape = Shape::kCompute, .bwd = true,
                                      .head = true, .stage = 3, .chunk = 1,
                                      .mb = 12});
  EXPECT_EQ(compute, "s=3 c=1 mb=12 p=b head=1");
  const diag::SpanAttrs c(compute);
  EXPECT_EQ(c.num("s"), 3);
  EXPECT_EQ(c.num("c"), 1);
  EXPECT_EQ(c.num("mb"), 12);
  EXPECT_EQ(c.text("p"), "b");

  const std::string transfer =
      render({.shape = Shape::kTransfer, .chunk = 2, .mb = 5, .from = 0,
              .to = 1, .prod_chunk = 2, .bytes = 4096});
  EXPECT_EQ(transfer, "p=f mb=5 from=0 to=1 c=2 pc=2 B=4096");
  const diag::SpanAttrs t(transfer);
  EXPECT_EQ(t.num("from"), 0);
  EXPECT_EQ(t.num("to"), 1);
  EXPECT_EQ(t.num("B"), 4096);

  EXPECT_EQ(render({.shape = Shape::kCollective, .coll = Coll::kAllGather,
                    .stage = 2, .chunk = 0, .n = 4, .calls = 2,
                    .bytes = 1024}),
            "s=2 c=0 grp=dp n=4 op=allgather B=1024 calls=2");
  EXPECT_EQ(render({.shape = Shape::kCollective, .coll = Coll::kAllReduce,
                    .stage = 2, .n = 4, .bytes = 1024}),
            "s=2 grp=dp n=4 op=allreduce B=1024");
  EXPECT_EQ(render({.shape = Shape::kStage, .stage = 7}), "s=7");
  EXPECT_EQ(render({}), "");

  std::string appended = "x=1";
  engine::append_attrs(appended, {.shape = Shape::kStage, .stage = 0});
  EXPECT_EQ(appended, "x=1 s=0");
}

// -------------------------------------------------------------- DepGraph

TEST(DepGraph, ReconstructsCrossRankEdgesFromEngineTrace) {
  const auto spans = traced_spans(diag_config());
  ASSERT_FALSE(spans.empty());
  const auto graph = diag::DepGraph::build(spans);
  EXPECT_EQ(graph.size(), spans.size());

  int transfers = 0, produces = 0, consumes = 0, collectives = 0, data = 0;
  for (const auto& e : graph.edges()) {
    switch (e.kind) {
      case diag::EdgeKind::kTransfer: ++transfers; break;
      case diag::EdgeKind::kProduce: ++produces; break;
      case diag::EdgeKind::kConsume: ++consumes; break;
      case diag::EdgeKind::kCollective: ++collectives; break;
      case diag::EdgeKind::kData: ++data; break;
      default: break;
    }
  }
  EXPECT_GT(transfers, 0);
  EXPECT_GT(produces, 0);
  EXPECT_GT(consumes, 0);
  EXPECT_GT(collectives, 0);
  EXPECT_GT(data, 0);

  // A send->recv edge must cross ranks; program order must not.
  for (const auto& e : graph.edges()) {
    if (e.kind == diag::EdgeKind::kTransfer) {
      EXPECT_NE(graph.spans()[e.from].rank, graph.spans()[e.to].rank);
    }
  }
  EXPECT_EQ(graph.spans()[graph.sink()].end, graph.makespan());
}

// --------------------------------------------------------- critical path

TEST(CriticalPath, SegmentsTileTheStepContiguously) {
  const auto d = diag::analyze_spans(traced_spans(diag_config()));
  ASSERT_FALSE(d.path.empty());
  EXPECT_EQ(d.path.back().end, d.makespan);
  for (std::size_t i = 1; i < d.path.size(); ++i) {
    EXPECT_EQ(d.path[i - 1].end, d.path[i].begin);
    EXPECT_GE(d.path[i].duration(), 0);
  }
  TimeNs path_total = 0;
  for (const auto& s : d.path) path_total += s.duration();
  TimeNs breakdown_total = 0;
  for (const auto& [kind, t] : d.breakdown) breakdown_total += t;
  EXPECT_EQ(path_total, breakdown_total);
  EXPECT_EQ(d.path.front().begin + path_total, d.makespan);
}

TEST(CriticalPath, HealthyRunHasNoStragglerBlame) {
  const auto d = diag::analyze_spans(traced_spans(diag_config()));
  const auto it = d.breakdown.find(diag::SegmentKind::kStragglerWait);
  if (it != d.breakdown.end()) {
    EXPECT_EQ(it->second, 0);
  }
  for (const auto& entry : d.blame) {
    EXPECT_NE(entry.cause, diag::SegmentKind::kStragglerWait);
  }
}

// ------------------------------------------------------------ blame: who

TEST(Blame, SeededStragglerRankIsTopCulprit) {
  auto cfg = diag_config();
  cfg.stage_speed.assign(static_cast<std::size_t>(cfg.par.pp), 1.0);
  cfg.stage_speed[3] = 2.0;  // stage 3 computes at half speed
  const auto d = diag::analyze_spans(traced_spans(cfg));
  ASSERT_FALSE(d.blame.empty());
  EXPECT_EQ(d.blame.front().cause, diag::SegmentKind::kStragglerWait);
  EXPECT_EQ(d.blame.front().rank, 3);
  EXPECT_GT(d.blame.front().share, 0.2);
}

TEST(Blame, SeededSlowLinkIsTopCulprit) {
  auto cfg = diag_config();
  // Couple p2p back onto the compute stream (Megatron-style PP) so the
  // degraded link is exposed rather than hidden by the §3.2 overlap.
  cfg.overlap.pp_decouple = false;
  cfg.link_speed.assign(static_cast<std::size_t>(cfg.par.pp), 1.0);
  cfg.link_speed[2] = 16.0;  // stage 2's outbound NIC degrades 16x
  const auto d = diag::analyze_spans(traced_spans(cfg));
  ASSERT_FALSE(d.blame.empty());
  EXPECT_EQ(d.blame.front().cause, diag::SegmentKind::kSlowLink);
  EXPECT_EQ(d.blame.front().link.rfind("2->", 0), 0u) << d.blame.front().link;
  EXPECT_EQ(d.blame.front().rank, 2);
}

TEST(Blame, SameSeedYieldsIdenticalDigest) {
  auto cfg = diag_config();
  cfg.stage_speed.assign(static_cast<std::size_t>(cfg.par.pp), 1.0);
  cfg.stage_speed[5] = 1.7;
  const auto a = diag::analyze_spans(traced_spans(cfg));
  const auto b = diag::analyze_spans(traced_spans(cfg));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.makespan, b.makespan);
  const auto healthy = diag::analyze_spans(traced_spans(diag_config()));
  EXPECT_NE(a.digest, healthy.digest);
}

TEST(Blame, RenderAndJsonReports) {
  auto cfg = diag_config();
  cfg.stage_speed.assign(static_cast<std::size_t>(cfg.par.pp), 1.0);
  cfg.stage_speed[3] = 2.0;
  const auto d = diag::analyze_spans(traced_spans(cfg));

  const std::string text = diag::render(d, 3);
  EXPECT_NE(text.find("straggler-wait"), std::string::npos);
  EXPECT_NE(text.find("rank 3"), std::string::npos);

  json::Value v;
  ASSERT_TRUE(json::parse(diag::diagnosis_json(d), v));
  EXPECT_EQ(static_cast<TimeNs>(v.num("makespan_ns")), d.makespan);
  ASSERT_TRUE(v.has("blame"));
  ASSERT_GT(v.at("blame").size(), 0u);
  EXPECT_EQ(v.at("blame")[0].text("cause"), "straggler-wait");
}

TEST(Blame, DiffReportLocalizesTheRegression) {
  auto slow = diag_config();
  slow.stage_speed.assign(static_cast<std::size_t>(slow.par.pp), 1.0);
  slow.stage_speed[3] = 2.0;
  const auto base = diag::analyze_spans(traced_spans(diag_config()));
  const auto cand = diag::analyze_spans(traced_spans(slow));
  const std::string report = diag::diff_report(base, cand);
  EXPECT_NE(report.find("straggler-wait"), std::string::npos);
  EXPECT_NE(report.find("rank 3"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingKeepsOnlyTheMostRecentEvents) {
  diag::FlightRecorder rec({/*capacity_per_node=*/2});
  for (int i = 0; i < 5; ++i) {
    rec.record(0, milliseconds(static_cast<double>(i)), "heartbeat",
               "n=" + std::to_string(i));
  }
  const auto dump = rec.trigger("test", milliseconds(10.0));
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.events[0].detail, "n=3");
  EXPECT_EQ(dump.events[1].detail, "n=4");
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.total_dropped(), 3u);
  EXPECT_EQ(rec.dumps().size(), 1u);
}

TEST(FlightRecorder, DumpMergesNodesInTimeOrder) {
  diag::FlightRecorder rec;
  rec.record(1, milliseconds(2.0), "collective", "op=all-gather");
  rec.record(0, milliseconds(1.0), "heartbeat");
  rec.record(2, milliseconds(2.0), "alarm", "kind=timeout");
  const auto dump = rec.trigger("anomaly node=2", milliseconds(3.0));
  ASSERT_EQ(dump.events.size(), 3u);
  EXPECT_EQ(dump.events[0].node, 0);
  EXPECT_EQ(dump.events[1].node, 1);  // same time as node 2, earlier seq
  EXPECT_EQ(dump.events[2].node, 2);
}

TEST(FlightRecorder, JsonlRoundTripAndPerfettoExport) {
  diag::FlightRecorder rec;
  rec.record(0, milliseconds(1.0), "heartbeat", "rdma_gbps=150.00 err=0");
  rec.record(1, milliseconds(2.0), "fault", "type=\"nic flap\"\n");
  const auto dump = rec.trigger("chaos oracle", milliseconds(5.0));

  diag::FlightDump loaded;
  ASSERT_TRUE(diag::parse_flight_dump_jsonl(diag::flight_dump_jsonl(dump),
                                            loaded));
  EXPECT_EQ(loaded.reason, dump.reason);
  EXPECT_EQ(loaded.time, dump.time);
  ASSERT_EQ(loaded.events.size(), dump.events.size());
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].time, dump.events[i].time);
    EXPECT_EQ(loaded.events[i].node, dump.events[i].node);
    EXPECT_EQ(loaded.events[i].kind, dump.events[i].kind);
    EXPECT_EQ(loaded.events[i].detail, dump.events[i].detail);
  }

  json::Value v;
  ASSERT_TRUE(
      json::parse(diag::flight_dump_timeline(loaded).chrome_trace_json(), v));
  EXPECT_EQ(v.at("traceEvents").size(), loaded.events.size());
}

TEST(FlightRecorder, MalformedDumpIsRejected) {
  diag::FlightDump out;
  EXPECT_FALSE(diag::parse_flight_dump_jsonl("", out));
  EXPECT_FALSE(diag::parse_flight_dump_jsonl("{\"type\":\"flight-event\"}\n",
                                             out));
  EXPECT_FALSE(diag::parse_flight_dump_jsonl("not json\n", out));
}

TEST(FlightRecorder, DriverSimDumpsOnDetectedAnomaly) {
  diag::FlightRecorder flight;
  ft::DriverSimConfig cfg;
  cfg.nodes = 8;
  cfg.flight = &flight;
  Rng rng(42);
  const std::vector<ft::FaultEvent> faults = {
      {minutes(5.0), 2, ft::FaultType::kGpuHang}};
  run_driver_sim(cfg, hours(1.0), faults, rng);

  const auto dumps = flight.dumps();
  ASSERT_FALSE(dumps.empty());
  const auto& dump = dumps.front();
  EXPECT_NE(dump.reason.find("node=2"), std::string::npos) << dump.reason;
  bool saw_fault = false;
  for (const auto& e : dump.events) {
    if (e.kind == "fault" && e.node == 2) saw_fault = true;
  }
  EXPECT_TRUE(saw_fault);

  // The dump round-trips through the artifact layer into a Perfetto trace.
  diag::FlightDump loaded;
  ASSERT_TRUE(diag::parse_flight_dump_jsonl(diag::flight_dump_jsonl(dump),
                                            loaded));
  json::Value v;
  EXPECT_TRUE(
      json::parse(diag::flight_dump_timeline(loaded).chrome_trace_json(), v));
}

// ------------------------------------------------------------- artifacts

TEST(Artifact, TraceJsonlRoundTripPreservesSpans) {
  std::vector<diag::TraceSpan> spans;
  spans.push_back({0, "fwd \"quoted\"", "fwd", 0, milliseconds(1.0),
                   "s=0 c=0 mb=0 p=f"});
  spans.push_back({3, "send", "pp-comm", milliseconds(1.0), milliseconds(2.0),
                   "p=f mb=0 from=0 to=1 c=0 pc=0"});
  spans.push_back({1, "opt", "optimizer", milliseconds(2.0), milliseconds(3.0),
                   ""});

  std::vector<diag::TraceSpan> loaded;
  ASSERT_TRUE(diag::parse_trace_jsonl(telemetry::jsonl_spans(spans), loaded));
  ASSERT_EQ(loaded.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(loaded[i].rank, spans[i].rank);
    EXPECT_EQ(loaded[i].name, spans[i].name);
    EXPECT_EQ(loaded[i].tag, spans[i].tag);
    EXPECT_EQ(loaded[i].start, spans[i].start);
    EXPECT_EQ(loaded[i].end, spans[i].end);
    EXPECT_EQ(loaded[i].detail, spans[i].detail);
  }
}

TEST(Artifact, WriteCreatesParentDirectories) {
  const std::string path = temp_path("diag_artifact_sub/dir/trace.jsonl");
  ASSERT_TRUE(diag::write_text_file(path, "hello\n"));
  std::string back;
  ASSERT_TRUE(diag::read_text_file(path, back));
  EXPECT_EQ(back, "hello\n");
  EXPECT_FALSE(diag::read_text_file(temp_path("no_such_file"), back));
}

// ----------------------------------------------------------------- msdiag

class MsdiagTest : public testing::Test {
 protected:
  int run(const std::vector<std::string>& args) {
    out.str("");
    err.str("");
    return diag::msdiag_main(args, out, err);
  }
  std::ostringstream out, err;
};

TEST_F(MsdiagTest, AnalyzeReportsSeededStraggler) {
  auto cfg = diag_config();
  cfg.stage_speed.assign(static_cast<std::size_t>(cfg.par.pp), 1.0);
  cfg.stage_speed[3] = 2.0;
  const std::string path = temp_path("msdiag_straggler.jsonl");
  ASSERT_TRUE(diag::write_text_file(
      path, telemetry::jsonl_spans(traced_spans(cfg))));

  ASSERT_EQ(run({"analyze", path, "--top", "3"}), 0) << err.str();
  EXPECT_NE(out.str().find("straggler-wait"), std::string::npos);
  EXPECT_NE(out.str().find("rank 3"), std::string::npos);

  ASSERT_EQ(run({"analyze", path, "--json"}), 0) << err.str();
  json::Value v;
  ASSERT_TRUE(json::parse(out.str(), v));
  EXPECT_EQ(v.at("blame")[0].text("cause"), "straggler-wait");
}

TEST_F(MsdiagTest, DiffExportAndFlightCommands) {
  const std::string base = temp_path("msdiag_base.jsonl");
  const std::string cand = temp_path("msdiag_cand.jsonl");
  auto cfg = diag_config();
  ASSERT_TRUE(diag::write_text_file(
      base, telemetry::jsonl_spans(traced_spans(cfg))));
  cfg.stage_speed.assign(static_cast<std::size_t>(cfg.par.pp), 1.0);
  cfg.stage_speed[3] = 2.0;
  ASSERT_TRUE(diag::write_text_file(
      cand, telemetry::jsonl_spans(traced_spans(cfg))));

  ASSERT_EQ(run({"diff", base, cand}), 0) << err.str();
  EXPECT_NE(out.str().find("straggler-wait"), std::string::npos);

  // export: annotated Perfetto trace, critical-path spans marked.
  const std::string annotated = temp_path("msdiag_annotated.json");
  ASSERT_EQ(run({"export", cand, annotated}), 0) << err.str();
  std::string trace_text;
  ASSERT_TRUE(diag::read_text_file(annotated, trace_text));
  json::Value v;
  ASSERT_TRUE(json::parse(trace_text, v));
  ASSERT_GT(v.at("traceEvents").size(), 0u);
  EXPECT_NE(trace_text.find("critical=1"), std::string::npos);

  // flight: summary + Perfetto export of a recorded dump.
  diag::FlightRecorder rec;
  rec.record(0, milliseconds(1.0), "heartbeat", "rdma_gbps=150.00 err=0");
  rec.record(2, milliseconds(2.0), "alarm", "kind=timeout");
  const std::string dump_path = temp_path("msdiag_flight.jsonl");
  const std::string perfetto = temp_path("msdiag_flight.json");
  ASSERT_TRUE(diag::write_text_file(
      dump_path,
      diag::flight_dump_jsonl(rec.trigger("timeout node=2",
                                          milliseconds(3.0)))));
  ASSERT_EQ(run({"flight", dump_path, "--perfetto", perfetto}), 0)
      << err.str();
  EXPECT_NE(out.str().find("timeout node=2"), std::string::npos);
  ASSERT_TRUE(diag::read_text_file(perfetto, trace_text));
  EXPECT_TRUE(json::parse(trace_text, v));
}

TEST_F(MsdiagTest, BadInvocationsFailWithUsage) {
  EXPECT_EQ(run({}), 1);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}), 1);
  EXPECT_EQ(run({"analyze", temp_path("msdiag_missing.jsonl")}), 1);
  EXPECT_EQ(run({"diff", temp_path("msdiag_missing.jsonl")}), 1);
}

}  // namespace
