#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/graph.h"

namespace ms::sim {
namespace {

// ---------------------------------------------------------------- engine

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(seconds(3.0), [&] { order.push_back(3); });
  e.at(seconds(1.0), [&] { order.push_back(1); });
  e.at(seconds(2.0), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), seconds(3.0));
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, FifoWithinTimestamp) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, AfterIsRelative) {
  Engine e;
  TimeNs fired = -1;
  e.at(seconds(5.0), [&] {
    e.after(seconds(2.0), [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, seconds(7.0));
}

TEST(Engine, NegativeDelayClampedToNow) {
  Engine e;
  TimeNs fired = -1;
  e.at(seconds(1.0), [&] {
    e.after(-seconds(5.0), [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, seconds(1.0));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  EventId id = e.at(seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // double-cancel fails
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CancelFromInsideEvent) {
  Engine e;
  bool second_ran = false;
  EventId second = e.at(seconds(2.0), [&] { second_ran = true; });
  e.at(seconds(1.0), [&] { EXPECT_TRUE(e.cancel(second)); });
  e.run();
  EXPECT_FALSE(second_ran);
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int ran = 0;
  e.at(seconds(1.0), [&] {
    ++ran;
    e.stop();
  });
  e.at(seconds(2.0), [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();  // resumes
  EXPECT_EQ(ran, 2);
}

TEST(Engine, RunUntilAdvancesClockToBound) {
  Engine e;
  int ran = 0;
  e.at(seconds(1.0), [&] { ++ran; });
  e.at(seconds(5.0), [&] { ++ran; });
  e.run_until(seconds(3.0));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), seconds(3.0));
  e.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), seconds(5.0));
}

TEST(Engine, RunUntilInclusiveOfBoundaryEvent) {
  Engine e;
  int ran = 0;
  e.at(seconds(3.0), [&] { ++ran; });
  e.run_until(seconds(3.0));
  EXPECT_EQ(ran, 1);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.after(milliseconds(1.0), recurse);
  };
  e.at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), milliseconds(99.0));
}

TEST(Engine, PendingCountsLiveEventsOnly) {
  Engine e;
  EventId a = e.at(seconds(1.0), [] {});
  e.at(seconds(2.0), [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

// ------------------------------------------- tombstone accounting edges

TEST(Engine, CancelOfAlreadyFiredIdFails) {
  Engine e;
  EventId id = e.at(seconds(1.0), [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.cancelled(), 0u);  // a fired event is not a tombstone
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelOwnEventFromItsCallbackFails) {
  Engine e;
  bool cancel_result = true;
  EventId id = e.at(seconds(1.0), [&] { cancel_result = e.cancel(id); });
  e.run();
  // By the time the callback runs the id has fired; it is not cancellable.
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.cancelled(), 0u);
}

TEST(Engine, PendingAfterMassCancel) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(e.at(seconds(1.0 + i), [] {}));
  }
  for (EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.cancelled(), 100u);
  // The queue is pure tombstones now: run() must drain them without
  // executing anything or moving the clock.
  e.run();
  EXPECT_EQ(e.executed(), 0u);
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, StopDuringRunUntilFreezesClockAtLastEvent) {
  Engine e;
  int ran = 0;
  e.at(seconds(1.0), [&] {
    ++ran;
    e.stop();
  });
  e.at(seconds(2.0), [&] { ++ran; });
  e.run_until(seconds(5.0));
  // Interrupted: the clock stays at the stop point, not the bound, so the
  // untouched remainder of the window is not silently skipped.
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), seconds(1.0));
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(seconds(5.0));  // resume the same window
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), seconds(5.0));
}

TEST(Engine, RunUntilPastStopStillDrainsWhenResumed) {
  Engine e;
  e.at(seconds(1.0), [&] { e.stop(); });
  e.run_until(seconds(0.5));  // stops at the bound before the event
  EXPECT_EQ(e.now(), seconds(0.5));
  EXPECT_EQ(e.executed(), 0u);
  e.run_until(seconds(1.0));  // event at the inclusive boundary fires
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.now(), seconds(1.0));
}

TEST(Engine, CancelledEventsExcludedFromDigestAndExecuted) {
  Engine e1, e2;
  e1.at(seconds(1.0), [] {});
  EventId doomed = e1.at(seconds(1.0), [] {});
  e1.cancel(doomed);
  e1.run();

  e2.at(seconds(1.0), [] {});
  e2.run();
  EXPECT_EQ(e1.executed(), e2.executed());
  // Only executed events fold into the digest: both engines executed just
  // event id 1 at t=1s, so the digests match despite the cancelled slot.
  EXPECT_EQ(e1.digest(), e2.digest());
}

TEST(Engine, QueueIntrospectionGetters) {
  Engine e;
  EXPECT_EQ(e.queue_size(), 0u);
  EXPECT_EQ(e.peak_queue_size(), 0u);
  EXPECT_EQ(e.scheduled(), 0u);
  const EventId a = e.at(seconds(1.0), [] {});
  e.at(seconds(2.0), [] {});
  e.at(seconds(3.0), [] {});
  EXPECT_EQ(e.queue_size(), 3u);
  EXPECT_EQ(e.peak_queue_size(), 3u);
  EXPECT_EQ(e.scheduled(), 3u);
  EXPECT_EQ(e.tombstone_count(), 0u);

  // A cancelled event stays in the heap as a tombstone until popped.
  e.cancel(a);
  EXPECT_EQ(e.queue_size(), 3u);
  EXPECT_EQ(e.tombstone_count(), 1u);
  EXPECT_EQ(e.tombstone_pops(), 0u);

  e.run();
  EXPECT_EQ(e.queue_size(), 0u);
  EXPECT_EQ(e.tombstone_count(), 0u);
  EXPECT_EQ(e.tombstone_pops(), 1u);  // the skip was counted
  EXPECT_EQ(e.peak_queue_size(), 3u);  // high-water mark survives the drain
  EXPECT_EQ(e.executed(), 2u);
}

TEST(Engine, PeakQueueTracksMidRunScheduling) {
  Engine e;
  e.at(seconds(1.0), [&e] {
    for (int i = 0; i < 5; ++i) e.after(seconds(1.0), [] {});
  });
  EXPECT_EQ(e.peak_queue_size(), 1u);
  e.run();
  // The callback pushed 5 events while the queue held none: peak is 5.
  EXPECT_EQ(e.peak_queue_size(), 5u);
  EXPECT_EQ(e.executed(), 6u);
}

// ---------------------------------------------------------------- graph

TEST(Graph, SerialChainOnOneStream) {
  Engine e;
  GraphExecutor g(1);
  OpId a = g.add_op({.name = "a", .stream = 0, .duration = seconds(1.0)});
  OpId b = g.add_op({.name = "b", .stream = 0, .duration = seconds(2.0)});
  g.add_dep(a, b);
  const TimeNs makespan = g.run(e);
  EXPECT_EQ(makespan, seconds(3.0));
  EXPECT_EQ(g.record(a).start, 0);
  EXPECT_EQ(g.record(a).end, seconds(1.0));
  EXPECT_EQ(g.record(b).start, seconds(1.0));
  EXPECT_EQ(g.record(b).end, seconds(3.0));
}

TEST(Graph, IndependentOpsOnDistinctStreamsOverlap) {
  Engine e;
  GraphExecutor g(2);
  g.add_op({.name = "a", .stream = 0, .duration = seconds(2.0)});
  g.add_op({.name = "b", .stream = 1, .duration = seconds(2.0)});
  EXPECT_EQ(g.run(e), seconds(2.0));
}

TEST(Graph, StreamSerializesIndependentOps) {
  Engine e;
  GraphExecutor g(1);
  g.add_op({.name = "a", .stream = 0, .duration = seconds(2.0)});
  g.add_op({.name = "b", .stream = 0, .duration = seconds(2.0)});
  EXPECT_EQ(g.run(e), seconds(4.0));
}

TEST(Graph, DiamondDependency) {
  Engine e;
  GraphExecutor g(4);
  OpId src = g.add_op({.name = "src", .stream = 0, .duration = seconds(1.0)});
  OpId l = g.add_op({.name = "l", .stream = 1, .duration = seconds(2.0)});
  OpId r = g.add_op({.name = "r", .stream = 2, .duration = seconds(3.0)});
  OpId sink = g.add_op({.name = "sink", .stream = 3, .duration = seconds(1.0)});
  g.add_dep(src, l);
  g.add_dep(src, r);
  g.add_dep(l, sink);
  g.add_dep(r, sink);
  EXPECT_EQ(g.run(e), seconds(5.0));  // 1 + max(2,3) + 1
  EXPECT_EQ(g.record(sink).start, seconds(4.0));
}

TEST(Graph, PriorityBreaksReadyTies) {
  Engine e;
  GraphExecutor g(1);
  // Both ready at t=0 on the same stream; high priority goes first even
  // though it was added later.
  OpId low = g.add_op(
      {.name = "low", .stream = 0, .duration = seconds(1.0), .priority = 0});
  OpId high = g.add_op(
      {.name = "high", .stream = 0, .duration = seconds(1.0), .priority = 5});
  g.run(e);
  EXPECT_LT(g.record(high).start, g.record(low).start);
}

TEST(Graph, FifoWithinSamePriority) {
  Engine e;
  GraphExecutor g(1);
  OpId first = g.add_op({.name = "f", .stream = 0, .duration = seconds(1.0)});
  OpId second = g.add_op({.name = "s", .stream = 0, .duration = seconds(1.0)});
  g.run(e);
  EXPECT_LT(g.record(first).start, g.record(second).start);
}

TEST(Graph, DurationFnOverridesStatic) {
  Engine e;
  GraphExecutor g(1);
  OpId a = g.add_op({.name = "a",
                     .stream = 0,
                     .duration = seconds(100.0),
                     .duration_fn = [](TimeNs) { return seconds(1.0); }});
  g.run(e);
  EXPECT_EQ(g.record(a).end, seconds(1.0));
}

TEST(Graph, OnFinishHookSeesSpan) {
  Engine e;
  GraphExecutor g(1);
  TimeNs seen_start = -1, seen_end = -1;
  g.add_op({.name = "a",
            .stream = 0,
            .duration = seconds(2.0),
            .on_finish =
                [&](TimeNs s, TimeNs f) {
                  seen_start = s;
                  seen_end = f;
                }});
  g.run(e);
  EXPECT_EQ(seen_start, 0);
  EXPECT_EQ(seen_end, seconds(2.0));
}

TEST(Graph, StreamBusyAccounting) {
  Engine e;
  GraphExecutor g(2);
  OpId a = g.add_op({.name = "a", .stream = 0, .duration = seconds(1.0)});
  OpId b = g.add_op({.name = "b", .stream = 0, .duration = seconds(2.0)});
  g.add_op({.name = "c", .stream = 1, .duration = seconds(5.0)});
  g.add_dep(a, b);
  g.run(e);
  EXPECT_EQ(g.stream_busy(0), seconds(3.0));
  EXPECT_EQ(g.stream_busy(1), seconds(5.0));
}

TEST(Graph, CycleDetectedAsDeadlock) {
  Engine e;
  GraphExecutor g(2);
  OpId a = g.add_op({.name = "a", .stream = 0, .duration = seconds(1.0)});
  OpId b = g.add_op({.name = "b", .stream = 1, .duration = seconds(1.0)});
  g.add_dep(a, b);
  g.add_dep(b, a);
  EXPECT_THROW(g.run(e), std::logic_error);
}

TEST(Graph, EmptyGraphRunsInstantly) {
  Engine e;
  GraphExecutor g(1);
  EXPECT_EQ(g.run(e), 0);
}

TEST(Graph, AddStreamExtendsCapacity) {
  GraphExecutor g(1);
  const StreamId s = g.add_stream();
  EXPECT_EQ(s, 1);
  EXPECT_EQ(g.stream_count(), 2u);
}

TEST(Graph, RunTwiceThrows) {
  Engine e;
  GraphExecutor g(1);
  g.add_op({.name = "a", .stream = 0, .duration = 1});
  g.run(e);
  EXPECT_THROW(g.run(e), std::logic_error);
}

// A 1F1B-like pattern: verify the executor models pipelined overlap the way
// the training engine will rely on.
TEST(Graph, TwoStagePipelineOverlap) {
  Engine e;
  GraphExecutor g(2);
  constexpr int kMicro = 4;
  const TimeNs f = seconds(1.0);
  std::vector<OpId> s0(kMicro), s1(kMicro);
  for (int m = 0; m < kMicro; ++m) {
    s0[static_cast<std::size_t>(m)] =
        g.add_op({.name = "s0", .stream = 0, .duration = f});
    s1[static_cast<std::size_t>(m)] =
        g.add_op({.name = "s1", .stream = 1, .duration = f});
    g.add_dep(s0[static_cast<std::size_t>(m)], s1[static_cast<std::size_t>(m)]);
  }
  // Pipeline: stage1 of microbatch m depends on stage0 of m; stage ops
  // serialize on their stream. Makespan = (kMicro + 1) * f.
  EXPECT_EQ(g.run(e), (kMicro + 1) * f);
}

// ------------------------------------------------- release-safe checks
// A bad op or edge would index past the executor's tables, so each aborts
// with a message in every build mode (not an NDEBUG-stripped assert).

TEST(GraphDeathTest, AddOpRejectsStreamOutOfRange) {
  GraphExecutor g(2);
  EXPECT_DEATH(g.add_op({.name = "a", .stream = 2}), "stream out of range");
  EXPECT_DEATH(g.add_op({.name = "a", .stream = -1}), "stream out of range");
}

TEST(GraphDeathTest, AddOpAfterRunAborts) {
  Engine e;
  GraphExecutor g(1);
  g.add_op({.name = "a", .stream = 0, .duration = 1});
  g.run(e);
  EXPECT_DEATH(g.add_op({.name = "b", .stream = 0}), "add_op after run");
}

TEST(GraphDeathTest, AddDepRejectsIdsOutOfRange) {
  GraphExecutor g(1);
  const OpId a = g.add_op({.name = "a", .stream = 0});
  EXPECT_DEATH(g.add_dep(a, 1), "op id out of range");
  EXPECT_DEATH(g.add_dep(-1, a), "op id out of range");
}

TEST(GraphDeathTest, AddDepRejectsSelfEdge) {
  GraphExecutor g(1);
  const OpId a = g.add_op({.name = "a", .stream = 0});
  EXPECT_DEATH(g.add_dep(a, a), "self-edge");
}

TEST(GraphDeathTest, NegativeDurationAbortsAtIssue) {
  Engine e;
  GraphExecutor g(1);
  g.add_op({.name = "a",
            .stream = 0,
            .duration_fn = [](TimeNs) { return TimeNs{-5}; }});
  EXPECT_DEATH(g.run(e), "negative op duration");
}

// ------------------------------------------------------- slab handles

TEST(Engine, StaleHandleNeverCancelsARecycledSlot) {
  Engine e;
  bool fired = false;
  const EventId first = e.at(seconds(1.0), [] {});
  ASSERT_TRUE(e.cancel(first));
  // The freed slot is reused by the next event; the old handle must not
  // reach it.
  const EventId second = e.at(seconds(2.0), [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(e.cancel(first));
  EXPECT_FALSE(e.cancel(0));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(e.cancel(second));  // cancel after fire
  EXPECT_EQ(e.scheduled(), 2u);
}

}  // namespace
}  // namespace ms::sim
