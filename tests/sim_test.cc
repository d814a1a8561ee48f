#include <gtest/gtest.h>

#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace udc {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Millis(3), [&] { order.push_back(3); });
  q.Schedule(SimTime::Millis(1), [&] { order.push_back(1); });
  q.Schedule(SimTime::Millis(2), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Millis(1), [&] { order.push_back(1); });
  q.Schedule(SimTime::Millis(1), [&] { order.push_back(2); });
  q.Schedule(SimTime::Millis(1), [&] { order.push_back(3); });
  while (!q.empty()) {
    q.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventHandle h = q.Schedule(SimTime::Millis(1), [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(h));  // double-cancel is a no-op
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue q;
  const EventHandle h = q.Schedule(SimTime::Millis(1), [] {});
  q.PopAndRun();
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.Schedule(SimTime::Millis(1), [] {});
  q.Schedule(SimTime::Millis(5), [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(q.NextTime(), SimTime::Millis(5));
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  q.Schedule(SimTime::Millis(1), [&] {
    ++count;
    q.Schedule(SimTime::Millis(2), [&] { ++count; });
  });
  while (!q.empty()) {
    q.PopAndRun();
  }
  EXPECT_EQ(count, 2);
}

TEST(EventQueueTest, SameTimestampFifoUnderInterleavedScheduling) {
  // A batch of same-time events must fire in scheduling order even when
  // events at other times are scheduled around and between them.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Millis(9), [&] { order.push_back(90); });
  for (int i = 0; i < 8; ++i) {
    q.Schedule(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  q.Schedule(SimTime::Millis(1), [&] { order.push_back(-1); });
  while (!q.empty()) {
    q.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 90}));
}

TEST(EventQueueTest, SameTimestampFifoSurvivesCancellations) {
  // Cancelling events inside a same-time batch must not disturb the
  // relative order of the survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(
        q.Schedule(SimTime::Millis(2), [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(q.Cancel(handles[0]));
  EXPECT_TRUE(q.Cancel(handles[5]));
  EXPECT_TRUE(q.Cancel(handles[9]));
  while (!q.empty()) {
    q.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 6, 7, 8}));
}

TEST(EventQueueTest, CancelOfFiredHandleLeavesQueueIntact) {
  EventQueue q;
  int fired = 0;
  const EventHandle first = q.Schedule(SimTime::Millis(1), [&] { ++fired; });
  q.Schedule(SimTime::Millis(2), [&] { ++fired; });
  q.PopAndRun();
  EXPECT_FALSE(q.Cancel(first));  // already fired
  EXPECT_FALSE(q.Cancel(first));  // and stays dead
  EXPECT_EQ(q.size(), 1u);        // the pending event is untouched
  q.PopAndRun();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(q.Cancel(EventHandle{}));  // never-scheduled handle
}

TEST(EventQueueTest, TotalScheduledCountsEveryScheduleCall) {
  EventQueue q;
  EXPECT_EQ(q.total_scheduled(), 0u);
  const EventHandle a = q.Schedule(SimTime::Millis(1), [] {});
  q.Schedule(SimTime::Millis(2), [] {});
  EXPECT_EQ(q.total_scheduled(), 2u);
  EXPECT_TRUE(q.Cancel(a));  // cancelling does not un-count
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.PopAndRun();  // firing does not change it either
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.Schedule(SimTime::Millis(3), [] {});
  EXPECT_EQ(q.total_scheduled(), 3u);
  EXPECT_EQ(q.size(), 1u);  // size tracks live events, not scheduled
}

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim;
  SimTime seen;
  sim.After(SimTime::Millis(10), [&] { seen = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, SimTime::Millis(10));
  EXPECT_EQ(sim.now(), SimTime::Millis(10));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.After(SimTime::Millis(5), [&] { ++fired; });
  sim.After(SimTime::Millis(15), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::Millis(10));
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StepExecutesOne) {
  Simulation sim;
  int fired = 0;
  sim.After(SimTime::Millis(1), [&] { ++fired; });
  sim.After(SimTime::Millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulationTest, DeterministicWithSeed) {
  Simulation a(99);
  Simulation b(99);
  EXPECT_EQ(a.rng().NextUint64(), b.rng().NextUint64());
}

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry m;
  m.IncrementCounter("test.x");
  m.IncrementCounter("test.x", 4);
  EXPECT_EQ(m.counter("test.x"), 5);
  EXPECT_EQ(m.counter("missing"), 0);
}

TEST(MetricsTest, Gauges) {
  MetricsRegistry m;
  m.SetGauge("test.g", 2.5);
  m.AddToGauge("test.g", 0.5);
  EXPECT_DOUBLE_EQ(m.gauge("test.g"), 3.0);
}

TEST(MetricsTest, HistogramsObserve) {
  MetricsRegistry m;
  m.Observe("test.h", 1.0);
  m.Observe("test.h", 3.0);
  ASSERT_NE(m.histogram("test.h"), nullptr);
  EXPECT_DOUBLE_EQ(m.histogram("test.h")->Mean(), 2.0);
  EXPECT_EQ(m.histogram("missing"), nullptr);
}

TEST(MetricsTest, ReportListsEverything) {
  MetricsRegistry m;
  m.IncrementCounter("a.count");
  m.SetGauge("b.gauge", 1.0);
  m.Observe("c.hist", 2.0);
  const std::string report = m.Report();
  EXPECT_NE(report.find("a.count"), std::string::npos);
  EXPECT_NE(report.find("b.gauge"), std::string::npos);
  EXPECT_NE(report.find("c.hist"), std::string::npos);
}

}  // namespace
}  // namespace udc
