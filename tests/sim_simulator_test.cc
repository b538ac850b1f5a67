#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace fluidfaas::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, AtAdvancesClockToEventTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.At(Seconds(2), [&] { observed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(observed, Seconds(2));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

TEST(SimulatorTest, AfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.At(100, [&] {
    sim.After(50, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 150);
}

TEST(SimulatorTest, CannotScheduleIntoPast) {
  Simulator sim;
  sim.At(100, [&] { EXPECT_THROW(sim.At(50, [] {}), FfsError); });
  sim.Run();
}

TEST(SimulatorTest, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.After(-1, [] {}), FfsError);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonInclusive) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(20, [&] { ++fired; });
  sim.At(21, [&] { ++fired; });
  const auto n = sim.RunUntil(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, ClockNeverGoesBackwardsAfterHorizon) {
  Simulator sim;
  sim.RunUntil(100);
  sim.At(150, [] {});
  sim.RunUntil(50);  // horizon before now: no-op
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, EventsCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.After(10, recurse);
  };
  sim.After(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 40);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.At(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StepExecutesAtMostOne) {
  Simulator sim;
  int fired = 0;
  sim.At(1, [&] { ++fired; });
  sim.At(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(PeriodicTaskTest, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 100, [&] { fires.push_back(sim.Now()); });
  task.Start(50);
  sim.RunUntil(500);
  EXPECT_EQ(fires, (std::vector<SimTime>{50, 150, 250, 350, 450}));
}

TEST(PeriodicTaskTest, StopHaltsFutureFires) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 10, [&] {
    if (++count == 3) task.Stop();
  });
  task.Start(0);
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

// Stopping from inside the callback cancels the id of the event now firing:
// the queue must refuse it and keep every other event.
TEST(PeriodicTaskTest, StopInsideOwnCallbackKeepsOtherEvents) {
  Simulator sim;
  bool later_ran = false;
  PeriodicTask task(sim, 10, [&] { task.Stop(); });
  task.Start(0);
  sim.At(100, [&] { later_ran = true; });
  sim.Run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTaskTest, DoubleStartThrows) {
  Simulator sim;
  PeriodicTask task(sim, 10, [] {});
  task.Start(0);
  EXPECT_THROW(task.Start(0), FfsError);
}

TEST(PeriodicTaskTest, DestructorCancelsPending) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, 10, [&] { ++count; });
    task.Start(5);
    sim.RunUntil(25);
  }
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);  // fires at 5, 15, 25 only
}

TEST(SimulatorTest, DeterministicEventCountAcrossRuns) {
  auto run = [] {
    Simulator sim;
    int x = 0;
    for (int i = 0; i < 100; ++i) {
      sim.At(i % 7, [&x] { ++x; });
    }
    sim.Run();
    return sim.events_executed();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace fluidfaas::sim
