// Unit tests for the simulation kernel: event queue, simulator, coroutine
// tasks, events/semaphores, PRNG, config parser and statistics.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eclipse/sim/config.hpp"
#include "eclipse/sim/event_queue.hpp"
#include "eclipse/sim/prng.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"
#include "eclipse/sim/stats.hpp"

namespace {

using namespace eclipse::sim;

// ---------------------------------------------------------------- events

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ReportsNextCycle) {
  EventQueue q;
  q.push(42, [] {});
  EXPECT_EQ(q.nextCycle(), 42u);
  EXPECT_EQ(q.size(), 1u);
}

// ------------------------------------------------------------- simulator

TEST(Simulator, AdvancesTimeToEvents) {
  Simulator sim;
  Cycle seen = 0;
  sim.schedule(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule(10, [] {});
  sim.schedule(1000, [&] { late_ran = true; });
  const Cycle end = sim.run(500);
  EXPECT_EQ(end, 500u);
  EXPECT_FALSE(late_ran);
  EXPECT_FALSE(sim.quiescent());
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, StopRequestHonored) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(static_cast<Cycle>(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
}

Task<void> delayer(Simulator& sim, Cycle n, Cycle& done_at) {
  co_await sim.delay(n);
  done_at = sim.now();
}

TEST(Simulator, SpawnedProcessRuns) {
  Simulator sim;
  Cycle done_at = 0;
  sim.spawn(delayer(sim, 25, done_at), "p");
  sim.run();
  EXPECT_EQ(done_at, 25u);
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

Task<void> thrower(Simulator& sim) {
  co_await sim.delay(1);
  throw std::runtime_error("boom");
}

TEST(Simulator, ProcessExceptionPropagatesFromRun) {
  Simulator sim;
  sim.spawn(thrower(sim), "bad");
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Task<int> inner(Simulator& sim) {
  co_await sim.delay(3);
  co_return 7;
}

Task<void> outer(Simulator& sim, int& result) {
  const int a = co_await inner(sim);
  const int b = co_await inner(sim);
  result = a + b;
}

TEST(Simulator, NestedTasksComposeAndAccumulateTime) {
  Simulator sim;
  int result = 0;
  sim.spawn(outer(sim, result), "outer");
  const Cycle end = sim.run();
  EXPECT_EQ(result, 14);
  EXPECT_EQ(end, 6u);
}

Task<void> zeroDelay(Simulator& sim, int& steps) {
  for (int i = 0; i < 5; ++i) {
    co_await sim.delay(0);  // must not suspend or advance time
    ++steps;
  }
}

TEST(Simulator, ZeroDelayCompletesImmediately) {
  Simulator sim;
  int steps = 0;
  sim.spawn(zeroDelay(sim, steps), "z");
  const Cycle end = sim.run();
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(end, 0u);
}

TEST(Simulator, ManySpawnsReclaimFinishedFrames) {
  Simulator sim;
  Cycle sink = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.spawn(delayer(sim, 1, sink), "burst");
  }
  sim.run();
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

// ------------------------------------------------------------- sim events

Task<void> waiter(Simulator& sim, SimEvent& ev, int& got, const int& value) {
  co_await ev.wait();
  got = value;
  (void)sim;
}

Task<void> notifier(Simulator& sim, SimEvent& ev, int& value) {
  co_await sim.delay(10);
  value = 42;
  ev.notifyAll();
}

TEST(SimEvent, NotifyAllWakesAllWaiters) {
  Simulator sim;
  SimEvent ev(sim);
  int a = 0, b = 0, value = 0;
  sim.spawn(waiter(sim, ev, a, value), "a");
  sim.spawn(waiter(sim, ev, b, value), "b");
  sim.spawn(notifier(sim, ev, value), "n");
  sim.run();
  EXPECT_EQ(a, 42);
  EXPECT_EQ(b, 42);
  EXPECT_EQ(ev.waiterCount(), 0u);
}

TEST(SimEvent, NotifyOneWakesOldestOnly) {
  Simulator sim;
  SimEvent ev(sim);
  int a = 0, b = 0, value = 1;
  sim.spawn(waiter(sim, ev, a, value), "a");
  sim.spawn(waiter(sim, ev, b, value), "b");
  sim.schedule(5, [&] { ev.notifyOne(); });
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(ev.waiterCount(), 1u);
}

Task<void> semUser(Simulator& sim, Semaphore& sem, std::vector<int>& order, int id, Cycle hold) {
  co_await sem.acquire();
  order.push_back(id);
  co_await sim.delay(hold);
  sem.release();
}

TEST(Semaphore, GrantsInArrivalOrder) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(semUser(sim, sem, order, i, 10), "u");
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.available(), 1u);
}

Task<void> logWake(Simulator& sim, SimEvent& ev, std::vector<std::pair<int, Cycle>>& log, int id) {
  co_await ev.wait();
  log.emplace_back(id, sim.now());
  if (id == 0) {
    // Parks again during the wake-ups: a later notify must wake it, not
    // the one that is being delivered.
    co_await ev.wait();
    log.emplace_back(10, sim.now());
  }
}

TEST(SimEvent, NotifyAllWakesInParkingOrder) {
  Simulator sim;
  SimEvent ev(sim);
  std::vector<std::pair<int, Cycle>> log;
  for (int id : {2, 0, 1}) sim.spawn(logWake(sim, ev, log, id), "w");
  sim.schedule(3, [&] { ev.notifyAll(); });
  sim.schedule(5, [&] { ev.notifyAll(); });
  sim.run();
  const std::vector<std::pair<int, Cycle>> want{{2, 3}, {0, 3}, {1, 3}, {10, 5}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(ev.waiterCount(), 0u);
}

// A callback requester of a Semaphore: holds the unit for `hold` cycles.
struct CallbackHolder : WaitNode {
  Simulator* sim = nullptr;
  Semaphore* sem = nullptr;
  std::vector<int>* order = nullptr;
  int id = 0;
  Cycle hold = 0;
};

void holdThenRelease(WaitNode& n) {
  auto& h = static_cast<CallbackHolder&>(n);
  h.order->push_back(h.id);
  h.sim->schedule(h.hold, [hp = &h] { hp->sem->release(); });
}

TEST(Semaphore, GrantsInArrivalOrderToAwaitersAndCallbacks) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  CallbackHolder c1;
  c1.callback = &holdThenRelease;
  c1.sim = &sim;
  c1.sem = &sem;
  c1.order = &order;
  c1.id = 1;
  c1.hold = 10;
  CallbackHolder c3 = c1;
  c3.id = 3;
  sim.spawn(semUser(sim, sem, order, 0, 10), "u0");
  sim.schedule(0, [&] {
    if (sem.tryAcquire(c1)) holdThenRelease(c1);
  });
  sim.spawn(semUser(sim, sem, order, 2, 10), "u2");
  sim.schedule(0, [&] {
    if (sem.tryAcquire(c3)) holdThenRelease(c3);
  });
  EXPECT_EQ(sim.run(), 40u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.available(), 1u);
  EXPECT_EQ(sem.waiterCount(), 0u);
}

TEST(Semaphore, CountedAllowsParallelHolders) {
  Simulator sim;
  Semaphore sem(sim, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(semUser(sim, sem, order, i, 10), "u");
  }
  const Cycle end = sim.run();
  // 4 holders of 10 cycles each with 2 slots: finishes at 20, not 40.
  EXPECT_EQ(end, 20u);
}

// ------------------------------------------------------------------ prng

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, RangeIsInclusive) {
  Prng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---------------------------------------------------------------- config

TEST(Config, ParsesSectionsAndTypes) {
  const auto cfg = Config::fromString(
      "top = 1\n"
      "[bus]\n"
      "width_bytes = 16   # inline comment\n"
      "ratio = 2.5\n"
      "fast = true\n"
      "; full-line comment\n"
      "[cache]\n"
      "prefetch = off\n");
  EXPECT_EQ(cfg.getInt("top"), 1);
  EXPECT_EQ(cfg.getInt("bus.width_bytes"), 16);
  EXPECT_DOUBLE_EQ(cfg.getDouble("bus.ratio"), 2.5);
  EXPECT_TRUE(cfg.getBool("bus.fast"));
  EXPECT_FALSE(cfg.getBool("cache.prefetch"));
  EXPECT_FALSE(cfg.has("bus.nonexistent"));
  EXPECT_EQ(cfg.getInt("missing", -7), -7);
}

TEST(Config, RejectsMalformedInput) {
  EXPECT_THROW((void)Config::fromString("[unterminated\n"), std::runtime_error);
  EXPECT_THROW((void)Config::fromString("no equals sign\n"), std::runtime_error);
  EXPECT_THROW((void)Config::fromString("= novalue\n"), std::runtime_error);
}

TEST(Config, RejectsWrongTypes) {
  const auto cfg = Config::fromString("x = hello\n");
  EXPECT_THROW((void)cfg.getInt("x"), std::runtime_error);
  EXPECT_THROW((void)cfg.getBool("x"), std::runtime_error);
  EXPECT_THROW((void)cfg.getDouble("x"), std::runtime_error);
  EXPECT_EQ(cfg.getString("x"), "hello");
}

TEST(Config, MergeOverrides) {
  auto a = Config::fromString("x = 1\ny = 2\n");
  const auto b = Config::fromString("y = 3\nz = 4\n");
  a.merge(b);
  EXPECT_EQ(a.getInt("x"), 1);
  EXPECT_EQ(a.getInt("y"), 3);
  EXPECT_EQ(a.getInt("z"), 4);
}

TEST(Config, RoundTripsThroughToString) {
  const auto a = Config::fromString("[s]\nk = v\nn = 5\n");
  const auto b = Config::fromString(a.toString());
  EXPECT_EQ(b.getString("s.k"), "v");
  EXPECT_EQ(b.getInt("s.n"), 5);
}

// ----------------------------------------------------------------- stats

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  for (double v : {1.0, 2.0, 3.0, 4.0}) a.add(v);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_NEAR(a.variance(), 1.25, 1e-9);
}

TEST(Stats, AccumulatorEmptyIsSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Stats, TimeSeriesWindows) {
  TimeSeries s("x");
  for (Cycle c = 0; c < 10; ++c) s.sample(c * 10, static_cast<double>(c));
  EXPECT_EQ(s.size(), 10u);
  EXPECT_DOUBLE_EQ(s.maxValue(), 9.0);
  EXPECT_DOUBLE_EQ(s.meanValueIn(0, 50), 2.0);   // samples 0..4
  EXPECT_DOUBLE_EQ(s.meanValueIn(50, 100), 7.0);  // samples 5..9
}

TEST(Stats, UtilizationClamped) {
  Utilization u;
  u.addBusy(150);
  EXPECT_DOUBLE_EQ(u.fraction(100), 1.0);
  EXPECT_DOUBLE_EQ(u.fraction(300), 0.5);
  EXPECT_DOUBLE_EQ(u.fraction(0), 0.0);
}

// Determinism property: identical seeds and schedules produce identical
// event orderings — the foundation of every reproducibility claim.
TEST(Simulator, DeterministicAcrossRuns) {
  auto runOnce = [] {
    Simulator sim;
    Prng rng(77);
    std::vector<Cycle> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(rng.below(100), [&trace, &sim] { trace.push_back(sim.now()); });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
