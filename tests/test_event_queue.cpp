// Tests for the timing-wheel event kernel: the allocation-free Event type,
// same-cycle FIFO order across the bucket/overflow-heap boundary, wheel
// wrap-around at large cycle deltas, a seeded differential test against an
// ordered-map oracle, teardown with pending events, and a determinism
// regression against the seed (binary-heap) kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/sim/event.hpp"
#include "eclipse/sim/event_queue.hpp"
#include "eclipse/sim/prng.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"

#include "decode_pin.hpp"
#include "pin_workload.hpp"

namespace {

using namespace eclipse;
using namespace eclipse::sim;

constexpr Cycle kSpan = EventQueue::kWheelSpan;

// ----------------------------------------------------------------- event

TEST(Event, InlineCallableRunsWithoutAllocation) {
  int hits = 0;
  int* p = &hits;
  Event ev([p] { ++*p; });  // small + trivially copyable: stored inline
  Event moved = std::move(ev);
  moved();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(static_cast<bool>(ev));  // NOLINT(bugprone-use-after-move)
}

TEST(Event, LargeOrNonTrivialCallableFallsBackToHeap) {
  auto token = std::make_shared<int>(7);
  int got = 0;
  {
    Event ev([token, &got] { got = *token; });  // shared_ptr: non-trivial copy
    EXPECT_EQ(token.use_count(), 2);
    ev();
  }
  EXPECT_EQ(got, 7);
  EXPECT_EQ(token.use_count(), 1);  // holder destroyed with the event
}

TEST(Event, DroppingHeapEventReleasesWithoutInvoking) {
  auto token = std::make_shared<int>(1);
  bool ran = false;
  {
    Event ev([token, &ran] { ran = true; });
    EXPECT_EQ(token.use_count(), 2);
  }  // destroyed, never invoked
  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1);
}

// ----------------------------------------------------- wheel fundamentals

TEST(EventQueueWheel, PopsAcrossWheelAndOverflowInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(kSpan * 3, [&] { order.push_back(3); });  // overflow heap
  q.push(1, [&] { order.push_back(1); });          // wheel
  q.push(kSpan + 5, [&] { order.push_back(2); });  // overflow heap
  q.push(0, [&] { order.push_back(0); });          // wheel, current cycle
  Cycle prev = 0;
  while (!q.empty()) {
    Cycle at = 0;
    auto ev = q.pop(&at);
    EXPECT_GE(at, prev);
    prev = at;
    ev();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueWheel, SameCycleFifoAcrossBucketHeapBoundary) {
  EventQueue q;
  std::vector<int> order;
  const Cycle x = kSpan + 4;  // beyond the horizon while base is 0
  q.push(x, [&] { order.push_back(0); });  // lands in the overflow heap
  q.push(x, [&] { order.push_back(1); });  // FIFO within the heap too
  q.push(10, [&] { order.push_back(-1); });
  // Draining cycle 10 advances the window; x now fits and both heap
  // entries must migrate into their bucket *before* any later push.
  q.pop()();
  q.push(x, [&] { order.push_back(2); });  // direct wheel push, same cycle
  q.push(x, [&] { order.push_back(3); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

TEST(EventQueueWheel, WrapAroundAtLargeCycleDeltas) {
  EventQueue q;
  std::vector<Cycle> popped;
  // Cycles crossing many wheel spans; several alias to the same bucket
  // index mod kSpan, so ordering must come from the window logic alone.
  std::vector<Cycle> cycles;
  for (int k = 12; k >= 0; --k) cycles.push_back(static_cast<Cycle>(k) * (kSpan - 1));
  for (Cycle c : cycles) {
    q.push(c, [&popped, c] { popped.push_back(c); });
  }
  while (!q.empty()) {
    Cycle at = 0;
    q.pop(&at)();
    ASSERT_EQ(at, popped.back());
  }
  EXPECT_EQ(popped.size(), cycles.size());
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LT(popped[i - 1], popped[i]);
}

TEST(EventQueueWheel, WindowJumpOverEmptySpans) {
  EventQueue q;
  Cycle seen = 0;
  q.push(1'000'000'000, [&] { seen = 1; });  // far beyond any wheel span
  Cycle at = 0;
  q.pop(&at)();
  EXPECT_EQ(at, 1'000'000'000u);
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(q.empty());
  // The queue stays usable after the jump; earlier pushes clamp forward.
  q.push(5, [&] { seen = 2; });
  q.pop(&at)();
  EXPECT_EQ(seen, 2u);
}

TEST(EventQueueWheel, PushDuringDrainOfSameCycleKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  q.push(7, [&] {
    order.push_back(0);
    q.push(7, [&] { order.push_back(2); });  // same cycle, while draining it
  });
  q.push(7, [&] { order.push_back(1); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueWheel, ClearDropsPendingHeapEventsWithoutInvoking) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  bool ran = false;
  q.push(3, [token, &ran] { ran = true; });       // heap-held callable
  q.push(kSpan * 2, [token, &ran] { ran = true; });  // pending in overflow
  EXPECT_EQ(token.use_count(), 3);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1);
}

// ------------------------------------------------- differential vs oracle

// The oracle orders pending events by (cycle, push sequence): the queue's
// contract is time order with FIFO among same-cycle events, whichever of
// wheel bucket or overflow heap an event passed through.
class QueueOracle {
 public:
  void push(Cycle at, int id) { pending_.emplace(std::make_pair(at, seq_++), id); }
  std::pair<Cycle, int> pop() {
    auto it = pending_.begin();
    const std::pair<Cycle, int> front{it->first.first, it->second};
    pending_.erase(it);
    return front;
  }
  [[nodiscard]] Cycle nextCycle() const { return pending_.begin()->first.first; }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  void clear() { pending_.clear(); }

 private:
  std::multimap<std::pair<Cycle, std::uint64_t>, int> pending_;
  std::uint64_t seq_ = 0;
};

// Delay mix: same cycle, short, across the whole wheel, right at the
// horizon (wheel vs overflow), several spans out (overflow migration) and
// far beyond (window jumps over empty spans).
Cycle randomDelay(Prng& rng) {
  switch (rng.below(8)) {
    case 0: return 0;
    case 1:
    case 2: return rng.below(16);
    case 3: return rng.below(kSpan);
    case 4: return kSpan - 2 + rng.below(4);
    case 5: return kSpan + rng.below(3 * kSpan);
    case 6: return rng.below(64) * kSpan;
    default: return 100'000 + rng.below(10'000'000);
  }
}

void runDifferential(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  Prng rng(seed);
  EventQueue q;
  QueueOracle oracle;
  auto token = std::make_shared<int>(0);  // held by heap-stored events
  int fired = -1;
  int next_id = 0;
  Cycle now = 0;  // cycle of the last pop; pushes never go earlier

  auto push = [&](Cycle at) {
    const int id = next_id++;
    if (rng.below(8) == 0) {
      q.push(at, [token, &fired, id] { fired = id; });  // heap fallback
    } else {
      q.push(at, [&fired, id] { fired = id; });  // inline
    }
    oracle.push(at, id);
  };
  auto popAndCheck = [&] {
    ASSERT_EQ(q.nextCycle(), oracle.nextCycle());
    Cycle at = 0;
    Event ev = q.pop(&at);
    const auto [want_at, want_id] = oracle.pop();
    ASSERT_EQ(at, want_at);
    ASSERT_GE(at, now);
    now = at;
    ev();
    ASSERT_EQ(fired, want_id);
  };

  for (int step = 0; step < 20'000; ++step) {
    const auto op = rng.below(100);
    if (op < 50 || q.empty()) {
      push(now + randomDelay(rng));
    } else if (op < 96) {
      popAndCheck();
      // Pushes while the popped cycle may still hold events: they must
      // queue behind the same-cycle events already pending.
      while (rng.below(3) == 0) push(now + (rng.below(2) == 0 ? 0 : rng.below(8)));
    } else if (op < 99) {
      const auto burst = 1 + rng.below(200);  // grow the slab, then drain
      for (std::uint64_t i = 0; i < burst; ++i) push(now + rng.below(2 * kSpan));
    } else {
      q.clear();
      oracle.clear();
      ASSERT_EQ(token.use_count(), 1);  // dropped heap events are released
    }
    ASSERT_EQ(q.size(), oracle.size());
    ASSERT_EQ(q.empty(), oracle.size() == 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!q.empty()) {
    popAndCheck();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(oracle.size(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueDifferential, RandomOpsMatchOrderedMapOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    runDifferential(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, ClearWithHeapEventsInWheelAndOverflowThenReuse) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    const Cycle at = static_cast<Cycle>(i) * (kSpan / 8);  // wheel and overflow
    q.push(at, [token, &order, i] { order.push_back(i); });
  }
  q.pop()();  // start draining: the window base is now 0
  ASSERT_EQ(order, (std::vector<int>{0}));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(token.use_count(), 1);
  // Freed slab nodes are reused in the right order after the clear.
  order.clear();
  for (int i = 0; i < 5; ++i) q.push(10, [&order, i] { order.push_back(i); });
  q.push(9, [&order] { order.push_back(-1); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
}

// ------------------------------------------------------------- teardown

Task<void> sleeper(Simulator& sim, Cycle n) { co_await sim.delay(n); }

TEST(SimulatorTeardown, DestroyProcessesWithPendingInlineEvents) {
  Simulator sim;
  // Coroutine resumes pending in the wheel and in the overflow heap.
  sim.spawn(sleeper(sim, 3), "near");
  sim.spawn(sleeper(sim, kSpan * 5), "far");
  sim.run(1);  // start both; they are now suspended in delay()
  EXPECT_EQ(sim.liveProcesses(), 2u);
  EXPECT_FALSE(sim.quiescent());
  sim.destroyProcesses();  // must drop events before frames, no crash
  EXPECT_EQ(sim.liveProcesses(), 0u);
  EXPECT_TRUE(sim.quiescent());
  // The simulator stays usable after teardown.
  Cycle done = 0;
  sim.spawn(sleeper(sim, 2), "again");
  sim.schedule(4, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, sim.now());
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

// ---------------------------------------------------------- determinism

// Regression pin against the seed kernel (std::function + binary heap):
// the queue swap must not change simulation results. These constants were
// captured from the seed build for the standard fixed-seed workload
// (96x80, 5 frames, qscale 14, GOP {9,3}, seed 3) and may only change
// when the *timing model* changes — never from kernel data structures.
TEST(Determinism, TimedDecodeMatchesSeedKernel) {
  const auto bitstream = pin::pinBitstream();

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bitstream);
  const Cycle cycles = inst.run();
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(cycles, pin::kDecodePinCycles);
  EXPECT_EQ(inst.simulator().eventsDispatched(), pin::kDecodePinEvents);
  EXPECT_EQ(dec.macroblocksDecoded(), pin::kDecodePinMacroblocks);

  // The stream-cache and bus counters under those cycles.
  std::uint64_t hits = 0, misses = 0, flushes = 0, prefetches = 0;
  for (auto& sh : inst.shells()) {
    for (std::uint32_t i = 0; i < sh->streams().capacity(); ++i) {
      const shell::StreamRow& r = sh->streams().row(i);
      if (!r.valid) continue;
      hits += r.cache_hits;
      misses += r.cache_misses;
      flushes += r.cache_flushes;
      prefetches += r.prefetches;
    }
  }
  EXPECT_EQ(hits, pin::kDecodePinCacheHits);
  EXPECT_EQ(misses, pin::kDecodePinCacheMisses);
  EXPECT_EQ(flushes, pin::kDecodePinCacheFlushes);
  EXPECT_EQ(prefetches, pin::kDecodePinPrefetches);
  const mem::BusStats& rd = inst.sram().readBus().stats();
  const mem::BusStats& wr = inst.sram().writeBus().stats();
  const mem::BusStats& sys = inst.dram().bus().stats();
  EXPECT_EQ(rd.transactions, pin::kDecodePinSramReadTransactions);
  EXPECT_EQ(rd.busy_cycles, pin::kDecodePinSramReadBusy);
  EXPECT_EQ(wr.transactions, pin::kDecodePinSramWriteTransactions);
  EXPECT_EQ(wr.busy_cycles, pin::kDecodePinSramWriteBusy);
  EXPECT_EQ(sys.transactions, pin::kDecodePinSystemBusTransactions);
  EXPECT_EQ(sys.busy_cycles, pin::kDecodePinSystemBusBusy);

  // And identical across runs in the same process (no hidden state).
  app::EclipseInstance inst2;
  app::DecodeApp dec2(inst2, bitstream);
  const Cycle cycles2 = inst2.run();
  ASSERT_TRUE(dec2.done());
  EXPECT_EQ(cycles2, cycles);
  EXPECT_EQ(inst2.simulator().eventsDispatched(), inst.simulator().eventsDispatched());
}

}  // namespace
