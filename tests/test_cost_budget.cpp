// Host cost budget of the reference decode: the coroutine frames and heap
// allocations one pin decode makes, held to declared budgets so that a
// regression on the simulation hot path fails under its own name
// (`ctest -L budget`). Both counts are exact for a given build: the
// simulation is deterministic and single-threaded.
//
// This binary replaces the global operator new with a counting one, which
// is why it is an executable of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/sim/frame_pool.hpp"

#include "decode_pin.hpp"
#include "pin_workload.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace eclipse;

// Budgets for one pin decode (instance construction, decode app set-up
// and the run), measured on the second decode in the process so that the
// frame pool and the reusable buffers are warm. Frames are pool reuses
// plus heap-allocated frames; they count coroutine calls and do not depend
// on frame sizes. Allocations count every global operator new.
constexpr std::uint64_t kFrameBudget = 13600;
constexpr std::uint64_t kAllocationBudget = 303;

struct Cost {
  std::uint64_t frames = 0;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
};

Cost pinDecodeCost(const std::vector<std::uint8_t>& bitstream) {
  const sim::frame_pool::Stats f0 = sim::frame_pool::threadStats();
  const std::uint64_t n0 = g_news.load(std::memory_order_relaxed);
  Cost c;
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bitstream);
    const sim::Cycle cycles = inst.run();
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(cycles, pin::kDecodePinCycles);
    c.events = inst.simulator().eventsDispatched();
  }
  const sim::frame_pool::Stats f1 = sim::frame_pool::threadStats();
  c.frames = (f1.reused - f0.reused) + (f1.heap_allocs - f0.heap_allocs);
  c.allocations = g_news.load(std::memory_order_relaxed) - n0;
  return c;
}

TEST(CostBudget, PinDecodeFramesAndAllocations) {
  const auto bitstream = pin::pinBitstream();
  (void)pinDecodeCost(bitstream);  // warm-up
  const Cost c = pinDecodeCost(bitstream);
  EXPECT_EQ(c.events, pin::kDecodePinEvents);
  RecordProperty("frames", static_cast<int>(c.frames));
  RecordProperty("allocations", static_cast<int>(c.allocations));
  EXPECT_LE(c.frames, kFrameBudget) << "coroutine frames per pin decode";
  EXPECT_LE(c.allocations, kAllocationBudget) << "operator new calls per pin decode";
  std::printf("pin decode: %llu frames (%.3f per event), %llu allocations\n",
              static_cast<unsigned long long>(c.frames),
              static_cast<double>(c.frames) / static_cast<double>(c.events),
              static_cast<unsigned long long>(c.allocations));
}

}  // namespace
