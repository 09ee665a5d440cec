// Tests for the coroutine frame pool: size classes, the per-class bound
// (frames beyond it return to the heap), frees on a thread other than the
// allocating one, release of cached frames at thread exit, exceptions
// thrown out of pooled coroutines, and a heap-free steady state for nested
// tasks. Each test runs on a fresh thread so it starts from an empty pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/frame_pool.hpp"
#include "eclipse/sim/simulator.hpp"

namespace {

using namespace eclipse::sim;
namespace fp = eclipse::sim::frame_pool;

void onFreshThread(const std::function<void()>& body) {
  std::thread t(body);
  t.join();
}

TEST(FramePool, SizeClassesShareFramesWithinSixteenBytes) {
  onFreshThread([] {
    void* a = fp::allocate(10);
    fp::deallocate(a, 10);
    EXPECT_EQ(fp::cachedInClass(16), 1u);  // 10 and 16 bytes: one class
    EXPECT_EQ(fp::cachedInClass(17), 0u);
    void* b = fp::allocate(17);  // next class: not served from the 16-byte list
    EXPECT_NE(b, a);
    void* c = fp::allocate(16);
    EXPECT_EQ(c, a);  // recycled
    EXPECT_EQ(fp::cachedInClass(16), 0u);
    fp::deallocate(b, 17);
    fp::deallocate(c, 16);
    EXPECT_EQ(fp::threadStats().cached_frames, 2u);
    EXPECT_EQ(fp::threadStats().reused, 1u);
  });
}

TEST(FramePool, FramesAboveTheLargestClassBypassThePool) {
  onFreshThread([] {
    constexpr std::size_t kBig = fp::kMaxPooledBytes + 1;
    void* p = fp::allocate(kBig);
    fp::deallocate(p, kBig);
    EXPECT_EQ(fp::cachedInClass(kBig), 0u);
    EXPECT_EQ(fp::threadStats().cached_frames, 0u);
    EXPECT_EQ(fp::threadStats().heap_frees, 1u);
    // The largest pooled size is still cached.
    p = fp::allocate(fp::kMaxPooledBytes);
    fp::deallocate(p, fp::kMaxPooledBytes);
    EXPECT_EQ(fp::cachedInClass(fp::kMaxPooledBytes), 1u);
  });
}

TEST(FramePool, FullFreeListReturnsFramesToTheHeap) {
  onFreshThread([] {
    constexpr std::size_t kExtra = 8;
    std::vector<void*> frames;
    for (std::size_t i = 0; i < fp::kMaxCachedPerClass + kExtra; ++i) {
      frames.push_back(fp::allocate(64));
    }
    const auto before = fp::threadStats();
    for (void* p : frames) fp::deallocate(p, 64);
    const auto after = fp::threadStats();
    EXPECT_EQ(fp::cachedInClass(64), fp::kMaxCachedPerClass);
    EXPECT_EQ(after.heap_frees - before.heap_frees, kExtra);
  });
}

Task<int> answer() { co_return 42; }

TEST(FramePool, FrameFreedOnAnotherThreadJoinsThatThreadsList) {
  std::vector<void*> raw;
  Task<int> task;
  std::size_t allocator_cached = 0;
  onFreshThread([&] {
    for (int i = 0; i < 4; ++i) raw.push_back(fp::allocate(48));
    task = answer();  // a real coroutine frame, allocated here
    allocator_cached = fp::threadStats().cached_frames;
  });
  EXPECT_EQ(allocator_cached, 0u);
  onFreshThread([&] {
    for (void* p : raw) fp::deallocate(p, 48);
    EXPECT_EQ(fp::cachedInClass(48), 4u);
    // The adopted frames serve this thread's allocations.
    void* p = fp::allocate(48);
    EXPECT_EQ(p, raw.back());
    fp::deallocate(p, 48);
    task = Task<int>{};  // destroys the frame on this thread
    EXPECT_EQ(fp::threadStats().cached_frames, 5u);
  });
}

TEST(FramePool, ThreadExitReleasesCachedFrames) {
  const std::uint64_t before = fp::releasedAtThreadExit();
  std::uint64_t cached = 0;
  onFreshThread([&] {
    std::vector<void*> frames;
    for (std::size_t bytes = 16; bytes <= 256; bytes += 16) frames.push_back(fp::allocate(bytes));
    for (std::size_t i = 0; i < frames.size(); ++i) fp::deallocate(frames[i], 16 * (i + 1));
    cached = fp::threadStats().cached_frames;
  });
  EXPECT_EQ(cached, 16u);
  EXPECT_EQ(fp::releasedAtThreadExit() - before, cached);
}

Task<int> thrower(Simulator& sim, int n) {
  co_await sim.delay(1);
  if (n % 2 == 1) throw std::runtime_error("odd");
  co_return n;
}

Task<void> catcher(Simulator& sim, int rounds, int& caught, int& sum) {
  for (int i = 0; i < rounds; ++i) {
    try {
      sum += co_await thrower(sim, i);
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
}

Task<void> failingRoot(Simulator& sim) {
  co_await sim.delay(2);
  throw std::logic_error("root failure");
}

TEST(FramePool, ExceptionsOutOfPooledCoroutinesReleaseTheirFrames) {
  onFreshThread([] {
    Simulator sim;
    int caught = 0;
    int sum = 0;
    sim.spawn(catcher(sim, 100, caught, sum), "catcher");
    sim.run();
    EXPECT_EQ(caught, 50);
    EXPECT_EQ(sum, 2450);  // 0 + 2 + ... + 98
    // One child frame recycled each round after the first.
    EXPECT_GE(fp::threadStats().reused, 99u);

    // An exception escaping a root process surfaces from run(); its frame
    // is released with the simulator's processes.
    sim.spawn(failingRoot(sim), "failing");
    EXPECT_THROW(sim.run(), std::logic_error);
    sim.destroyProcesses();
    EXPECT_GE(fp::threadStats().cached_frames, 2u);
  });
}

Task<int> leaf(Simulator& sim, int v) {
  co_await sim.delay(1);
  co_return v;
}

Task<int> middle(Simulator& sim, int v) {
  const int a = co_await leaf(sim, v);
  const int b = co_await leaf(sim, v + 1);
  co_return a + b;
}

Task<void> driver(Simulator& sim, int rounds, long& total) {
  for (int i = 0; i < rounds; ++i) total += co_await middle(sim, i);
}

TEST(FramePool, NestedTasksReachAHeapFreeSteadyState) {
  onFreshThread([] {
    Simulator sim;
    long total = 0;
    sim.spawn(driver(sim, 10, total), "warmup");
    sim.run();
    sim.destroyProcesses();  // finished root frames are kept until here
    const auto warm = fp::threadStats();
    sim.spawn(driver(sim, 1000, total), "steady");
    sim.run();
    const auto after = fp::threadStats();
    // The warm-up left a frame of every size on the free lists, so the new
    // root and every child frame come off a free list.
    EXPECT_EQ(after.heap_allocs, warm.heap_allocs);
    EXPECT_GE(after.reused - warm.reused, 3000u);
  });
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePoolDeathTest, UseOfACachedFrameIsReportedUnderAsan) {
  EXPECT_DEATH(
      {
        auto* p = static_cast<volatile unsigned char*>(fp::allocate(64));
        fp::deallocate(const_cast<unsigned char*>(p), 64);
        p[8] = 1;
      },
      "use-after-poison");
}
#endif

}  // namespace
