// Tests for the stream caches and the explicit sync-driven coherency
// protocol of Section 5.2: invalidate-on-GetSpace, flush-before-putspace,
// read-modify-write partial lines, prefetching and hit/miss accounting.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "eclipse/sim/prng.hpp"
#include "shell_fixture.hpp"

namespace {

using namespace eclipse;
using eclipse::test::TwoShellFixture;
using shell::Shell;
using shell::ShellParams;
using sim::Task;

class ShellCache : public TwoShellFixture {};

Task<void> repeatReadsHitCache(Shell& prod, Shell& cons) {
  std::uint8_t data[64];
  for (std::size_t i = 0; i < 64; ++i) data[i] = static_cast<std::uint8_t>(i);
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 64));
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, 64);

  co_await cons.waitSpace(0, 0, 64);
  std::uint8_t buf[16];
  for (int k = 0; k < 4; ++k) co_await cons.read(0, 0, 0, buf);  // same line
  EXPECT_EQ(buf[0], 0);
}

TEST_F(ShellCache, RepeatedReadsOfOneLineMissOnce) {
  // Disable prefetch so the miss accounting is exact.
  ShellParams p;
  p.prefetch = false;
  rebuild(p);
  connect(256);
  run(repeatReadsHitCache(*prod, *cons));
  const auto& row = cons->streams().row(cons_row);
  EXPECT_EQ(row.cache_misses, 1u);
  EXPECT_EQ(row.cache_hits, 3u);
}

Task<void> wraparoundStaleness(Shell& prod, Shell& cons, int rounds) {
  // Buffer = exactly two cache lines; every round rewrites the same SRAM
  // addresses. If invalidate-on-GetSpace or flush-before-putspace were
  // missing, the consumer would observe stale data from an earlier round.
  for (int r = 0; r < rounds; ++r) {
    std::uint8_t data[128];
    for (std::size_t i = 0; i < sizeof data; ++i) {
      data[i] = static_cast<std::uint8_t>(r * 31 + i);
    }
    co_await prod.waitSpace(0, 0, 128);
    co_await prod.write(0, 0, 0, data);
    co_await prod.putSpace(0, 0, 128);

    std::uint8_t got[128];
    co_await cons.waitSpace(0, 0, 128);
    co_await cons.read(0, 0, 0, got);
    for (std::size_t i = 0; i < sizeof got; ++i) {
      EXPECT_EQ(got[i], static_cast<std::uint8_t>(r * 31 + i)) << "round " << r << " byte " << i;
    }
    co_await cons.putSpace(0, 0, 128);
  }
}

TEST_F(ShellCache, CoherencyAcrossBufferWraparound) {
  connect(128);  // two 64-byte lines
  run(wraparoundStaleness(*prod, *cons, 50));
  EXPECT_GT(cons->streams().row(cons_row).cache_invalidations, 0u);
  EXPECT_GT(prod->streams().row(prod_row).cache_flushes, 0u);
}

// Producer commits in 24-byte pieces (crossing 64-byte cache lines), so
// flushes perform read-modify-write on shared lines. The consumer, with
// its own offset phase, must still see every byte correctly.
Task<void> partialWriter(Shell& prod) {
  std::uint32_t counter = 0;
  for (int p = 0; p < 40; ++p) {
    std::uint8_t chunk[24];
    for (auto& c : chunk) c = static_cast<std::uint8_t>(counter++);
    co_await prod.waitSpace(0, 0, 24);
    co_await prod.write(0, 0, 0, chunk);
    co_await prod.putSpace(0, 0, 24);
  }
}

Task<void> partialReader(Shell& cons) {
  std::uint32_t check = 0;
  for (int p = 0; p < 40; ++p) {
    std::uint8_t chunk[24];
    co_await cons.waitSpace(0, 0, 24);
    co_await cons.read(0, 0, 0, chunk);
    for (const auto c : chunk) EXPECT_EQ(c, static_cast<std::uint8_t>(check++));
    co_await cons.putSpace(0, 0, 24);
  }
}

TEST_F(ShellCache, PartialLineCommitsAreCoherent) {
  connect(192);
  sim->spawn(partialWriter(*prod), "w");
  sim->spawn(partialReader(*cons), "r");
  sim->run(10'000'000);
  ASSERT_EQ(sim->liveProcesses(), 0u);
}

Task<void> onePacket(Shell& prod, Shell& cons, std::uint32_t n) {
  std::vector<std::uint8_t> data(n, 0x5A);
  co_await prod.waitSpace(0, 0, n);
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, n);
  co_await cons.waitSpace(0, 0, n);
  std::vector<std::uint8_t> got(n);
  co_await cons.read(0, 0, 0, got);
  co_await cons.putSpace(0, 0, n);
}

TEST_F(ShellCache, PrefetchReducesMissesOnSequentialReads) {
  auto missesWith = [&](bool prefetch) {
    ShellParams p;
    p.prefetch = prefetch;
    p.cache_lines_per_port = 2;
    rebuild(p);
    connect(512);
    sim->spawn(onePacket(*prod, *cons, 512), "t");
    sim->run(1'000'000);
    return cons->streams().row(cons_row).cache_misses;
  };
  const auto without = missesWith(false);
  const auto with = missesWith(true);
  EXPECT_LT(with, without);
}

TEST_F(ShellCache, PrefetchCounterAdvances) {
  connect(512);
  run(onePacket(*prod, *cons, 512));
  EXPECT_GT(cons->streams().row(cons_row).prefetches, 0u);
}

Task<void> bigBurst(Shell& prod, std::uint32_t n) {
  std::vector<std::uint8_t> data(n, 1);
  co_await prod.waitSpace(0, 0, n);
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, n);
}

TEST_F(ShellCache, EvictionHandlesTransfersLargerThanCache) {
  // 2 lines of cache, 8-line transfer: forces eviction of dirty lines.
  connect(512);
  run(bigBurst(*prod, 512));
  const auto& row = prod->streams().row(prod_row);
  // All eight lines were written; flushes happen on eviction and commit.
  EXPECT_GE(row.cache_flushes, 8u);
  // Everything must have reached SRAM.
  for (sim::Addr a = 0; a < 512; ++a) {
    ASSERT_EQ(sram->storage().peek(0x400 + a), 1);
  }
}

TEST_F(ShellCache, SingleLineCacheStillCorrect) {
  ShellParams p;
  p.cache_lines_per_port = 1;
  p.prefetch = false;
  rebuild(p);
  connect(128);
  run(wraparoundStaleness(*prod, *cons, 20));
}

TEST_F(ShellCache, TinyLinesStillCorrect) {
  ShellParams p;
  p.cache_line_bytes = 16;
  p.cache_lines_per_port = 4;
  rebuild(p);
  connect(128);
  run(wraparoundStaleness(*prod, *cons, 20));
}

Task<void> statsAccumulate(Shell& prod, Shell& cons) {
  co_await onePacket(prod, cons, 128);
  co_await onePacket(prod, cons, 128);
}

TEST_F(ShellCache, TransferCountersTrackBytes) {
  connect(256);
  run(statsAccumulate(*prod, *cons));
  EXPECT_EQ(prod->streams().row(prod_row).bytes_transferred, 256u);
  EXPECT_EQ(cons->streams().row(cons_row).bytes_transferred, 256u);
  EXPECT_EQ(prod->streams().row(prod_row).write_calls, 2u);
  EXPECT_EQ(cons->streams().row(cons_row).read_calls, 2u);
}

// Stress: random interleavings of variable-size commits through a small
// buffer with aggressive cache pressure — data must survive bit-exactly.
Task<void> stressProducer(Shell& sh, int packets, std::uint64_t seed) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, 96));
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(counter * 7 + 1), ++counter;
    co_await sh.waitSpace(0, 0, n);
    // Write in random sub-chunks at random offsets covering [0, n).
    std::uint32_t off = 0;
    while (off < n) {
      const auto k = static_cast<std::uint32_t>(rng.range(1, static_cast<std::int64_t>(n - off)));
      co_await sh.write(0, 0, off, std::span<const std::uint8_t>(buf).subspan(off, k));
      off += k;
    }
    co_await sh.putSpace(0, 0, n);
  }
}

Task<void> stressConsumer(Shell& sh, int packets, std::uint64_t seed, bool& ok) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  ok = true;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, 96));
    std::vector<std::uint8_t> buf(n);
    co_await sh.waitSpace(0, 0, n);
    co_await sh.read(0, 0, 0, buf);
    std::uint32_t off = 0;
    while (off < n) {  // consume the same sub-chunk pattern from the rng
      const auto k = static_cast<std::uint32_t>(rng.range(1, static_cast<std::int64_t>(n - off)));
      off += k;
    }
    for (const auto b : buf) {
      if (b != static_cast<std::uint8_t>(counter * 7 + 1)) ok = false;
      ++counter;
    }
    co_await sh.putSpace(0, 0, n);
  }
}

TEST_F(ShellCache, RandomizedStressIsBitExact) {
  ShellParams p;
  p.cache_line_bytes = 32;
  p.cache_lines_per_port = 2;
  rebuild(p);
  connect(128);
  bool ok = false;
  sim->spawn(stressProducer(*prod, 300, 9), "p");
  sim->spawn(stressConsumer(*cons, 300, 9, ok), "c");
  sim->run(100'000'000);
  ASSERT_EQ(sim->liveProcesses(), 0u);
  EXPECT_TRUE(ok);
}

// --------------------------------------------- stream cache, driven directly

// One 64-byte-line, two-line cache on a 16-byte SRAM read bus (1 cycle
// arbitration + 4 data + 1 access latency per line fill).
struct DirectCache {
  sim::Simulator sim;
  mem::SharedSram sram{sim, mem::SramParams{}};
  shell::StreamCache cache{sim, sram, 64, 2, 0};
  shell::StreamRow row;
};

Task<void> readLine(DirectCache& d, sim::Addr addr, sim::Cycle& done_at) {
  if (const std::size_t hit = d.cache.hitWalk(d.row, addr, 64, false); hit < 64) {
    co_await d.cache.missWalk(d.row, addr + hit, 64 - hit, false);
  }
  done_at = d.sim.now();
}

TEST(StreamCacheDirect, LineSizeMustBeAPowerOfTwo) {
  sim::Simulator sim;
  mem::SharedSram sram{sim, mem::SramParams{}};
  for (const std::uint32_t bad : {0u, 3u, 24u, 48u, 96u}) {
    EXPECT_THROW(shell::StreamCache(sim, sram, bad, 2, 0), std::invalid_argument) << bad;
  }
  for (const std::uint32_t good : {1u, 16u, 32u, 64u, 128u}) {
    shell::StreamCache cache(sim, sram, good, 2, 0);
    EXPECT_EQ(cache.alignDown(1000), 1000u / good * good) << good;
  }
}

TEST(StreamCacheDirect, PrefetchedLineHitsSynchronously) {
  DirectCache d;
  d.cache.startPrefetch(d.row, 0);
  d.sim.run();  // the fill lands at cycle 6
  EXPECT_EQ(d.cache.hitWalk(d.row, 0, 64, false), 64u);
  EXPECT_EQ(d.row.cache_hits, 1u);
  EXPECT_EQ(d.row.cache_misses, 0u);
  EXPECT_EQ(d.row.prefetches, 1u);
  EXPECT_EQ(d.sram.readBus().stats().transactions, 1u);
  EXPECT_EQ(d.sim.liveProcesses(), 0u);  // the prefetch is no process
}

TEST(StreamCacheDirect, AccessWaitsForAPendingPrefetchThenHits) {
  DirectCache d;
  d.cache.startPrefetch(d.row, 0);
  sim::Cycle done = 0;
  d.sim.spawn(readLine(d, 0, done), "r");
  d.sim.run();
  EXPECT_EQ(done, 6u);  // woken by the fill, not a second fill
  EXPECT_EQ(d.row.cache_hits, 1u);
  EXPECT_EQ(d.row.cache_misses, 0u);
  EXPECT_EQ(d.sram.readBus().stats().transactions, 1u);
}

TEST(StreamCacheDirect, PrefetchInvalidatedInFlightIsDropped) {
  DirectCache d;
  d.cache.startPrefetch(d.row, 0);
  // A window extension supersedes the line while its fill is in flight.
  d.sim.schedule(2, [&] { d.cache.invalidateRange(d.row, 0, 64); });
  d.sim.run();
  EXPECT_EQ(d.row.cache_invalidations, 1u);
  EXPECT_EQ(d.cache.hitWalk(d.row, 0, 64, false), 0u);  // dropped on arrival
  sim::Cycle done = 0;
  d.sim.spawn(readLine(d, 0, done), "r");
  const sim::Cycle start = d.sim.now();
  d.sim.run();
  EXPECT_EQ(done - start, 6u);  // a fresh miss and fill
  EXPECT_EQ(d.row.cache_misses, 1u);
  EXPECT_EQ(d.row.cache_hits, 0u);
  EXPECT_EQ(d.sram.readBus().stats().transactions, 2u);
}

TEST(StreamCacheDirect, AccessWaitingOnADroppedPrefetchMissesAgain) {
  DirectCache d;
  d.cache.startPrefetch(d.row, 0);
  sim::Cycle done = 0;
  d.sim.spawn(readLine(d, 0, done), "r");  // parks on the pending line
  d.sim.schedule(2, [&] { d.cache.invalidateRange(d.row, 0, 64); });
  d.sim.run();
  // The prefetch lands dropped at 6; the access then misses and fills.
  EXPECT_EQ(done, 12u);
  EXPECT_EQ(d.row.cache_misses, 1u);
  EXPECT_EQ(d.row.cache_hits, 0u);
  EXPECT_EQ(d.sram.readBus().stats().transactions, 2u);
}

}  // namespace
