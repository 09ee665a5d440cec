// Unit tests for the memory subsystem: storage, buses, SRAM/DRAM models,
// the putspace message network and the PI control bus.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "eclipse/mem/bus.hpp"
#include "eclipse/mem/message_network.hpp"
#include "eclipse/mem/pi_bus.hpp"
#include "eclipse/mem/sram.hpp"
#include "eclipse/mem/storage.hpp"
#include "eclipse/sim/simulator.hpp"

namespace {

using namespace eclipse;
using namespace eclipse::mem;
using eclipse::sim::Cycle;
using eclipse::sim::Simulator;
using eclipse::sim::Task;

// --------------------------------------------------------------- storage

TEST(Storage, ReadWriteRoundTrip) {
  Storage s(256);
  std::vector<std::uint8_t> in{1, 2, 3, 4, 5};
  s.write(100, in);
  std::vector<std::uint8_t> out(5);
  s.read(100, out);
  EXPECT_EQ(in, out);
}

TEST(Storage, BoundsChecked) {
  Storage s(16);
  std::vector<std::uint8_t> buf(8);
  EXPECT_THROW(s.read(10, buf), std::out_of_range);
  EXPECT_THROW(s.write(16, buf), std::out_of_range);
  EXPECT_NO_THROW(s.read(8, buf));
  EXPECT_THROW((void)s.peek(16), std::out_of_range);
}

TEST(Storage, FillAndPoke) {
  Storage s(8);
  s.fill(0xAB);
  EXPECT_EQ(s.peek(7), 0xAB);
  s.poke(3, 0x11);
  EXPECT_EQ(s.peek(3), 0x11);
}

// ------------------------------------------------------------------- bus

Task<void> doTransfer(Bus& bus, std::size_t bytes, int client, Cycle& done_at, Simulator& sim) {
  co_await bus.transfer(bytes, client);
  done_at = sim.now();
}

TEST(Bus, TransferTimingMatchesWidth) {
  Simulator sim;
  Bus bus(sim, "b", 16, 2);  // 16B wide, 2-cycle arbitration
  Cycle done = 0;
  sim.spawn(doTransfer(bus, 64, 0, done, sim), "t");
  sim.run();
  EXPECT_EQ(done, 2u + 64 / 16);  // arb + 4 data cycles
  EXPECT_EQ(bus.stats().transactions, 1u);
  EXPECT_EQ(bus.stats().bytes, 64u);
}

TEST(Bus, PartialWordRoundsUp) {
  Simulator sim;
  Bus bus(sim, "b", 16, 0);
  EXPECT_EQ(bus.dataCycles(1), 1u);
  EXPECT_EQ(bus.dataCycles(16), 1u);
  EXPECT_EQ(bus.dataCycles(17), 2u);
}

TEST(Bus, ContendersSerialize) {
  Simulator sim;
  Bus bus(sim, "b", 8, 1);
  Cycle a = 0, b = 0;
  sim.spawn(doTransfer(bus, 32, 0, a, sim), "a");  // 1 + 4 = 5 cycles
  sim.spawn(doTransfer(bus, 32, 1, b, sim), "b");
  sim.run();
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 10u);  // waits for the first transfer
  EXPECT_EQ(bus.stats().busy_cycles, 10u);
  EXPECT_EQ(bus.perClientStats().at(0).bytes, 32u);
  EXPECT_EQ(bus.perClientStats().at(1).bytes, 32u);
}

TEST(Bus, PerClientStatsAreIndexedByClientId) {
  Simulator sim;
  Bus bus(sim, "b", 8, 0);
  Cycle done = 0;
  sim.spawn(doTransfer(bus, 16, 3, done, sim), "c3");
  sim.run();
  ASSERT_EQ(bus.perClientStats().size(), 4u);
  EXPECT_EQ(bus.perClientStats().at(3).bytes, 16u);
  EXPECT_EQ(bus.perClientStats().at(0).transactions, 0u);  // never transferred
  sim.spawn(doTransfer(bus, 16, -1, done, sim), "bad");
  EXPECT_THROW(sim.run(), std::invalid_argument);
  bus.resetStats();
  EXPECT_TRUE(bus.perClientStats().empty());
}

// A transfer driven by callbacks (Bus::start), as a stream-cache prefetch
// is: records the cycle it was done at.
struct CallbackTransfer : Bus::Transfer {
  Simulator* sim = nullptr;
  std::vector<std::pair<int, Cycle>>* log = nullptr;
  int id = 0;
};

void logDone(Bus::Transfer& t) {
  auto& c = static_cast<CallbackTransfer&>(t);
  c.log->emplace_back(c.id, c.sim->now());
}

Task<void> loggedAccess(Bus& bus, std::size_t bytes, Cycle post, int id, Simulator& sim,
                        std::vector<std::pair<int, Cycle>>& log) {
  co_await bus.access(bytes, id, post);
  log.emplace_back(id, sim.now());
}

TEST(Bus, GrantPassesInArrivalOrderAcrossAwaitersAndCallbacks) {
  Simulator sim;
  Bus bus(sim, "b", 8, 1);
  std::vector<std::pair<int, Cycle>> log;
  CallbackTransfer t1;
  t1.bytes = 16;  // 1 + 2 cycles
  t1.client = 1;
  t1.done = &logDone;
  t1.sim = &sim;
  t1.log = &log;
  t1.id = 1;
  CallbackTransfer t3 = t1;
  t3.bytes = 24;  // 1 + 3 cycles
  t3.client = 3;
  t3.id = 3;
  sim.spawn(loggedAccess(bus, 32, 0, 0, sim, log), "a0");  // holds 0..5
  sim.schedule(0, [&] { bus.start(t1); });
  sim.spawn(loggedAccess(bus, 8, 0, 2, sim, log), "a2");
  sim.schedule(0, [&] { bus.start(t3); });
  sim.run();
  // Each grant passes at the holder's release, in request order, whatever
  // the kind of requester.
  const std::vector<std::pair<int, Cycle>> want{{0, 5}, {1, 8}, {2, 10}, {3, 14}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(bus.stats().transactions, 4u);
  EXPECT_EQ(bus.stats().busy_cycles, 14u);
  EXPECT_EQ(bus.perClientStats().at(3).bytes, 24u);
}

TEST(Bus, PostLatencyRunsAfterTheGrantIsReleased) {
  Simulator sim;
  Bus bus(sim, "b", 8, 1);
  std::vector<std::pair<int, Cycle>> log;
  CallbackTransfer t2;
  t2.bytes = 8;
  t2.client = 2;
  t2.post = 6;
  t2.done = &logDone;
  t2.sim = &sim;
  t2.log = &log;
  t2.id = 2;
  sim.spawn(loggedAccess(bus, 16, 4, 0, sim, log), "a0");  // burst 0..3, done 7
  sim.spawn(loggedAccess(bus, 8, 0, 1, sim, log), "a1");   // burst 3..5
  sim.schedule(0, [&] { bus.start(t2); });                 // burst 5..7, done 13
  sim.run();
  const std::vector<std::pair<int, Cycle>> want{{1, 5}, {0, 7}, {2, 13}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(bus.stats().busy_cycles, 7u);
}

TEST(Bus, ZeroCycleTransferCompletesWithoutSuspending) {
  Simulator sim;
  Bus bus(sim, "b", 8, 0);
  std::vector<std::pair<int, Cycle>> log;
  CallbackTransfer t;
  t.bytes = 0;
  t.done = &logDone;
  t.sim = &sim;
  t.log = &log;
  bus.start(t);  // free bus, no burst, no post: done inside start()
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(sim.eventsDispatched(), 0u);
  EXPECT_TRUE(sim.quiescent());
  EXPECT_EQ(bus.stats().transactions, 1u);
}

TEST(Bus, UtilizationFraction) {
  Simulator sim;
  Bus bus(sim, "b", 8, 0);
  Cycle done = 0;
  sim.spawn(doTransfer(bus, 80, 0, done, sim), "t");  // 10 cycles
  sim.run();
  EXPECT_DOUBLE_EQ(bus.utilization(20), 0.5);
}

// ------------------------------------------------------------ SRAM / DRAM

Task<void> sramRoundTrip(SharedSram& sram, bool& ok, Simulator& sim) {
  std::vector<std::uint8_t> in(100);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i);
  co_await sram.write(0x40, in, 1);
  std::vector<std::uint8_t> out(100);
  co_await sram.read(0x40, out, 2);
  ok = in == out;
  (void)sim;
}

TEST(SharedSram, TimedRoundTrip) {
  Simulator sim;
  SramParams p;
  SharedSram sram(sim, p);
  bool ok = false;
  sim.spawn(sramRoundTrip(sram, ok, sim), "rt");
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(sram.readBus().stats().bytes, 100u);
  EXPECT_EQ(sram.writeBus().stats().bytes, 100u);
}

Task<void> concurrentReadWrite(SharedSram& sram, Cycle& r_done, Cycle& w_done, Simulator& sim) {
  // Split read/write buses: a read and a write of the same size do not
  // contend (the paper's separate 150 MHz read and write buses).
  std::vector<std::uint8_t> buf(64);
  co_await sram.write(0, buf, 0);
  w_done = sim.now();
  co_await sram.read(0, buf, 0);
  r_done = sim.now();
}

TEST(SharedSram, SplitBusesDoNotContend) {
  Simulator sim;
  SramParams p;
  p.bus_width_bytes = 16;
  p.bus_arbitration_latency = 1;
  p.access_latency = 1;
  SharedSram sram(sim, p);
  Cycle r1 = 0, w1 = 0;
  sim.spawn(concurrentReadWrite(sram, r1, w1, sim), "a");
  sim.run();
  // write: 1 arb + 4 data + 1 access = 6; read likewise after it: 12.
  EXPECT_EQ(w1, 6u);
  EXPECT_EQ(r1, 12u);
}

Task<void> dramAccess(OffChipMemory& dram, Cycle& done, Simulator& sim) {
  std::vector<std::uint8_t> buf(64);
  co_await dram.read(0, buf, 0);
  done = sim.now();
}

TEST(OffChipMemory, HasLongLatency) {
  Simulator sim;
  DramParams p;
  p.bus_width_bytes = 8;
  p.bus_arbitration_latency = 2;
  p.access_latency = 20;
  OffChipMemory dram(sim, p);
  Cycle done = 0;
  sim.spawn(dramAccess(dram, done, sim), "d");
  sim.run();
  EXPECT_EQ(done, 2u + 8 + 20);
}

Task<void> touchOnly(OffChipMemory& dram, Cycle& done, Simulator& sim) {
  dram.storage().poke(5, 0x77);
  co_await dram.touchRead(64, 0);
  co_await dram.touchWrite(64, 0);
  done = sim.now();
}

TEST(OffChipMemory, TouchChargesTimeWithoutDataEffects) {
  Simulator sim;
  OffChipMemory dram(sim, DramParams{});
  Cycle done = 0;
  sim.spawn(touchOnly(dram, done, sim), "t");
  sim.run();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(dram.storage().peek(5), 0x77);  // touches never alter contents
  EXPECT_EQ(dram.bus().stats().transactions, 2u);
}

// --------------------------------------------------------- message network

TEST(MessageNetwork, DeliversWithLatency) {
  Simulator sim;
  MessageNetwork net(sim, 3);
  Cycle delivered_at = 0;
  SyncMessage got{};
  net.attach(7, [&](const SyncMessage& m) {
    got = m;
    delivered_at = sim.now();
  });
  sim.schedule(10, [&] { net.send(SyncMessage{1, 7, 2, 48}); });
  sim.run();
  EXPECT_EQ(delivered_at, 13u);
  EXPECT_EQ(got.src_shell, 1u);
  EXPECT_EQ(got.dst_row, 2u);
  EXPECT_EQ(got.bytes, 48u);
  EXPECT_EQ(net.messagesSent(), 1u);
  EXPECT_EQ(net.bytesSignalled(), 48u);
}

TEST(MessageNetwork, PreservesOrderPerDestination) {
  Simulator sim;
  MessageNetwork net(sim, 5);
  std::vector<std::uint32_t> seen;
  net.attach(0, [&](const SyncMessage& m) { seen.push_back(m.bytes); });
  sim.schedule(0, [&] {
    net.send(SyncMessage{1, 0, 0, 1});
    net.send(SyncMessage{1, 0, 0, 2});
    net.send(SyncMessage{1, 0, 0, 3});
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(MessageNetwork, UnattachedDestinationThrows) {
  Simulator sim;
  MessageNetwork net(sim, 1);
  EXPECT_THROW(net.send(SyncMessage{0, 9, 0, 1}), std::runtime_error);
}

TEST(MessageNetwork, InFlightMessageToDetachedShellIsDroppedAndCounted) {
  Simulator sim;
  MessageNetwork net(sim, 4);
  int delivered = 0;
  net.attach(2, [&](const SyncMessage&) { ++delivered; });
  sim.schedule(0, [&] { net.send(SyncMessage{1, 2, 0, 8}); });
  sim.schedule(1, [&] { net.detach(2); });  // before the delivery at cycle 4
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messagesSent(), 1u);
  EXPECT_EQ(net.messagesUndeliverable(), 1u);
}

TEST(MessageNetwork, AttachingMoreShellsWhileMessagesAreInFlight) {
  Simulator sim;
  MessageNetwork net(sim, 4);
  std::vector<std::uint32_t> seen;
  net.attach(0, [&](const SyncMessage& m) { seen.push_back(m.bytes); });
  sim.schedule(0, [&] { net.send(SyncMessage{1, 0, 0, 5}); });
  // Growing the handler table moves the stored handlers; the pending
  // delivery must still reach shell 0.
  sim.schedule(1, [&] {
    for (std::uint32_t id = 1; id < 64; ++id) net.attach(id, [](const SyncMessage&) {});
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(net.messagesUndeliverable(), 0u);
}

// ----------------------------------------------------------------- PI-bus

TEST(PiBus, DispatchesByAddress) {
  PiBus bus;
  std::uint32_t reg_a = 0, reg_b = 0;
  bus.attach(
      "a", 0x0, 0x100, [&](sim::Addr off) { return reg_a + static_cast<std::uint32_t>(off); },
      [&](sim::Addr, std::uint32_t v) { reg_a = v; });
  bus.attach(
      "b", 0x100, 0x100, [&](sim::Addr) { return reg_b; },
      [&](sim::Addr, std::uint32_t v) { reg_b = v; });
  bus.write(0x0, 11);
  bus.write(0x100, 22);
  EXPECT_EQ(bus.read(0x4), 15u);  // device-relative offset
  EXPECT_EQ(bus.read(0x100), 22u);
  EXPECT_EQ(bus.readCount(), 2u);
  EXPECT_EQ(bus.writeCount(), 2u);
}

TEST(PiBus, RejectsOverlapsAndHoles) {
  PiBus bus;
  bus.attach("a", 0x0, 0x100, [](sim::Addr) { return 0u; }, [](sim::Addr, std::uint32_t) {});
  EXPECT_THROW(bus.attach("b", 0x80, 0x100, [](sim::Addr) { return 0u; },
                          [](sim::Addr, std::uint32_t) {}),
               std::runtime_error);
  EXPECT_THROW((void)bus.read(0x200), std::out_of_range);
}

}  // namespace
