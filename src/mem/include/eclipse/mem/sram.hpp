#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "eclipse/mem/bus.hpp"
#include "eclipse/mem/storage.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::mem {

/// Awaiter of a timed read: the bus access, then the copy out of storage
/// at the completion cycle.
struct ReadAccess : Bus::Access {
  ReadAccess(Bus& bus, sim::Cycle latency, const Storage& s, sim::Addr a,
             std::span<std::uint8_t> o, int client)
      : Bus::Access(bus, o.size(), client, latency), storage(&s), addr(a), out(o) {}
  void await_resume() const { storage->read(addr, out); }

  const Storage* storage;
  sim::Addr addr;
  std::span<std::uint8_t> out;
};

/// Awaiter of a timed write: the bus access, then the copy into storage
/// at the completion cycle.
struct WriteAccess : Bus::Access {
  WriteAccess(Bus& bus, sim::Cycle latency, Storage& s, sim::Addr a,
              std::span<const std::uint8_t> i, int client)
      : Bus::Access(bus, i.size(), client, latency), storage(&s), addr(a), in(i) {}
  void await_resume() const { storage->write(addr, in); }

  Storage* storage;
  sim::Addr addr;
  std::span<const std::uint8_t> in;
};

/// Parameters for the central on-chip stream-buffer memory.
///
/// The paper's first instance uses a 32 kB SRAM with a 128-bit data path and
/// separate read and write buses (SRAM at 300 MHz serving two 150 MHz
/// buses), so reads and writes do not contend with each other.
struct SramParams {
  std::size_t size_bytes = 32 * 1024;
  std::uint32_t bus_width_bytes = 16;  // 128-bit data path
  sim::Cycle bus_arbitration_latency = 1;
  sim::Cycle access_latency = 1;  // SRAM array access after grant
};

/// Central on-chip SRAM holding the cyclic stream FIFOs.
///
/// Timed access goes through the read or write bus (FIFO arbitration among
/// shells); functional access for configuration goes via storage().
class SharedSram {
 public:
  SharedSram(sim::Simulator& sim, const SramParams& params)
      : params_(params),
        storage_(params.size_bytes),
        read_bus_(sim, "sram.read", params.bus_width_bytes, params.bus_arbitration_latency),
        write_bus_(sim, "sram.write", params.bus_width_bytes, params.bus_arbitration_latency) {}

  /// Timed read of `out.size()` bytes at `addr` on behalf of `client`.
  [[nodiscard]] ReadAccess read(sim::Addr addr, std::span<std::uint8_t> out, int client) {
    return ReadAccess(read_bus_, params_.access_latency, storage_, addr, out, client);
  }

  /// Timed write of `in.size()` bytes at `addr` on behalf of `client`.
  [[nodiscard]] WriteAccess write(sim::Addr addr, std::span<const std::uint8_t> in, int client) {
    return WriteAccess(write_bus_, params_.access_latency, storage_, addr, in, client);
  }

  /// Timing-only accesses: occupy the bus and pay the access latency for a
  /// `bytes`-sized burst without moving data. Cycle-identical to read/write
  /// of the same size — used where the model splits function from timing
  /// (the zero-copy transport path: data moves through window views while
  /// the stream caches replay the original fill/flush traffic).
  [[nodiscard]] Bus::Access touchRead(std::size_t bytes, int client) {
    return read_bus_.access(bytes, client, params_.access_latency);
  }
  [[nodiscard]] Bus::Access touchWrite(std::size_t bytes, int client) {
    return write_bus_.access(bytes, client, params_.access_latency);
  }

  /// touchRead for a callback chain: fills in `t` and starts it on the
  /// read bus (see Bus::start); `t.done` must be set.
  void startTouchRead(Bus::Transfer& t, std::size_t bytes, int client) {
    t.bytes = bytes;
    t.client = client;
    t.post = params_.access_latency;
    read_bus_.start(t);
  }

  /// Homes the SRAM (storage + both buses) on one shard. Every shell that
  /// touches this memory must execute there — the partitioner's fusion rule.
  void setHomeShard(sim::ShardId shard) {
    read_bus_.setHomeShard(shard);
    write_bus_.setHomeShard(shard);
  }
  [[nodiscard]] sim::ShardId homeShard() const { return read_bus_.homeShard(); }

  [[nodiscard]] Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }
  [[nodiscard]] Bus& readBus() { return read_bus_; }
  [[nodiscard]] Bus& writeBus() { return write_bus_; }
  [[nodiscard]] const SramParams& params() const { return params_; }

 private:
  SramParams params_;
  Storage storage_;
  Bus read_bus_;
  Bus write_bus_;
};

/// Parameters for off-chip (system) memory holding reference frames and
/// compressed input bit-streams. Accessed over the system bus by the MC/ME
/// and VLD coprocessors (paper, Section 6).
struct DramParams {
  std::size_t size_bytes = 16 * 1024 * 1024;
  std::uint32_t bus_width_bytes = 8;  // 64-bit system bus
  sim::Cycle bus_arbitration_latency = 2;
  sim::Cycle access_latency = 60;  // off-chip random-access penalty (reads stall; writes post)
};

/// Off-chip memory model: single shared system bus, long access latency.
class OffChipMemory {
 public:
  OffChipMemory(sim::Simulator& sim, const DramParams& params)
      : params_(params),
        storage_(params.size_bytes),
        bus_(sim, "system.bus", params.bus_width_bytes, params.bus_arbitration_latency) {}

  [[nodiscard]] ReadAccess read(sim::Addr addr, std::span<std::uint8_t> out, int client) {
    return ReadAccess(bus_, params_.access_latency, storage_, addr, out, client);
  }

  [[nodiscard]] WriteAccess write(sim::Addr addr, std::span<const std::uint8_t> in, int client) {
    return WriteAccess(bus_, params_.access_latency, storage_, addr, in, client);
  }

  /// Timing-only accesses: occupy the bus and pay the access latency for a
  /// `bytes`-sized burst without moving data. Used where the model splits
  /// function from timing (e.g. 2D region gathers in the MC coprocessor).
  [[nodiscard]] Bus::Access touchRead(std::size_t bytes, int client) {
    return bus_.access(bytes, client, params_.access_latency);
  }
  [[nodiscard]] Bus::Access touchWrite(std::size_t bytes, int client) {
    return bus_.access(bytes, client, params_.access_latency);
  }

  /// Homes the off-chip memory (storage + system bus) on one shard; see
  /// SharedSram::setHomeShard.
  void setHomeShard(sim::ShardId shard) { bus_.setHomeShard(shard); }
  [[nodiscard]] sim::ShardId homeShard() const { return bus_.homeShard(); }

  [[nodiscard]] Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }
  [[nodiscard]] Bus& bus() { return bus_; }
  [[nodiscard]] const DramParams& params() const { return params_; }

 private:
  DramParams params_;
  Storage storage_;
  Bus bus_;
};

}  // namespace eclipse::mem
