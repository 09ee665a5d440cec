#pragma once

#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"
#include "eclipse/sim/stats.hpp"

namespace eclipse::mem {

/// Statistics kept per bus and per client.
struct BusStats {
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  sim::Cycle busy_cycles = 0;
};

/// Shared bus with FIFO (arrival-order) arbitration.
///
/// A transfer occupies the bus for `arbitration_latency + ceil(bytes/width)`
/// cycles; concurrent requesters queue. The width parameter corresponds to
/// the paper's 128-bit (16-byte) data path; the arbitration latency models
/// the grant handshake.
///
/// A transfer is a Transfer node, not a coroutine: the node waits in the
/// grant queue, and the bus drives it through grant → burst → release →
/// post-release latency with events of its own. `co_await bus.access(...)`
/// keeps the node in the caller's frame; a callback chain (a stream-cache
/// prefetch) keeps it in its own state and calls start().
///
/// Sharding: FIFO grant order is a zero-lookahead coupling — every client
/// of this bus must execute on the bus's home shard, which is why the
/// partitioner fuses bus-sharing shells onto one lane. Starting a transfer
/// enforces the affinity at run time when the simulation is sharded.
class Bus {
 public:
  /// One transfer in flight; also its node in the grant queue. Once the
  /// burst has been recorded and the grant released, the transfer waits
  /// `post` more cycles (a memory's access latency) and is then done: its
  /// `caller` is resumed, or, when that is null, `done` is called.
  struct Transfer : sim::WaitNode {
    Bus* bus = nullptr;
    std::size_t bytes = 0;
    int client = 0;
    sim::Cycle post = 0;
    std::coroutine_handle<> caller;
    void (*done)(Transfer&) = nullptr;
  };

  /// Awaiter of one transfer; lives in the awaiting frame.
  struct Access : Transfer {
    Access(Bus& b, std::size_t n, int c, sim::Cycle post_cycles) {
      bus = &b;
      bytes = n;
      client = c;
      post = post_cycles;
    }
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      caller = h;
      return bus->begin(*this);
    }
    void await_resume() const noexcept {}
  };

  Bus(sim::Simulator& sim, std::string name, std::uint32_t width_bytes,
      sim::Cycle arbitration_latency)
      : sim_(sim),
        name_(std::move(name)),
        width_bytes_(width_bytes == 0 ? 1 : width_bytes),
        arb_latency_(arbitration_latency),
        grant_(sim, 1) {}

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Occupies the bus for the duration of a `bytes`-sized burst, then
  /// waits `post` more cycles with the bus already released. `client` (a
  /// non-negative id, in practice the shell id) identifies the requester
  /// for per-client accounting.
  [[nodiscard]] Access access(std::size_t bytes, int client, sim::Cycle post) {
    return Access(*this, bytes, client, post);
  }

  /// A bare burst: access() with no post-release latency.
  [[nodiscard]] Access transfer(std::size_t bytes, int client) {
    return Access(*this, bytes, client, 0);
  }

  /// Starts a callback-driven transfer: `t.done` is called once it is done,
  /// from within this call if it never has to wait. `t` must stay alive and
  /// unmoved until then.
  void start(Transfer& t) {
    t.bus = this;
    t.caller = nullptr;
    if (!begin(t)) t.done(t);
  }

  /// Cycles a burst of `bytes` occupies the data path (excl. arbitration).
  [[nodiscard]] sim::Cycle dataCycles(std::size_t bytes) const {
    return (bytes + width_bytes_ - 1) / width_bytes_;
  }

  /// Shard owning this bus's arbitration state. All clients must execute
  /// there; set by the app-layer partitioner.
  void setHomeShard(sim::ShardId shard) { home_shard_ = shard; }
  [[nodiscard]] sim::ShardId homeShard() const { return home_shard_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t widthBytes() const { return width_bytes_; }
  [[nodiscard]] sim::Cycle arbitrationLatency() const { return arb_latency_; }
  [[nodiscard]] const BusStats& stats() const { return total_; }
  /// Per-client totals indexed by client id; clients that never
  /// transferred read as zero.
  [[nodiscard]] const std::vector<BusStats>& perClientStats() const { return per_client_; }

  /// Bus occupancy as a fraction of `elapsed` cycles.
  [[nodiscard]] double utilization(sim::Cycle elapsed) const {
    if (elapsed == 0) return 0.0;
    return static_cast<double>(total_.busy_cycles) / static_cast<double>(elapsed);
  }

  void resetStats() {
    total_ = BusStats{};
    per_client_.clear();
  }

 private:
  // Each step below returns true when the transfer went on waiting (an
  // event or the grant queue will carry it on) and false when it is done.

  bool begin(Transfer& t) {
    if (t.client < 0) throw std::invalid_argument("Bus: negative client id");
    if (sim_.sharded()) sim_.assertOnShard(home_shard_, name_.c_str());
    t.callback = &Bus::onGrant;
    if (!grant_.tryAcquire(t)) return true;
    return burst(t);
  }

  // Holds the grant: occupy the bus for the burst.
  bool burst(Transfer& t) {
    const sim::Cycle total = arb_latency_ + dataCycles(t.bytes);
    if (total == 0) return settle(t);
    sim_.schedule(total, [tp = &t] {
      if (!tp->bus->settle(*tp)) finish(*tp);
    });
    return true;
  }

  // Burst over: record it, hand the grant on, then wait out `post`.
  bool settle(Transfer& t) {
    const sim::Cycle total = arb_latency_ + dataCycles(t.bytes);
    total_.transactions += 1;
    total_.bytes += t.bytes;
    total_.busy_cycles += total;
    const auto slot = static_cast<std::size_t>(t.client);
    if (slot >= per_client_.size()) per_client_.resize(slot + 1);
    auto& cs = per_client_[slot];
    cs.transactions += 1;
    cs.bytes += t.bytes;
    cs.busy_cycles += total;
    grant_.release();
    if (t.post == 0) return false;
    if (t.caller) {
      sim_.scheduleResume(t.post, t.caller);
    } else {
      sim_.schedule(t.post, [tp = &t] { tp->done(*tp); });
    }
    return true;
  }

  static void onGrant(sim::WaitNode& n) {
    auto& t = static_cast<Transfer&>(n);
    if (!t.bus->burst(t)) finish(t);
  }

  static void finish(Transfer& t) {
    if (t.caller) {
      t.caller.resume();
    } else {
      t.done(t);
    }
  }

  sim::Simulator& sim_;
  std::string name_;
  std::uint32_t width_bytes_;
  sim::Cycle arb_latency_;
  sim::Semaphore grant_;
  sim::ShardId home_shard_ = 0;
  BusStats total_;
  std::vector<BusStats> per_client_;  // grown on demand to the largest id
};

}  // namespace eclipse::mem
