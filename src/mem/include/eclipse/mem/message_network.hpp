#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "eclipse/sim/fault.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::mem {

/// A 'putspace' synchronization message between two shells (Figure 7).
///
/// When a task commits space with PutSpace, its shell decrements the local
/// space field and sends this message to the shell holding the other access
/// point of the stream, which increments its space field on reception.
struct SyncMessage {
  std::uint32_t src_shell = 0;
  std::uint32_t dst_shell = 0;
  std::uint32_t dst_row = 0;    // stream-table row at the destination shell
  std::uint32_t bytes = 0;      // amount of space released
};

/// Dedicated low-latency network carrying putspace messages between shells.
///
/// Messages between a given (src, dst) pair are delivered in order; the
/// delivery latency models the token-ring / point-to-point sync wiring of
/// the hardware. Delivery invokes the destination shell's handler.
///
/// Sharding: this network is the only cross-shard transport. Each shell id
/// carries a shard tag; send() routes a message whose destination lives on
/// another lane through the kernel's bounded inter-shard channels, and the
/// modeled delivery latency is exactly the conservative lookahead the
/// partitioner declares (fault delays only ever *add* latency, so the base
/// latency stays a safe lower bound).
///
/// Thread safety under split plans: send() runs on lane threads during the
/// same barrier window, so the traffic counters are relaxed atomics (sums
/// commute — totals stay deterministic for any interleaving). The handler
/// table and shard map are only mutated outside runs (attach/detach/setShellShard
/// happen from the control plane between runs); window execution reads them
/// concurrently, which is safe. Fault hooks serialize inside the injector.
class MessageNetwork {
 public:
  using Handler = std::function<void(const SyncMessage&)>;

  MessageNetwork(sim::Simulator& sim, sim::Cycle latency)
      : sim_(sim), latency_(latency) {}

  /// Registers the message handler for a shell id. Shell ids are small
  /// and dense (instance build order), so the table is indexed by id.
  void attach(std::uint32_t shell_id, Handler handler) {
    if (shell_id >= handlers_.size()) handlers_.resize(shell_id + 1);
    handlers_[shell_id] = std::move(handler);
  }

  /// Tags a shell endpoint with the shard that executes it. Delivery events
  /// for the shell are scheduled onto that lane. Default: shard 0.
  void setShellShard(std::uint32_t shell_id, sim::ShardId shard) {
    shards_[shell_id] = shard;
  }
  [[nodiscard]] sim::ShardId shardOf(std::uint32_t shell_id) const {
    auto it = shards_.find(shell_id);
    return it == shards_.end() ? 0 : it->second;
  }

  /// Withdraws a shell's handler (shell removal on instance recycle). A
  /// message still in flight to `shell_id` is dropped on arrival and
  /// counted in messagesUndeliverable().
  void detach(std::uint32_t shell_id) {
    if (shell_id < handlers_.size()) handlers_[shell_id] = nullptr;
  }

  /// Sends a message; delivery happens `latency` cycles later.
  void send(const SyncMessage& msg) {
    if (!attached(msg.dst_shell)) {
      throw std::runtime_error("MessageNetwork: no handler attached for shell " +
                               std::to_string(msg.dst_shell));
    }
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_signalled_.fetch_add(msg.bytes, std::memory_order_relaxed);
    sim::Cycle latency = latency_;
    // Fault hooks: an armed injector may drop this putspace message (the
    // destination shell's space field silently diverges — the canonical
    // lost-synchronisation fault) or deliver it late. Null injector = the
    // pristine path above, bit-identical to a build without faults.
    if (sim::FaultInjector* inj = sim_.faults()) {
      if (inj->shouldDropPutspace(msg.src_shell, sim_.now())) {
        messages_dropped_.fetch_add(1, std::memory_order_relaxed);
        inj->logTrigger({sim::FaultKind::DropPutspace, sim_.now(), msg.src_shell,
                         0, msg.bytes});
        return;
      }
      if (sim::Cycle extra = inj->putspaceDelay(msg.src_shell, sim_.now())) {
        latency += extra;
        inj->logTrigger({sim::FaultKind::DelayPutspace, sim_.now(), msg.src_shell,
                         0, msg.bytes});
      }
    }
    // Captures `this` plus the 16-byte message: small and trivially
    // copyable, so the delivery event is stored inline in the kernel —
    // no allocation per putspace message. The handler is looked up by id
    // on arrival, so the event holds no pointer into the handler table.
    if (sim_.sharded()) {
      const sim::ShardId dst_shard = shardOf(msg.dst_shell);
      if (dst_shard != sim_.currentShard()) {
        cross_messages_.fetch_add(1, std::memory_order_relaxed);
      }
      sim_.scheduleOnShard(dst_shard, latency, [this, msg] { deliver(msg); });
      return;
    }
    sim_.schedule(latency, [this, msg] { deliver(msg); });
  }

  [[nodiscard]] sim::Cycle latency() const { return latency_; }
  [[nodiscard]] std::uint64_t messagesSent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messagesDropped() const {
    return messages_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytesSignalled() const {
    return bytes_signalled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t crossShardMessages() const {
    return cross_messages_.load(std::memory_order_relaxed);
  }
  /// Messages that arrived for a shell detached while they were in flight.
  [[nodiscard]] std::uint64_t messagesUndeliverable() const {
    return undeliverable_.load(std::memory_order_relaxed);
  }

  void resetStats() {
    messages_sent_.store(0, std::memory_order_relaxed);
    messages_dropped_.store(0, std::memory_order_relaxed);
    bytes_signalled_.store(0, std::memory_order_relaxed);
    cross_messages_.store(0, std::memory_order_relaxed);
    undeliverable_.store(0, std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool attached(std::uint32_t shell_id) const {
    return shell_id < handlers_.size() && handlers_[shell_id];
  }

  void deliver(const SyncMessage& msg) {
    if (!attached(msg.dst_shell)) {
      undeliverable_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    handlers_[msg.dst_shell](msg);
  }

  sim::Simulator& sim_;
  sim::Cycle latency_;
  std::vector<Handler> handlers_;  // indexed by shell id; empty = detached
  std::map<std::uint32_t, sim::ShardId> shards_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> bytes_signalled_{0};
  std::atomic<std::uint64_t> cross_messages_{0};
  std::atomic<std::uint64_t> undeliverable_{0};
};

}  // namespace eclipse::mem
