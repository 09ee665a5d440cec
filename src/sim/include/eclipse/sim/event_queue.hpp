#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "eclipse/sim/event.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

/// Time-ordered queue of simulation events.
///
/// Two-level scheduler tuned for the kernel's access pattern (almost all
/// delays are short: handshakes, bus bursts, scheduler budgets):
///   * a power-of-two ring of per-cycle buckets (a timing wheel) covering
///     the next `kWheelSpan` cycles — push and pop are O(1) plus a word-wise
///     occupancy-bitmap scan to find the next busy cycle,
///   * an overflow min-heap for events beyond the wheel horizon; entries
///     migrate into the wheel when the window advances past them.
///
/// Wheel events live in one node slab shared by all buckets: a bucket is a
/// singly linked FIFO of slab indices (head/tail arrays, 32 KiB together),
/// and drained nodes go on a LIFO free list. Once the slab has grown to the
/// run's peak occupancy, push and pop touch no allocator and reuse the
/// most recently freed (cache-warm) nodes.
///
/// Events at the same cycle execute in insertion order (FIFO), which keeps
/// the simulation deterministic regardless of container internals. The
/// FIFO guarantee holds across the bucket/heap boundary: far-future events
/// migrate into their bucket the moment the window reaches them, i.e.
/// before any later push to the same cycle can land there.
class EventQueue {
 public:
  /// Cycles covered by the wheel ahead of the current window base. Chosen
  /// to cover the common delay range (latencies, bursts, task budgets) so
  /// the overflow heap only sees rare long timers.
  static constexpr std::size_t kWheelBits = 12;
  static constexpr Cycle kWheelSpan = Cycle{1} << kWheelBits;

  EventQueue() {
    head_.fill(kNil);
    tail_.fill(kNil);
    bitmap_.fill(0);
  }

  /// Schedules `ev` at absolute cycle `at`. Cycles before the window base
  /// (only reachable through direct queue use — the Simulator clamps to
  /// `now()`) fire at the earliest pending opportunity.
  void push(Cycle at, Event ev) {
    if (at < base_) at = base_;
    if (at - base_ < kWheelSpan) {
      append(bucketIndex(at), std::move(ev));
    } else {
      overflow_.push_back(Far{at, seq_++, std::move(ev)});
      std::push_heap(overflow_.begin(), overflow_.end(), FarLater{});
    }
    if (next_valid_ && at < next_cycle_) next_cycle_ = at;
    ++size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Cycle of the earliest pending event. Undefined when empty. Cached:
  /// repeated calls while draining a cycle cost one comparison, not a
  /// bitmap scan.
  [[nodiscard]] Cycle nextCycle() const {
    if (!next_valid_) {
      next_cycle_ = wheel_count_ > 0 ? scanWheel() : overflow_.front().at;
      next_valid_ = true;
    }
    return next_cycle_;
  }

  /// Removes and returns the earliest pending event. Undefined when empty.
  Event pop(Cycle* at = nullptr) {
    const Cycle c = nextCycle();
    if (at != nullptr) *at = c;
    --size_;
    if (wheel_count_ == 0) {
      // Window jump: everything pending sits in the overflow heap. Serve
      // the top directly instead of routing it through a bucket. FIFO is
      // preserved: same-cycle peers carry larger seq values, so they sort
      // behind the top and migrate into the bucket afterwards.
      std::pop_heap(overflow_.begin(), overflow_.end(), FarLater{});
      Far f = std::move(overflow_.back());
      overflow_.pop_back();
      advanceTo(f.at);
      next_valid_ = false;
      return std::move(f.ev);
    }
    if (c > base_) advanceTo(c);  // migrate far events that now fit
    const std::size_t idx = bucketIndex(c);
    const std::uint32_t n = head_[idx];
    Node& node = nodes_[n];
    Event ev = std::move(node.ev);
    head_[idx] = node.next;
    node.next = free_;
    free_ = n;
    if (head_[idx] == kNil) {
      tail_[idx] = kNil;
      clearOccupied(idx);
      next_valid_ = false;  // this cycle is drained; rescan on next query
    }
    --wheel_count_;
    return ev;
  }

  /// Drops every pending event (used during simulator teardown so no
  /// scheduled resume outlives its coroutine frame). Slab capacity is
  /// retained for reuse.
  void clear() {
    if (size_ == 0) return;
    nodes_.clear();
    free_ = kNil;
    head_.fill(kNil);
    tail_.fill(kNil);
    bitmap_.fill(0);
    summary_ = 0;
    overflow_.clear();
    wheel_count_ = 0;
    size_ = 0;
    next_valid_ = false;
  }

 private:
  struct Node {
    Event ev;
    std::uint32_t next;  // next node in the bucket FIFO or the free list
  };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Far {
    Cycle at;
    std::uint64_t seq;
    Event ev;
  };
  struct FarLater {
    bool operator()(const Far& a, const Far& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  static constexpr std::size_t kMask = kWheelSpan - 1;
  static constexpr std::size_t kWords = kWheelSpan / 64;

  [[nodiscard]] static std::size_t bucketIndex(Cycle at) {
    return static_cast<std::size_t>(at) & kMask;
  }

  // kWords == 64 lets a single summary word (one bit per bitmap word) make
  // the next-busy-cycle scan O(1) regardless of how sparse the wheel is.
  static_assert(kWords == 64);

  void markOccupied(std::size_t idx) {
    bitmap_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    summary_ |= std::uint64_t{1} << (idx >> 6);
  }
  void clearOccupied(std::size_t idx) {
    const std::size_t w = idx >> 6;
    bitmap_[w] &= ~(std::uint64_t{1} << (idx & 63));
    if (bitmap_[w] == 0) summary_ &= ~(std::uint64_t{1} << w);
  }

  /// Earliest occupied cycle within the window. Requires wheel_count_ > 0.
  [[nodiscard]] Cycle scanWheel() const {
    const std::size_t start = bucketIndex(base_);
    std::size_t word = start >> 6;
    // First word: only bits at/after the window base count as-is; earlier
    // bits belong to the far end of the window and are caught on wrap.
    std::uint64_t bits = bitmap_[word] & (~std::uint64_t{0} << (start & 63));
    if (bits == 0) {
      // Jump straight to the next occupied word via the summary, rotated
      // so that the word after `word` sits at bit 0. If the search wraps
      // all the way back to the start word, its low (wrapped) bits are the
      // hit — the high bits were just checked and are zero.
      const std::size_t from = (word + 1) & (kWords - 1);
      const std::uint64_t rot = std::rotr(summary_, static_cast<int>(from));
      word = (from + static_cast<std::size_t>(std::countr_zero(rot))) & (kWords - 1);
      bits = bitmap_[word];
    }
    const std::size_t idx = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    return base_ + static_cast<Cycle>((idx - start) & kMask);
  }

  /// Advances the window base to `c` (the new earliest pending cycle),
  /// pulling newly-reachable overflow entries into their buckets. Window
  /// advancement happens only inside pop(), which migrates before
  /// returning control — so migration always precedes any later same-cycle
  /// push, preserving cross-boundary FIFO order.
  void advanceTo(Cycle c) {
    base_ = c;
    const Cycle horizon = base_ + kWheelSpan;
    while (!overflow_.empty() && overflow_.front().at < horizon) {
      std::pop_heap(overflow_.begin(), overflow_.end(), FarLater{});
      Far f = std::move(overflow_.back());
      overflow_.pop_back();
      append(bucketIndex(f.at), std::move(f.ev));
    }
  }

  /// Appends `ev` to the FIFO of bucket `idx`.
  void append(std::size_t idx, Event ev) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n].ev = std::move(ev);
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(ev), kNil});
    }
    nodes_[n].next = kNil;
    if (tail_[idx] == kNil) {
      head_[idx] = n;
      markOccupied(idx);
    } else {
      nodes_[tail_[idx]].next = n;
    }
    tail_[idx] = n;
    ++wheel_count_;
  }

  std::vector<Node> nodes_;                     // slab of wheel events
  std::uint32_t free_ = kNil;                   // free-list head in nodes_
  std::array<std::uint32_t, kWheelSpan> head_;  // per-bucket FIFO front
  std::array<std::uint32_t, kWheelSpan> tail_;  // per-bucket FIFO back
  std::array<std::uint64_t, kWords> bitmap_;
  std::uint64_t summary_ = 0;  // bit w set iff bitmap_[w] != 0
  std::vector<Far> overflow_;  // min-heap on (at, seq) via std::*_heap
  Cycle base_ = 0;             // window start: no pending event is earlier
  std::uint64_t seq_ = 0;      // orders same-cycle overflow entries
  std::size_t wheel_count_ = 0;
  std::size_t size_ = 0;
  mutable Cycle next_cycle_ = 0;     // cached earliest pending cycle
  mutable bool next_valid_ = false;  // push keeps it monotone; pop refreshes
};

}  // namespace eclipse::sim
