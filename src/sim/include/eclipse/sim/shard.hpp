#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/event.hpp"
#include "eclipse/sim/event_queue.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

class Simulator;

/// Identifies one shard (lane) of a sharded simulation. Shard 0 is the
/// default lane: anything scheduled from outside event execution (setup
/// code, the control plane between runs) lands there unless routed
/// explicitly.
using ShardId = std::uint32_t;

/// Sentinel for spawn(): pick the shard automatically — the lane currently
/// executing when called from inside an event (a process spawned mid-run
/// inherits its parent's lane), shard 0 otherwise.
inline constexpr ShardId kAutoShard = std::numeric_limits<ShardId>::max();

/// Per-shard scheduler: the PR-1 two-level timing wheel plus the lane-local
/// run state that used to live directly in the Simulator. Each shard owns
/// one of these privately; nothing in here is shared, so a lane executes its
/// window without touching another lane's cache lines (hence the alignment).
struct alignas(64) ShardScheduler {
  struct Root {
    std::string name;
    Task<void>::handle_type handle;
  };

  EventQueue wheel;            ///< private event queue for this shard
  Cycle now = 0;               ///< cycle of the last event executed here
  std::uint64_t events = 0;    ///< events dispatched on this lane
  std::vector<Root> roots;     ///< coroutine frames owned by this lane
  std::size_t live = 0;        ///< spawned-but-unfinished root processes
  bool stop_requested = false; ///< lane-local stop latch
  std::exception_ptr error;    ///< first error raised on this lane
  Cycle error_cycle = 0;       ///< cycle at which `error` was raised
  ShardId id = 0;

  /// Sweeps finished coroutine frames (same policy as the serial spawn path)
  /// so long runs with many short-lived processes stay bounded.
  void reclaimFinishedRoots();

  /// Destroys every owned frame. The wheel must already be cleared: pending
  /// events may capture handles into these frames.
  void destroyRoots();
};

namespace detail {
struct CrossEvent {
  Cycle at;
  Event ev;
};
}  // namespace detail

/// One directed inter-shard mailbox (src lane -> dst lane). Bounded with
/// overflow accounting: kChannelBound is the reserved capacity; pushes
/// beyond it still succeed (the vector grows) but are counted, so a plan
/// whose channels blow their bound is visible in the stats instead of
/// deadlocking the conservative loop.
///
/// Thread safety is by phase separation, not locks: only the src lane's
/// runner writes during window execution, and only the coordinator drains at
/// the barrier. The round barrier (mutex + condvar) provides the
/// happens-before edge between the two phases.
struct ShardChannel {
  std::vector<detail::CrossEvent> buf;
  std::uint64_t pushed = 0;
  std::uint64_t high_water = 0;
  std::uint64_t overflows = 0;
};

/// Counters exposed for benches, graph_dump and tests.
struct ShardStats {
  std::uint64_t rounds = 0;           ///< barrier windows executed
  std::uint64_t parallel_rounds = 0;  ///< windows with >1 active lane
  std::uint64_t cross_events = 0;     ///< events routed through channels
  std::uint64_t channel_overflows = 0;
  std::uint64_t channel_high_water = 0;
  Cycle lookahead = 0;
  std::vector<std::uint64_t> lane_events;
  std::vector<std::size_t> lane_live;
};

/// Conservative parallel-discrete-event engine: N ShardSchedulers advanced
/// in barrier-synchronized windows.
///
/// Protocol (conservative barrier-window, lookahead L = the minimum modeled
/// cross-shard latency declared via declareCrossLatency):
///   1. M = min over lanes of the earliest pending cycle. Quiescent if none.
///   2. Window W = min(M + L, until + 1). Every lane with work before W is
///      *active* this round.
///   3. Active lanes drain their private wheels up to (excluding) W
///      concurrently. Cross-shard pushes during the window must carry a
///      delay >= L, so they target cycles >= M + L >= W — strictly in every
///      peer's future. That is what makes concurrent windows race-free.
///   4. Barrier; the coordinator drains the channels into the destination
///      wheels in a deterministic merge order (source lane ascending, FIFO
///      within a channel), checks stops/errors, and opens the next window.
///
/// Rounds with a single active lane (the common case for fused partitions,
/// where coupled shells share one lane) execute inline on the coordinator
/// thread — no wakeups, no synchronization, serial-kernel speed. The worker
/// team spawns lazily on the first round with more than one active lane;
/// note that an *undeclared* lookahead does not prevent this: infinite L
/// makes W = until + 1, so multiple populated lanes all join one wide round
/// and run concurrently (safe because they are then fully independent —
/// cross-lane injection without a declared lookahead throws). The team is
/// avoided only when at most one lane is populated.
///
/// Determinism: each lane's execution order is the serial order of its own
/// wheel; the channel merge is a fixed function of (source lane, push
/// order); thread interleaving can only change *when* wall-clock work
/// happens, never *what order* events execute in. Identical inputs produce
/// identical cycle/event counts for any shard count and any interleaving,
/// provided same-cycle cross-lane arrivals are not order-sensitive — the
/// partitioner's fusion rule guarantees that by construction for instances
/// (coupled shells share a lane), and kernel-level tests exercise it with
/// scheduling jitter.
class ShardEngine {
 public:
  static constexpr Cycle kForever = std::numeric_limits<Cycle>::max();
  /// Reserved per-channel capacity; beyond it pushes grow + count overflows.
  static constexpr std::size_t kChannelBound = 4096;

  ShardEngine(Simulator& sim, std::uint32_t shards);
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;
  ~ShardEngine();

  [[nodiscard]] std::uint32_t shardCount() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  // --- execution context --------------------------------------------------

  /// Lane currently executing on this thread, null outside window execution
  /// (or when this thread is running a different engine's lane).
  [[nodiscard]] ShardScheduler* executingLane() const;

  [[nodiscard]] Cycle now() const;
  [[nodiscard]] ShardId currentShard() const;

  // --- scheduling ---------------------------------------------------------

  /// Schedules onto the executing lane (or shard 0 outside execution).
  void schedule(Cycle delay, Event ev);
  void scheduleAt(Cycle at, Event ev);

  /// Schedules onto an explicit shard. Outside execution this is a direct
  /// push; from inside a window targeting a *different* lane it is a
  /// cross-shard injection: the delay must be >= the declared lookahead
  /// (std::logic_error otherwise) and the event travels through the bounded
  /// channel, delivered at the next barrier.
  void scheduleOn(ShardId shard, Cycle delay, Event ev);

  /// Declares a modeled cross-shard latency; the engine keeps the minimum
  /// as its conservative lookahead. Without any declaration, lanes are
  /// assumed fully independent (infinite lookahead) and cross-shard
  /// injection mid-run is an error.
  void declareCrossLatency(Cycle latency);
  [[nodiscard]] Cycle lookahead() const { return lookahead_; }

  /// Registers a root process on a lane (kAutoShard: executing lane, else
  /// shard 0). Spawning onto an explicit *remote* lane from inside a window
  /// is rejected — it would bypass the lookahead discipline.
  void spawn(Task<void>::handle_type handle, std::string name, ShardId shard);

  /// Called (via the Simulator) when a root process completes on the
  /// executing lane: decrements the lane's live count and latches the first
  /// error, mirroring the serial kernel's notifyRootDone.
  void notifyRootDone(std::exception_ptr exception);

  // --- run control ---------------------------------------------------------

  Cycle run(Cycle until);

  /// Lane-local stop: the executing lane breaks immediately; sibling lanes
  /// finish the current window (bounded by lookahead), then run() returns
  /// the stopping lane's cycle. With a fused partition every round is
  /// single-active, so this degenerates to the serial semantics exactly.
  void stop();

  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] std::size_t liveProcesses() const;
  [[nodiscard]] std::uint64_t eventsDispatched() const;
  [[nodiscard]] Cycle globalNow() const { return global_now_; }

  void destroyProcesses();

  /// Randomized wall-clock perturbation of lane execution (sleep/yield
  /// jitter) for determinism stress tests. 0 disables (the default).
  void setJitter(std::uint64_t seed) { jitter_seed_ = seed; }

  [[nodiscard]] ShardStats snapshotStats() const;

 private:
  friend class Simulator;

  [[nodiscard]] ShardScheduler& laneFor(ShardId shard);
  [[nodiscard]] ShardScheduler& defaultLane() { return *lanes_[0]; }
  [[nodiscard]] ShardChannel& channel(ShardId src, ShardId dst) {
    return channels_[static_cast<std::size_t>(src) * lanes_.size() + dst];
  }

  /// Executes one lane's window [lane wheel head, W). Sets the thread-local
  /// execution context for the duration.
  void runLane(ShardScheduler& lane, Cycle W);
  void runQueuedLanes(Cycle W);
  void drainChannels();
  void ensureTeam();
  void teamMain();

  Simulator& sim_;
  std::vector<std::unique_ptr<ShardScheduler>> lanes_;
  std::vector<ShardChannel> channels_;  // indexed [src * n + dst]
  Cycle lookahead_ = kForever;
  Cycle global_now_ = 0;
  std::atomic<bool> stop_flag_{false};
  std::uint64_t jitter_seed_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t parallel_rounds_ = 0;
  std::uint64_t cross_events_ = 0;

  // Round-barrier team (spawned lazily on the first multi-active round, so
  // fused partitions never start a thread).
  std::vector<std::thread> team_;
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<ShardScheduler*> round_work_;
  std::atomic<std::size_t> next_work_{0};
  std::size_t done_count_ = 0;
  std::uint64_t round_gen_ = 0;
  Cycle round_window_ = 0;
  bool shutdown_ = false;
};

}  // namespace eclipse::sim
