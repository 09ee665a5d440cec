#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eclipse/mem/sram.hpp"
#include "eclipse/shell/tables.hpp"
#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::shell {

/// Per-access-point stream cache (Section 5.2).
///
/// A small, address-tagged, write-back cache between one coprocessor port
/// and the shared on-chip SRAM. There is no snooping: coherency is driven
/// explicitly by the synchronization events —
///   * GetSpace extends the access window  -> invalidate overlapping lines,
///   * PutSpace shrinks the window         -> flush overlapping dirty lines
///     *before* the putspace message goes out.
/// Within the granted window the data is private (observation 1), so plain
/// hits need no communication at all.
///
/// Since the zero-copy transport refactor the cache is a pure *timing*
/// model: the functional bytes live in the SRAM's Storage and move through
/// WindowViews, while an access replays exactly the hit / miss / fill /
/// flush traffic the copying cache performed — fills and flushes charge the
/// same SRAM bus bursts without moving data (the SRAM already holds the
/// current bytes).
///
/// An access is split in two: hitWalk() accounts the leading run of hits
/// synchronously, and only an access that reaches a missing or pending line
/// runs missWalk(), the one coroutine that can suspend (on a pending line,
/// a dirty-victim flush or a fill).
///
/// Prefetching: a read may carry a line-aligned prefetch hint (computed by
/// the shell, limited to the granted window). The prefetch fetches in the
/// background, as a callback chain whose bus node lives in its line; a
/// later access to a pending line waits for its completion, which is how
/// prefetch latency hiding shows up in the timing.
class StreamCache {
 public:
  /// `line_bytes` must be a power of two (line addressing is a mask);
  /// anything else throws std::invalid_argument.
  StreamCache(sim::Simulator& sim, mem::SharedSram& sram, std::uint32_t line_bytes,
              std::uint32_t n_lines, int client_id);

  StreamCache(const StreamCache&) = delete;
  StreamCache& operator=(const StreamCache&) = delete;

  /// Synchronous start of an access of `len` bytes at SRAM address `addr`:
  /// walks the lines while each is a valid hit (counting the hit, updating
  /// LRU, marking the line dirty for a write) and returns the bytes those
  /// hits cover. When that is less than `len`, the rest of the access
  /// starts at a missing or pending line and belongs to missWalk().
  std::size_t hitWalk(StreamRow& row, sim::Addr addr, std::size_t len, bool writing);

  /// The per-line walk of an access from a line that hitWalk() stopped at:
  /// misses fill from SRAM over the read bus (timing only); a write that
  /// covers a whole missing line allocates it without a fill (write-back,
  /// write-allocate).
  sim::Task<void> missWalk(StreamRow& row, sim::Addr addr, std::size_t len, bool writing);

  /// Flushes dirty lines overlapping [addr, addr+len): charges the write
  /// burst per line (timing-only; SRAM is current) and clears dirty bits.
  sim::Task<void> flushRange(StreamRow& row, sim::Addr addr, std::uint64_t len);

  /// True when a dirty line overlaps [addr, addr+len), i.e. when
  /// flushRange() has a burst to charge.
  [[nodiscard]] bool dirtyIn(sim::Addr addr, std::uint64_t len) const;

  /// Drops (clean) lines overlapping [addr, addr+len). Dirty lines in the
  /// range indicate a protocol violation and throw.
  void invalidateRange(StreamRow& row, sim::Addr addr, std::uint64_t len);

  /// Starts a background fetch of the line at `line_addr` (no-op if the
  /// line is already present or no clean line can host it).
  void startPrefetch(StreamRow& row, sim::Addr line_addr);

  [[nodiscard]] std::uint32_t lineBytes() const { return line_bytes_; }
  /// Start of the line holding `a`.
  [[nodiscard]] sim::Addr alignDown(sim::Addr a) const { return a & ~line_mask_; }
  [[nodiscard]] std::uint32_t lineCount() const { return static_cast<std::uint32_t>(lines_.size()); }

 private:
  enum class State : std::uint8_t { Invalid, Pending, Valid };

  struct Line;

  /// Bus node of a line's background prefetch fill.
  struct Fill : mem::Bus::Transfer {
    StreamCache* cache = nullptr;
    Line* line = nullptr;
  };

  struct Line {
    State state = State::Invalid;
    sim::Addr tag = 0;  // line-aligned SRAM address
    bool dirty = false;
    bool drop = false;  // invalidated while a fill was in flight
    std::uint64_t lru = 0;
    Fill fill;  // in use while a prefetch of this line is in flight
  };

  /// Finds the line holding `line_addr` in any non-Invalid state.
  Line* find(sim::Addr line_addr);

  /// The eviction choice: the first Invalid line, else the LRU Valid line,
  /// else null (every line is pending a fill).
  Line* pickVictim();

  /// Completion of a prefetch fill.
  static void onPrefetchFilled(mem::Bus::Transfer& t);

  sim::Simulator& sim_;
  mem::SharedSram& sram_;
  std::uint32_t line_bytes_;
  sim::Addr line_mask_;  // line_bytes_ - 1
  int client_;
  sim::SimEvent event_;
  std::vector<Line> lines_;  // never resized: fills point into it
  std::uint64_t lru_clock_ = 0;
};

}  // namespace eclipse::shell
