#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "eclipse/coproc/coprocessor.hpp"
#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/mem/sram.hpp"

namespace eclipse::coproc {

/// VLD coprocessor timing/behaviour parameters.
struct VldParams {
  sim::Cycle cycles_per_symbol = 2;   ///< table lookups per decoded symbol
  std::uint32_t fetch_chunk = 64;     ///< bytes per off-chip bitstream fetch
};

/// Per-task configuration: where the compressed elementary stream lives in
/// off-chip memory (the VLD "fetches the incoming compressed bit-streams
/// from off-chip memory", Section 6).
struct VldTaskConfig {
  sim::Addr bitstream_addr = 0;
  std::uint32_t bitstream_bytes = 0;
};

/// Variable-length decoding coprocessor.
///
/// Ports per task: 0 = coefficient packets out (to RLSQ),
///                 1 = macroblock headers / motion vectors out (to MC).
/// Each processing step parses one syntax unit (sequence header, picture
/// header, or one macroblock) and emits the corresponding packets on both
/// output streams. The step is restartable: the bit position only advances
/// after output space for the step's packets has been granted.
class VldCoproc final : public Coprocessor {
 public:
  static constexpr sim::PortId kOutCoef = 0;
  static constexpr sim::PortId kOutHdr = 1;

  VldCoproc(sim::Simulator& sim, shell::Shell& sh, mem::OffChipMemory& dram,
            const VldParams& params)
      : Coprocessor(sim, sh, "vld"), dram_(dram), params_(params) {}

  /// Registers a bitstream for `task` (before enabling the task).
  void configureTask(sim::TaskId task, const VldTaskConfig& cfg);

  /// Total VLC symbols decoded (all tasks) — architecture-view statistic.
  [[nodiscard]] std::uint64_t symbolsDecoded() const { return symbols_; }

  // --- recovery protocol (DESIGN §9) --------------------------------
  // Both requests take effect at the task's next processing step; the CPU
  // issues them (and re-enables the task) after a downstream or VLD fault.

  /// Emit a Resync marker on both outputs, then parse-and-discard coded
  /// pictures until the next I-frame (counted in picturesSkipped()).
  void requestResync(sim::TaskId task);

  /// Abort the clip: emit Eos on both outputs and finish the task (used
  /// when the VLD itself faulted and the bit position is unreliable).
  void requestAbort(sim::TaskId task);

  /// Coded pictures skipped while hunting for an I-frame after resync.
  [[nodiscard]] std::uint64_t picturesSkipped() const { return pics_skipped_; }

  void reset() override { states_.clear(); }

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override;

 private:
  enum class Phase { SeqHeader, PicHeader, Macroblock, EndOfStream, Done };

  struct TaskState {
    VldTaskConfig cfg;
    std::unique_ptr<media::BitReader> reader;  // decodes in place from storage
    std::uint64_t fetched_bytes = 0;
    Phase phase = Phase::SeqHeader;
    media::SeqHeader seq{};
    media::PicHeader pic{};
    int pics_done = 0;
    int mb_index = 0;
    int mb_count = 0;

    // Recovery state.
    bool resync_pending = false;  ///< emit a Resync marker at the next step
    bool abort_pending = false;   ///< emit Eos and finish at the next step
    bool skipping = false;        ///< discarding coded data until an I-frame
  };

  /// True when the reader has run past the task's fetch high-water.
  [[nodiscard]] static bool fetchBehind(const TaskState& st) {
    return st.fetched_bytes < (st.reader->bitPosition() + 7) / 8;
  }

  /// Issues timed off-chip fetches until the task's fetch high-water covers
  /// the current bit position. Callers guard it with fetchBehind(), so a
  /// step that needs no fetch makes no coroutine frame.
  sim::Task<void> ensureFetched(TaskState& st);

  mem::OffChipMemory& dram_;
  VldParams params_;
  std::map<sim::TaskId, TaskState> states_;
  media::ByteWriter writer_;  // reusable serialisation buffer (steps are serial)
  media::stages::ParsedMb parsed_;  // step scratch: keeps its run/level capacity
  std::uint64_t symbols_ = 0;
  std::uint64_t pics_skipped_ = 0;
};

}  // namespace eclipse::coproc
