#include "eclipse/coproc/dct_coproc.hpp"

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"

namespace eclipse::coproc {

sim::Task<void> DctCoproc::step(sim::TaskId task, std::uint32_t task_info) {
  if (!co_await shell_.getSpace(task, kOut, withCtl(kMaxBlocksFrame))) co_return;
  const packet_io::Packet p = co_await packet_io::tryReadView(shell_, task, kIn);
  if (p.status == packet_io::ReadStatus::Blocked) co_return;
  const auto tag = packet_io::tagOf(p.bytes);
  // Discard mode (recovery): drop stale packets until the Resync marker
  // arrives; the marker itself (and Eos) passes through via the control
  // path below so downstream stages realign too.
  if (auto d = discard_.find(task); d != discard_.end() && d->second) {
    if (tag == media::PacketTag::Resync || tag == media::PacketTag::Eos) {
      d->second = false;
    } else {
      ++discarded_;
      co_return;
    }
  }
  if (tag == media::PacketTag::Mb) {
    media::MbBlocks& in = mb_in_;
    media::MbBlocks& out = mb_out_;
    // Parsed straight out of the committed view — fully consumed before
    // the delay suspension below.
    media::ByteReader r(packet_io::payloadOf(p.bytes));
    media::get(r, in);
    int nb;
    if ((task_info & kDctInfoForward) != 0) {
      media::stages::fdctMb(in, out);
      nb = media::kBlocksPerMacroblock;  // forward transforms every block
    } else {
      media::stages::idctMb(in, out);
      nb = 0;  // inverse only processes coded blocks
      for (int b = 0; b < media::kBlocksPerMacroblock; ++b) {
        if ((in.cbp & (1u << b)) != 0) ++nb;
      }
    }
    blocks_ += static_cast<std::uint64_t>(nb);
    co_await sim_.delay(static_cast<sim::Cycle>(nb) * params_.blockCycles());
    co_await packet_io::write(shell_, task, kOut,
                              media::packPacketInto(writer_, media::PacketTag::Mb, out),
                              /*wait=*/false);
    co_return;
  }
  // Control packets pass through unchanged; staged in the reusable buffer
  // because the view does not survive write()'s suspension points.
  ctl_.assign(p.bytes.begin(), p.bytes.end());
  co_await packet_io::write(shell_, task, kOut, ctl_, /*wait=*/false);
  if (tag == media::PacketTag::Eos) finishTask(task);
}

}  // namespace eclipse::coproc
