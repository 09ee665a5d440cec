#include "eclipse/coproc/rlsq.hpp"

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"

namespace eclipse::coproc {

namespace {

std::uint64_t pairCount(const media::MbCoefs& c) {
  std::uint64_t n = 0;
  for (const auto& b : c.blocks) n += b.size();
  return n;
}

int codedBlocks(std::uint8_t cbp) {
  int n = 0;
  for (int b = 0; b < media::kBlocksPerMacroblock; ++b) {
    if ((cbp & (1u << b)) != 0) ++n;
  }
  return n;
}

}  // namespace

sim::Task<void> RlsqCoproc::step(sim::TaskId task, std::uint32_t task_info) {
  TaskState& st = states_[task];
  if ((task_info & kRlsqInfoEncode) != 0) {
    co_await stepEncode(task, st);
  } else {
    co_await stepDecode(task, st);
  }
}

sim::Task<void> RlsqCoproc::stepDecode(sim::TaskId task, TaskState& st) {
  if (!co_await shell_.getSpace(task, kOut, withCtl(kMaxBlocksFrame))) co_return;
  const packet_io::Packet p = co_await packet_io::tryReadView(shell_, task, kIn);
  if (p.status == packet_io::ReadStatus::Blocked) co_return;
  // Discard mode (recovery): drop everything up to the Resync marker that
  // the restarted VLD emits; Eos still terminates the task cleanly.
  if (st.discard) {
    const auto tag = packet_io::tagOf(p.bytes);
    if (tag == media::PacketTag::Resync) {
      st.discard = false;
      co_await packet_io::write(shell_, task, kOut, media::packTag(media::PacketTag::Resync),
                                /*wait=*/false);
    } else if (tag == media::PacketTag::Eos) {
      st.discard = false;
      co_await packet_io::write(shell_, task, kOut, media::packTag(media::PacketTag::Eos),
                                /*wait=*/false);
      finishTask(task);
    } else {
      ++discarded_;
    }
    co_return;
  }
  // The committed view is parsed before the first suspension point; the
  // pass-through packets are re-serialised from the parsed state (the
  // byte-level codec is deterministic, so the re-pack is bit-identical).
  switch (packet_io::tagOf(p.bytes)) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(p.bytes));
      media::get(r, st.seq);
      st.have_seq = true;
      co_await packet_io::write(shell_, task, kOut,
                                media::packPacketInto(writer_, media::PacketTag::Seq, st.seq),
                                /*wait=*/false);
      break;
    }
    case media::PacketTag::Pic: {
      media::ByteReader r(packet_io::payloadOf(p.bytes));
      media::get(r, st.pic);
      co_await packet_io::write(shell_, task, kOut,
                                media::packPacketInto(writer_, media::PacketTag::Pic, st.pic),
                                /*wait=*/false);
      break;
    }
    case media::PacketTag::Mb: {
      media::MbCoefs& coefs = mb_coefs_;
      media::ByteReader r(packet_io::payloadOf(p.bytes));
      media::get(r, coefs);
      media::MbBlocks& out = mb_blocks_;
      media::stages::rlsqDecode(coefs, coefs.intra != 0, st.seq, out);
      out.intra = coefs.intra;
      const std::uint64_t np = pairCount(coefs);
      const int nb = codedBlocks(coefs.cbp);
      pairs_ += np;
      blocks_ += static_cast<std::uint64_t>(nb);
      co_await sim_.delay(np * params_.cycles_per_pair +
                          static_cast<sim::Cycle>(nb) * params_.cycles_per_block);
      co_await packet_io::write(shell_, task, kOut,
                                media::packPacketInto(writer_, media::PacketTag::Mb, out),
                                /*wait=*/false);
      break;
    }
    case media::PacketTag::Resync: {
      // Pass the marker through so downstream stages resynchronise too.
      co_await packet_io::write(shell_, task, kOut, media::packTag(media::PacketTag::Resync),
                                /*wait=*/false);
      break;
    }
    case media::PacketTag::Eos: {
      co_await packet_io::write(shell_, task, kOut, media::packTag(media::PacketTag::Eos),
                                /*wait=*/false);
      finishTask(task);
      break;
    }
  }
}

sim::Task<void> RlsqCoproc::stepEncode(sim::TaskId task, TaskState& st) {
  // Two consumers: the variable-length encoder and the reconstruction loop.
  // Reconstruction only receives reference pictures (B pictures are never
  // prediction sources), so the recon stream sees a data-dependent subset.
  if (!co_await shell_.getSpace(task, kOut, withCtl(kMaxCoefsFrame))) co_return;
  if (!co_await shell_.getSpace(task, kOutRecon, withCtl(kMaxCoefsFrame))) co_return;
  const packet_io::Packet p = co_await packet_io::tryReadView(shell_, task, kIn);
  if (p.status == packet_io::ReadStatus::Blocked) co_return;
  switch (packet_io::tagOf(p.bytes)) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(p.bytes));
      media::get(r, st.seq);
      st.pic.qscale = st.seq.qscale;
      st.have_seq = true;
      // One re-pack feeds both writes; the writer is untouched in between,
      // so the span stays valid across the suspensions.
      const auto out_pkt = media::packPacketInto(writer_, media::PacketTag::Seq, st.seq);
      co_await packet_io::write(shell_, task, kOut, out_pkt, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutRecon, out_pkt, /*wait=*/false);
      break;
    }
    case media::PacketTag::Pic: {
      media::ByteReader r(packet_io::payloadOf(p.bytes));
      media::get(r, st.pic);
      st.pic_is_ref = st.pic.type != media::FrameType::B;
      const auto out_pkt = media::packPacketInto(writer_, media::PacketTag::Pic, st.pic);
      co_await packet_io::write(shell_, task, kOut, out_pkt, /*wait=*/false);
      if (st.pic_is_ref) {
        co_await packet_io::write(shell_, task, kOutRecon, out_pkt, /*wait=*/false);
      }
      break;
    }
    case media::PacketTag::Mb: {
      media::MbBlocks& in = mb_blocks_;
      media::ByteReader r(packet_io::payloadOf(p.bytes));
      media::get(r, in);
      media::MbCoefs& out = mb_coefs_;
      media::stages::rlsqEncode(in, in.intra != 0, st.seq, st.pic.qscale, out);
      const std::uint64_t np = pairCount(out);
      pairs_ += np;
      blocks_ += static_cast<std::uint64_t>(media::kBlocksPerMacroblock);
      co_await sim_.delay(np * params_.cycles_per_pair +
                          static_cast<sim::Cycle>(media::kBlocksPerMacroblock) *
                              params_.cycles_per_block);
      const auto out_pkt = media::packPacketInto(writer_, media::PacketTag::Mb, out);
      co_await packet_io::write(shell_, task, kOut, out_pkt, /*wait=*/false);
      if (st.pic_is_ref) {
        co_await packet_io::write(shell_, task, kOutRecon, out_pkt, /*wait=*/false);
      }
      break;
    }
    case media::PacketTag::Resync: {
      const auto out_pkt = media::packTag(media::PacketTag::Resync);
      co_await packet_io::write(shell_, task, kOut, out_pkt, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutRecon, out_pkt, /*wait=*/false);
      break;
    }
    case media::PacketTag::Eos: {
      co_await packet_io::write(shell_, task, kOut, media::packTag(media::PacketTag::Eos),
                                /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutRecon, media::packTag(media::PacketTag::Eos),
                                /*wait=*/false);
      finishTask(task);
      break;
    }
  }
}

}  // namespace eclipse::coproc
