#include "eclipse/coproc/packet_io.hpp"

#include <cstring>
#include <stdexcept>

namespace eclipse::coproc::packet_io {

namespace {

/// Length word of a packet from the view of its 4-byte header. The header
/// may wrap the cyclic buffer, so it is always gathered into a local array.
std::uint32_t frameLen(const shell::WindowView& header) {
  std::uint8_t hdr[kFrameHeaderBytes];
  header.copyTo(hdr);
  std::uint32_t len = 0;
  std::memcpy(&len, hdr, sizeof len);
  if (len == 0) throw std::runtime_error("packet_io: zero-length packet frame");
  return len;
}

}  // namespace

sim::Task<Packet> tryReadView(shell::Shell& sh, sim::TaskId task, sim::PortId port) {
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes)) co_return Packet{};
  const std::uint32_t len = frameLen(co_await sh.acquireRead(task, port, 0, kFrameHeaderBytes));
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes + len)) {
    co_return Packet{};  // abort; the length word stays uncommitted
  }
  Packet p;
  p.view = co_await sh.acquireRead(task, port, kFrameHeaderBytes, len);
  p.frame_bytes = kFrameHeaderBytes + len;
  p.bytes = p.view.gather(sh.portScratch(task, port));
  // Commit before returning: the producer cannot observe the released
  // space until its sync message lands (sync_latency > 0 cycles away), so
  // p.bytes stays intact until the caller's next suspension point.
  co_await sh.putSpace(task, port, p.frame_bytes);
  p.status = ReadStatus::Ok;
  co_return p;
}

sim::Task<Packet> tryPeekView(shell::Shell& sh, sim::TaskId task, sim::PortId port) {
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes)) co_return Packet{};
  const std::uint32_t len = frameLen(co_await sh.acquireRead(task, port, 0, kFrameHeaderBytes));
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes + len)) co_return Packet{};
  Packet p;
  p.view = co_await sh.acquireRead(task, port, kFrameHeaderBytes, len);
  p.frame_bytes = kFrameHeaderBytes + len;
  p.bytes = p.view.gather(sh.portScratch(task, port));
  p.status = ReadStatus::Ok;
  co_return p;
}

sim::Task<Packet> blockingReadView(shell::Shell& sh, sim::TaskId task, sim::PortId port) {
  co_await sh.waitSpace(task, port, kFrameHeaderBytes);
  const std::uint32_t len = frameLen(co_await sh.acquireRead(task, port, 0, kFrameHeaderBytes));
  co_await sh.waitSpace(task, port, kFrameHeaderBytes + len);
  Packet p;
  p.view = co_await sh.acquireRead(task, port, kFrameHeaderBytes, len);
  p.frame_bytes = kFrameHeaderBytes + len;
  p.bytes = p.view.gather(sh.portScratch(task, port));
  co_await sh.putSpace(task, port, p.frame_bytes);
  p.status = ReadStatus::Ok;
  co_return p;
}

sim::Task<ReadStatus> tryRead(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                              std::vector<std::uint8_t>& out) {
  Packet p = co_await tryReadView(sh, task, port);
  if (p.status != ReadStatus::Ok) co_return ReadStatus::Blocked;
  out.assign(p.bytes.begin(), p.bytes.end());
  co_return ReadStatus::Ok;
}

sim::Task<PeekResult> tryPeek(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                              std::vector<std::uint8_t>& out) {
  Packet p = co_await tryPeekView(sh, task, port);
  if (p.status != ReadStatus::Ok) co_return PeekResult{};
  out.assign(p.bytes.begin(), p.bytes.end());
  co_return PeekResult{ReadStatus::Ok, p.frame_bytes};
}

sim::Task<void> blockingRead(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                             std::vector<std::uint8_t>& out) {
  Packet p = co_await blockingReadView(sh, task, port);
  out.assign(p.bytes.begin(), p.bytes.end());
}

sim::Task<bool> tryReserve(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                           std::uint32_t bytes) {
  co_return co_await sh.getSpace(task, port, bytes);
}

sim::Task<void> write(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                      std::span<const std::uint8_t> data, bool wait) {
  const auto len = static_cast<std::uint32_t>(data.size());
  const std::uint32_t total = kFrameHeaderBytes + len;
  if (wait) {
    co_await sh.waitSpace(task, port, total);
  }
  std::uint8_t hdr[kFrameHeaderBytes];
  std::memcpy(hdr, &len, sizeof len);
  // Two separate acquires — the same two transfer charges as the classic
  // header write + payload write.
  {
    shell::WindowView v = co_await sh.acquireWrite(task, port, 0, kFrameHeaderBytes);
    v.copyFrom(hdr);
  }
  {
    shell::WindowView v = co_await sh.acquireWrite(task, port, kFrameHeaderBytes, data.size());
    v.copyFrom(data);
  }
  co_await sh.putSpace(task, port, total);
}

}  // namespace eclipse::coproc::packet_io
