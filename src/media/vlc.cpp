#include "eclipse/media/vlc.hpp"

#include <cmath>
#include <cstdlib>

#include "eclipse/media/kernels.hpp"

namespace eclipse::media::vlc {

namespace {

bool isCommon(const rle::RunLevel& p) {
  return p.run < 4 && p.level != 0 && std::abs(p.level) <= 4;
}

int ueBits(std::uint32_t v) {
  int len = 0;
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  while ((code >> len) > 1) ++len;
  return 2 * len + 1;
}

}  // namespace

void putBlock(BitWriter& bw, const std::vector<rle::RunLevel>& pairs) {
  for (const auto& p : pairs) {
    if (isCommon(p)) {
      bw.putBit(0);
      bw.put(p.run, 2);
      bw.put(static_cast<std::uint32_t>(std::abs(p.level) - 1), 2);
      bw.putBit(p.level < 0 ? 1 : 0);
    } else {
      bw.put(0b11, 2);
      bw.putUe(p.run);
      bw.putUe(static_cast<std::uint32_t>(std::abs(p.level) - 1));
      bw.putBit(p.level < 0 ? 1 : 0);
    }
  }
  bw.put(0b10, 2);  // end of block
}

std::vector<rle::RunLevel> getBlock(BitReader& br) {
  std::vector<rle::RunLevel> pairs;
  getBlock(br, pairs);
  return pairs;
}

void getBlock(BitReader& br, std::vector<rle::RunLevel>& out) {
  // Decode goes through the kernel table: the scalar backend is the
  // original bit-at-a-time loop, SIMD backends use a table-driven
  // multi-bit decoder with identical output, exceptions and bit
  // consumption (fault recovery resumes from the reader's position).
  out.clear();
  kernels::active().vlc_get_block(br, out);
}

int pairBits(const rle::RunLevel& pair) {
  if (isCommon(pair)) return 6;
  return 2 + ueBits(pair.run) + ueBits(static_cast<std::uint32_t>(std::abs(pair.level) - 1)) + 1;
}

}  // namespace eclipse::media::vlc
