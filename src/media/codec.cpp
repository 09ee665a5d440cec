#include "eclipse/media/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "eclipse/media/dct.hpp"
#include "eclipse/media/kernels.hpp"
#include "eclipse/media/vlc.hpp"

namespace eclipse::media {

SeqHeader CodecParams::toSeqHeader(int frame_count) const {
  SeqHeader sh;
  sh.width = static_cast<std::uint16_t>(width);
  sh.height = static_cast<std::uint16_t>(height);
  sh.gop_n = static_cast<std::uint8_t>(gop.n);
  sh.gop_m = static_cast<std::uint8_t>(gop.m);
  sh.qscale = static_cast<std::uint8_t>(qscale);
  sh.frame_count = static_cast<std::uint16_t>(frame_count);
  sh.scan_order = scan_order == scan::Order::Zigzag ? 0 : 1;
  sh.use_intra_matrix = use_intra_matrix ? 1 : 0;
  return sh;
}

CodecParams CodecParams::fromSeqHeader(const SeqHeader& sh) {
  CodecParams p;
  p.width = sh.width;
  p.height = sh.height;
  p.gop = GopStructure{sh.gop_n, sh.gop_m};
  p.qscale = sh.qscale;
  p.scan_order = sh.scan_order == 0 ? scan::Order::Zigzag : scan::Order::Alternate;
  p.use_intra_matrix = sh.use_intra_matrix != 0;
  return p;
}

namespace stages {

namespace {

constexpr std::uint32_t kSeqMagic = 0x454D;  // "EM": Eclipse Media stream

const quant::Matrix& intraMatrix(const SeqHeader& sh) {
  return sh.use_intra_matrix != 0 ? quant::defaultIntraMatrix() : quant::flatMatrix();
}

scan::Order scanOrder(const SeqHeader& sh) {
  return sh.scan_order == 0 ? scan::Order::Zigzag : scan::Order::Alternate;
}

}  // namespace

void writeSeqHeader(BitWriter& bw, const SeqHeader& sh) {
  bw.put(kSeqMagic, 16);
  bw.putUe(sh.width / kMbSize);
  bw.putUe(sh.height / kMbSize);
  bw.putUe(sh.gop_n);
  bw.putUe(sh.gop_m);
  bw.put(sh.qscale, 5);
  bw.putUe(sh.frame_count);
  bw.putBit(sh.scan_order);
  bw.putBit(sh.use_intra_matrix);
}

SeqHeader parseSeqHeader(BitReader& br) {
  if (br.get(16) != kSeqMagic) throw BitstreamError("parseSeqHeader: bad magic");
  SeqHeader sh;
  sh.width = static_cast<std::uint16_t>(br.getUe() * kMbSize);
  sh.height = static_cast<std::uint16_t>(br.getUe() * kMbSize);
  sh.gop_n = static_cast<std::uint8_t>(br.getUe());
  sh.gop_m = static_cast<std::uint8_t>(br.getUe());
  sh.qscale = static_cast<std::uint8_t>(br.get(5));
  sh.frame_count = static_cast<std::uint16_t>(br.getUe());
  sh.scan_order = static_cast<std::uint8_t>(br.getBit());
  sh.use_intra_matrix = static_cast<std::uint8_t>(br.getBit());
  if (sh.width == 0 || sh.height == 0) throw BitstreamError("parseSeqHeader: zero dimensions");
  if (sh.qscale < quant::kMinQscale) throw BitstreamError("parseSeqHeader: bad qscale");
  if (sh.gop_m == 0 || sh.gop_n == 0 || sh.gop_n % sh.gop_m != 0) {
    throw BitstreamError("parseSeqHeader: bad GOP structure");
  }
  return sh;
}

void writePicHeader(BitWriter& bw, const PicHeader& ph) {
  bw.put(static_cast<std::uint32_t>(ph.type), 2);
  bw.putUe(ph.temporal_ref);
  bw.put(ph.qscale, 5);
}

PicHeader parsePicHeader(BitReader& br) {
  PicHeader ph;
  const std::uint32_t t = br.get(2);
  if (t > 2) throw BitstreamError("parsePicHeader: bad picture type");
  ph.type = static_cast<FrameType>(t);
  ph.temporal_ref = static_cast<std::uint16_t>(br.getUe());
  ph.qscale = static_cast<std::uint8_t>(br.get(5));
  if (ph.qscale < quant::kMinQscale) throw BitstreamError("parsePicHeader: bad qscale");
  return ph;
}

void writeMb(BitWriter& bw, const MbHeader& h, const MbCoefs& coefs) {
  bw.put(static_cast<std::uint32_t>(h.mode), 2);
  if (h.mode == MbMode::Forward || h.mode == MbMode::Bidirectional) {
    bw.putSe(h.mv_fwd.x);
    bw.putSe(h.mv_fwd.y);
  }
  if (h.mode == MbMode::Backward || h.mode == MbMode::Bidirectional) {
    bw.putSe(h.mv_bwd.x);
    bw.putSe(h.mv_bwd.y);
  }
  bw.put(h.cbp, 6);
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    if ((h.cbp & (1u << b)) != 0) {
      vlc::putBlock(bw, coefs.blocks[static_cast<std::size_t>(b)]);
    }
  }
}

ParsedMb parseMb(BitReader& br, FrameType pic_type, std::uint16_t mb_x, std::uint16_t mb_y,
                 std::uint8_t pic_qscale) {
  ParsedMb out;
  parseMb(br, pic_type, mb_x, mb_y, pic_qscale, out);
  return out;
}

void parseMb(BitReader& br, FrameType pic_type, std::uint16_t mb_x, std::uint16_t mb_y,
             std::uint8_t pic_qscale, ParsedMb& out) {
  MbHeader& h = out.header;
  h = MbHeader{};
  h.mb_x = mb_x;
  h.mb_y = mb_y;
  h.qscale = pic_qscale;
  h.mode = static_cast<MbMode>(br.get(2));
  out.symbols = 1;
  if (pic_type == FrameType::I && h.mode != MbMode::Intra) {
    throw BitstreamError("parseMb: non-intra macroblock in I picture");
  }
  if (pic_type == FrameType::P &&
      (h.mode == MbMode::Backward || h.mode == MbMode::Bidirectional)) {
    throw BitstreamError("parseMb: backward prediction in P picture");
  }
  if (h.mode == MbMode::Forward || h.mode == MbMode::Bidirectional) {
    h.mv_fwd.x = static_cast<std::int16_t>(br.getSe());
    h.mv_fwd.y = static_cast<std::int16_t>(br.getSe());
    out.symbols += 2;
  }
  if (h.mode == MbMode::Backward || h.mode == MbMode::Bidirectional) {
    h.mv_bwd.x = static_cast<std::int16_t>(br.getSe());
    h.mv_bwd.y = static_cast<std::int16_t>(br.getSe());
    out.symbols += 2;
  }
  h.cbp = static_cast<std::uint8_t>(br.get(6));
  out.symbols += 1;
  out.coefs.cbp = h.cbp;
  out.coefs.intra = h.mode == MbMode::Intra ? 1 : 0;
  out.coefs.qscale = pic_qscale;
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    auto& pairs = out.coefs.blocks[static_cast<std::size_t>(b)];
    if ((h.cbp & (1u << b)) != 0) {
      vlc::getBlock(br, pairs);
      out.symbols += static_cast<int>(pairs.size()) + 1;  // + EOB
    } else {
      pairs.clear();
    }
  }
}

void rlsqDecode(const MbCoefs& in, bool intra, const SeqHeader& sh, MbBlocks& out) {
  out.cbp = in.cbp;
  const quant::Matrix& m = intra ? intraMatrix(sh) : quant::flatMatrix();
  const scan::Order order = scanOrder(sh);
  if (in.qscale < quant::kMinQscale || in.qscale > quant::kMaxQscale) {
    throw BitstreamError("rlsqDecode: macroblock qscale out of range");
  }
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    auto& block = out.blocks[static_cast<std::size_t>(b)];
    if ((in.cbp & (1u << b)) == 0) {
      block.fill(0);
      continue;
    }
    Block scanned;
    rle::decode(in.blocks[static_cast<std::size_t>(b)], scanned);
    Block levels;
    scan::fromScan(scanned, levels, order);
    quant::dequantize(levels, block, in.qscale, m);
  }
}

void rlsqEncode(const MbBlocks& in, bool intra, const SeqHeader& sh, int qscale, MbCoefs& out) {
  const quant::Matrix& m = intra ? intraMatrix(sh) : quant::flatMatrix();
  const scan::Order order = scanOrder(sh);
  out.cbp = 0;
  out.intra = intra ? 1 : 0;
  out.qscale = static_cast<std::uint8_t>(qscale);
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    Block levels;
    quant::quantize(in.blocks[static_cast<std::size_t>(b)], levels, qscale, m);
    Block scanned;
    scan::toScan(levels, scanned, order);
    auto pairs = rle::encode(scanned);
    if (!pairs.empty()) {
      out.cbp |= static_cast<std::uint8_t>(1u << b);
      out.blocks[static_cast<std::size_t>(b)] = std::move(pairs);
    } else {
      out.blocks[static_cast<std::size_t>(b)].clear();
    }
  }
}

void idctMb(const MbBlocks& in, MbBlocks& out) {
  out.cbp = in.cbp;
  out.intra = in.intra;
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    if ((in.cbp & (1u << b)) == 0) {
      out.blocks[static_cast<std::size_t>(b)].fill(0);
    } else {
      dct::inverse(in.blocks[static_cast<std::size_t>(b)],
                   out.blocks[static_cast<std::size_t>(b)]);
    }
  }
}

void fdctMb(const MbBlocks& in, MbBlocks& out) {
  out.cbp = in.cbp;
  out.intra = in.intra;
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    dct::forward(in.blocks[static_cast<std::size_t>(b)], out.blocks[static_cast<std::size_t>(b)]);
  }
}

void extractMb(const Frame& f, int mb_x, int mb_y, MbPixels& out) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      out.y[static_cast<std::size_t>(y * kMbSize + x)] = f.yAt(px + x, py + y);
    }
  }
  const int cw = f.width() / 2;
  const auto& cb = f.cbPlane();
  const auto& cr = f.crPlane();
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const std::size_t src = static_cast<std::size_t>((py / 2 + y) * cw + (px / 2 + x));
      out.cb[static_cast<std::size_t>(y * 8 + x)] = cb[src];
      out.cr[static_cast<std::size_t>(y * 8 + x)] = cr[src];
    }
  }
}

void placeMb(Frame& f, int mb_x, int mb_y, const MbPixels& in) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      f.setY(px + x, py + y, in.y[static_cast<std::size_t>(y * kMbSize + x)]);
    }
  }
  const int cw = f.width() / 2;
  auto& cb = f.cbPlane();
  auto& cr = f.crPlane();
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const std::size_t dst = static_cast<std::size_t>((py / 2 + y) * cw + (px / 2 + x));
      cb[dst] = in.cb[static_cast<std::size_t>(y * 8 + x)];
      cr[dst] = in.cr[static_cast<std::size_t>(y * 8 + x)];
    }
  }
}

void predictMb(const MbHeader& h, const Frame* fwd_ref, const Frame* bwd_ref, MbPixels& out) {
  if (h.mode == MbMode::Intra) {
    out.y.fill(128);
    out.cb.fill(128);
    out.cr.fill(128);
    return;
  }
  const int px = h.mb_x * kMbSize;
  const int py = h.mb_y * kMbSize;

  auto predictFrom = [&](const Frame& ref, MotionVector mv, MbPixels& p) {
    motion::predictLuma(ref, px, py, mv, p.y);
    motion::predictChroma(ref.cbPlane(), ref.width() / 2, ref.height() / 2, px / 2, py / 2, mv,
                          p.cb);
    motion::predictChroma(ref.crPlane(), ref.width() / 2, ref.height() / 2, px / 2, py / 2, mv,
                          p.cr);
  };

  switch (h.mode) {
    case MbMode::Forward: {
      if (fwd_ref == nullptr) throw std::logic_error("predictMb: missing forward reference");
      predictFrom(*fwd_ref, h.mv_fwd, out);
      break;
    }
    case MbMode::Backward: {
      if (bwd_ref == nullptr) throw std::logic_error("predictMb: missing backward reference");
      predictFrom(*bwd_ref, h.mv_bwd, out);
      break;
    }
    case MbMode::Bidirectional: {
      if (fwd_ref == nullptr || bwd_ref == nullptr) {
        throw std::logic_error("predictMb: missing reference for bidirectional MB");
      }
      MbPixels f, b;
      predictFrom(*fwd_ref, h.mv_fwd, f);
      predictFrom(*bwd_ref, h.mv_bwd, b);
      motion::average(f.y, b.y, out.y);
      motion::average(f.cb, b.cb, out.cb);
      motion::average(f.cr, b.cr, out.cr);
      break;
    }
    case MbMode::Intra:
      break;  // handled above
  }
}

namespace {

// The six 8x8 blocks of a macroblock as (plane base offset, stride) into
// the MbPixels arrays: four luma quadrants, then Cb, then Cr.
struct BlockGeom {
  std::size_t offset;
  int stride;
};

BlockGeom blockGeom(int b) {
  if (b < 4) {
    return BlockGeom{static_cast<std::size_t>((b / 2) * 8 * kMbSize + (b % 2) * 8), kMbSize};
  }
  return BlockGeom{0, 8};
}

}  // namespace

void residualMb(const MbPixels& cur, const MbPixels& pred, MbBlocks& out) {
  out.cbp = 0x3F;
  const auto& k = kernels::active();
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    const BlockGeom g = blockGeom(b);
    const std::uint8_t* c = b < 4 ? cur.y.data() : (b == 4 ? cur.cb.data() : cur.cr.data());
    const std::uint8_t* p = b < 4 ? pred.y.data() : (b == 4 ? pred.cb.data() : pred.cr.data());
    k.diff_8x8(out.blocks[static_cast<std::size_t>(b)].data(), c + g.offset, g.stride,
               p + g.offset, g.stride);
  }
}

void addResidualMb(const MbPixels& pred, const MbBlocks& residual, MbPixels& out) {
  const auto& k = kernels::active();
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    const BlockGeom g = blockGeom(b);
    const std::uint8_t* p = b < 4 ? pred.y.data() : (b == 4 ? pred.cb.data() : pred.cr.data());
    std::uint8_t* o = b < 4 ? out.y.data() : (b == 4 ? out.cb.data() : out.cr.data());
    k.add_res_8x8(o + g.offset, g.stride, p + g.offset, g.stride,
                  residual.blocks[static_cast<std::size_t>(b)].data());
  }
}

MbHeader decideMbMode(const Frame& src, int mb_x, int mb_y, FrameType pic_type, const Frame* fwd,
                      const Frame* bwd, const motion::SearchParams& search, std::uint8_t qscale) {
  MbHeader h;
  h.mb_x = static_cast<std::uint16_t>(mb_x);
  h.mb_y = static_cast<std::uint16_t>(mb_y);
  h.qscale = qscale;

  if (pic_type == FrameType::I) {
    h.mode = MbMode::Intra;
    return h;
  }

  const std::uint32_t activity = motion::intraActivity(src, mb_x, mb_y);
  motion::SearchResult best_f{}, best_b{};
  std::uint32_t sad_bidi = UINT32_MAX;
  MotionVector mv_f{}, mv_b{};
  std::uint32_t best_sad = UINT32_MAX;
  MbMode best_mode = MbMode::Intra;

  if (fwd != nullptr) {
    best_f = motion::search(src, *fwd, mb_x, mb_y, search);
    if (best_f.sad < best_sad) {
      best_sad = best_f.sad;
      best_mode = MbMode::Forward;
      mv_f = best_f.mv;
    }
  }
  if (pic_type == FrameType::B && bwd != nullptr) {
    best_b = motion::search(src, *bwd, mb_x, mb_y, search);
    if (best_b.sad < best_sad) {
      best_sad = best_b.sad;
      best_mode = MbMode::Backward;
      mv_b = best_b.mv;
    }
    if (fwd != nullptr) {
      // Evaluate the bidirectional average of the two best vectors.
      MbHeader bh;
      bh.mb_x = h.mb_x;
      bh.mb_y = h.mb_y;
      bh.mode = MbMode::Bidirectional;
      bh.mv_fwd = best_f.mv;
      bh.mv_bwd = best_b.mv;
      MbPixels cur_px, pred_px;
      stages::extractMb(src, mb_x, mb_y, cur_px);
      stages::predictMb(bh, fwd, bwd, pred_px);
      sad_bidi = kernels::active().sad_16xh(cur_px.y.data(), kMbSize, pred_px.y.data(), kMbSize,
                                            kMbSize, 0, 0);
      if (sad_bidi < best_sad) {
        best_sad = sad_bidi;
        best_mode = MbMode::Bidirectional;
        mv_f = best_f.mv;
        mv_b = best_b.mv;
      }
    }
  }
  if (best_sad == UINT32_MAX || best_sad > activity) {
    h.mode = MbMode::Intra;
  } else {
    h.mode = best_mode;
    h.mv_fwd = mv_f;
    h.mv_bwd = mv_b;
  }
  return h;
}

}  // namespace stages

std::vector<CodedPicture> codedOrder(int frame_count, const GopStructure& gop) {
  std::vector<CodedPicture> coded;
  coded.reserve(static_cast<std::size_t>(frame_count));
  std::vector<int> pending_b;
  int prev_ref = -1;
  for (int i = 0; i < frame_count; ++i) {
    const FrameType t = gop.typeAt(i);
    if (t == FrameType::B) {
      pending_b.push_back(i);
      continue;
    }
    coded.push_back(CodedPicture{i, t, t == FrameType::P ? prev_ref : -1, -1});
    for (int b : pending_b) {
      coded.push_back(CodedPicture{b, FrameType::B, prev_ref, i});
    }
    pending_b.clear();
    prev_ref = i;
  }
  // Trailing B-frames have no future reference; code them as forward-only
  // P pictures so encoder and decoder agree on the reference used.
  for (int b : pending_b) {
    coded.push_back(CodedPicture{b, FrameType::P, prev_ref, -1});
    prev_ref = b;
  }
  return coded;
}

std::vector<std::uint8_t> Encoder::encode(const std::vector<Frame>& frames) {
  if (frames.empty()) throw std::invalid_argument("Encoder: no frames");
  for (const auto& f : frames) {
    if (f.width() != params_.width || f.height() != params_.height) {
      throw std::invalid_argument("Encoder: frame dimensions do not match params");
    }
  }
  const SeqHeader sh = params_.toSeqHeader(static_cast<int>(frames.size()));
  BitWriter bw;
  stages::writeSeqHeader(bw, sh);

  recon_display_.assign(frames.size(), Frame{});
  stats_.clear();

  const auto order = codedOrder(static_cast<int>(frames.size()), params_.gop);
  const int mb_w = params_.width / kMbSize;
  const int mb_h = params_.height / kMbSize;

  // Rate control state: a damped multiplicative controller on the
  // quantiser scale (coarser quantisation when pictures overshoot).
  double rc_qscale = static_cast<double>(params_.qscale);

  for (const auto& cp : order) {
    const Frame& src = frames[static_cast<std::size_t>(cp.display_idx)];
    const Frame* fwd =
        cp.fwd_ref_display >= 0 ? &recon_display_[static_cast<std::size_t>(cp.fwd_ref_display)]
                                : nullptr;
    const Frame* bwd =
        cp.bwd_ref_display >= 0 ? &recon_display_[static_cast<std::size_t>(cp.bwd_ref_display)]
                                : nullptr;

    PicHeader ph;
    ph.type = cp.type;
    ph.temporal_ref = static_cast<std::uint16_t>(cp.display_idx);
    ph.qscale = static_cast<std::uint8_t>(std::clamp(
        static_cast<int>(std::lround(rc_qscale)), quant::kMinQscale, quant::kMaxQscale));
    const std::size_t pic_start_bits = bw.bitCount();
    stages::writePicHeader(bw, ph);

    PictureStats ps;
    ps.type = cp.type;
    ps.temporal_ref = ph.temporal_ref;

    Frame recon(params_.width, params_.height);

    for (int mb_y = 0; mb_y < mb_h; ++mb_y) {
      for (int mb_x = 0; mb_x < mb_w; ++mb_x) {
        const MbHeader decided =
            stages::decideMbMode(src, mb_x, mb_y, cp.type, fwd, bwd, params_.search, ph.qscale);
        MbHeader h = decided;
        const bool intra = h.mode == MbMode::Intra;
        MbPixels cur_px, pred_px;
        stages::extractMb(src, mb_x, mb_y, cur_px);
        stages::predictMb(h, fwd, bwd, pred_px);

        MbBlocks residual, coefs;
        stages::residualMb(cur_px, pred_px, residual);
        stages::fdctMb(residual, coefs);

        MbCoefs rl;
        stages::rlsqEncode(coefs, intra, sh, ph.qscale, rl);
        h.cbp = rl.cbp;

        stages::writeMb(bw, h, rl);

        switch (h.mode) {
          case MbMode::Intra: ++ps.intra_mbs; break;
          case MbMode::Forward: ++ps.fwd_mbs; break;
          case MbMode::Backward: ++ps.bwd_mbs; break;
          case MbMode::Bidirectional: ++ps.bidi_mbs; break;
        }
        for (int b = 0; b < kBlocksPerMacroblock; ++b) {
          if ((rl.cbp & (1u << b)) != 0) {
            ++ps.coded_blocks;
            ps.symbols += static_cast<std::uint32_t>(rl.blocks[static_cast<std::size_t>(b)].size()) + 1;
          }
        }

        // Closed-loop reconstruction via the exact decoder stages.
        MbBlocks deq, res;
        stages::rlsqDecode(rl, intra, sh, deq);
        stages::idctMb(deq, res);
        MbPixels recon_px;
        stages::addResidualMb(pred_px, res, recon_px);
        stages::placeMb(recon, mb_x, mb_y, recon_px);
      }
    }

    ps.bits = static_cast<std::uint32_t>(bw.bitCount() - pic_start_bits);
    if (params_.target_bits_per_picture > 0) {
      const double ratio = static_cast<double>(ps.bits) /
                           static_cast<double>(params_.target_bits_per_picture);
      rc_qscale = std::clamp(rc_qscale * std::pow(ratio, 0.4),
                             static_cast<double>(quant::kMinQscale),
                             static_cast<double>(quant::kMaxQscale));
    }
    stats_.push_back(ps);
    recon_display_[static_cast<std::size_t>(cp.display_idx)] = std::move(recon);
  }

  return bw.finish();
}

std::vector<Frame> Decoder::decode(std::span<const std::uint8_t> bitstream) {
  BitReader br(bitstream);
  seq_ = stages::parseSeqHeader(br);
  stats_.clear();

  const int mb_w = seq_.width / kMbSize;
  const int mb_h = seq_.height / kMbSize;

  std::map<int, Frame> by_display;
  const Frame* fwd_ref = nullptr;
  const Frame* bwd_ref = nullptr;
  int prev_ref_display = -1;
  int last_ref_display = -1;
  stages::ParsedMb parsed;  // reused: keeps its run/level capacity

  for (int pic = 0; pic < seq_.frame_count; ++pic) {
    const PicHeader ph = stages::parsePicHeader(br);
    const std::size_t pic_start_bits = br.bitPosition();

    PictureStats ps;
    ps.type = ph.type;
    ps.temporal_ref = ph.temporal_ref;

    Frame frame(seq_.width, seq_.height);
    const Frame* use_fwd = ph.type == FrameType::B ? fwd_ref
                           : ph.type == FrameType::P
                               ? (last_ref_display >= 0 ? &by_display.at(last_ref_display) : nullptr)
                               : nullptr;
    const Frame* use_bwd = ph.type == FrameType::B ? bwd_ref : nullptr;

    for (int mb_y = 0; mb_y < mb_h; ++mb_y) {
      for (int mb_x = 0; mb_x < mb_w; ++mb_x) {
        stages::parseMb(br, ph.type, static_cast<std::uint16_t>(mb_x),
                        static_cast<std::uint16_t>(mb_y), ph.qscale, parsed);
        ps.symbols += static_cast<std::uint32_t>(parsed.symbols);
        const bool intra = parsed.header.mode == MbMode::Intra;
        switch (parsed.header.mode) {
          case MbMode::Intra: ++ps.intra_mbs; break;
          case MbMode::Forward: ++ps.fwd_mbs; break;
          case MbMode::Backward: ++ps.bwd_mbs; break;
          case MbMode::Bidirectional: ++ps.bidi_mbs; break;
        }
        for (int b = 0; b < kBlocksPerMacroblock; ++b) {
          if ((parsed.header.cbp & (1u << b)) != 0) ++ps.coded_blocks;
        }

        MbBlocks deq, res;
        stages::rlsqDecode(parsed.coefs, intra, seq_, deq);
        stages::idctMb(deq, res);
        MbPixels pred_px, recon_px;
        stages::predictMb(parsed.header, use_fwd, use_bwd, pred_px);
        stages::addResidualMb(pred_px, res, recon_px);
        stages::placeMb(frame, mb_x, mb_y, recon_px);
      }
    }

    ps.bits = static_cast<std::uint32_t>(br.bitPosition() - pic_start_bits);
    stats_.push_back(ps);

    const int display_idx = ph.temporal_ref;
    by_display[display_idx] = std::move(frame);
    if (ph.type != FrameType::B) {
      prev_ref_display = last_ref_display;
      last_ref_display = display_idx;
      fwd_ref = prev_ref_display >= 0 ? &by_display.at(prev_ref_display) : nullptr;
      bwd_ref = &by_display.at(last_ref_display);
    }
  }

  std::vector<Frame> out;
  out.reserve(by_display.size());
  for (auto& [idx, f] : by_display) out.push_back(std::move(f));
  return out;
}

}  // namespace eclipse::media
