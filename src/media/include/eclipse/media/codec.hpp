#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/motion.hpp"
#include "eclipse/media/packets.hpp"
#include "eclipse/media/quant.hpp"
#include "eclipse/media/scan.hpp"
#include "eclipse/media/types.hpp"

namespace eclipse::media {

/// Codec configuration shared by encoder and decoder.
struct CodecParams {
  int width = 176;
  int height = 144;
  GopStructure gop{9, 3};
  int qscale = 8;
  motion::SearchParams search{};
  scan::Order scan_order = scan::Order::Zigzag;
  bool use_intra_matrix = true;

  /// Rate control: when nonzero, the encoder adapts the per-picture
  /// quantiser scale to steer every coded picture toward this many bits
  /// (a simple multiplicative-damping controller). 0 = constant qscale.
  std::uint32_t target_bits_per_picture = 0;

  [[nodiscard]] SeqHeader toSeqHeader(int frame_count) const;
  [[nodiscard]] static CodecParams fromSeqHeader(const SeqHeader& sh);
};

/// Per-picture workload statistics (coded order) used by the load analyses:
/// the paper's Figure 10 behaviour — bottleneck shifting per frame type —
/// comes precisely from how these quantities vary with FrameType.
struct PictureStats {
  FrameType type = FrameType::I;
  std::uint16_t temporal_ref = 0;
  std::uint32_t bits = 0;          // coded picture size
  std::uint32_t symbols = 0;       // VLC symbols (VLD work)
  std::uint32_t coded_blocks = 0;  // blocks through RLSQ/DCT
  std::uint32_t intra_mbs = 0;
  std::uint32_t fwd_mbs = 0;
  std::uint32_t bwd_mbs = 0;
  std::uint32_t bidi_mbs = 0;
};

/// The per-stage transforms of the codec. The functional Encoder/Decoder,
/// the KPN task graph, and the timed Eclipse coprocessors all call exactly
/// these functions, so all three levels of the design trajectory are
/// bit-identical in their stream contents (Kahn determinism made testable).
namespace stages {

// --- elementary stream syntax (VLE on the encoder, VLD on the decoder) ---

void writeSeqHeader(BitWriter& bw, const SeqHeader& sh);
[[nodiscard]] SeqHeader parseSeqHeader(BitReader& br);
void writePicHeader(BitWriter& bw, const PicHeader& ph);
[[nodiscard]] PicHeader parsePicHeader(BitReader& br);

/// Writes one macroblock: mode, motion vectors, cbp, coded blocks.
void writeMb(BitWriter& bw, const MbHeader& h, const MbCoefs& coefs);

struct ParsedMb {
  MbHeader header;
  MbCoefs coefs;
  int symbols = 0;  // VLC symbols decoded, incl. header fields and EOBs
};

/// Parses one macroblock. Validates that I pictures contain only intra MBs.
[[nodiscard]] ParsedMb parseMb(BitReader& br, FrameType pic_type, std::uint16_t mb_x,
                               std::uint16_t mb_y, std::uint8_t pic_qscale);

/// parseMb into `out`, whose run/level vectors keep their capacity.
void parseMb(BitReader& br, FrameType pic_type, std::uint16_t mb_x, std::uint16_t mb_y,
             std::uint8_t pic_qscale, ParsedMb& out);

// --- RLSQ: run-length (de)coding, (inverse) scan, (de)quantisation ---

/// Decode direction: run/level pairs -> dequantised coefficient blocks.
void rlsqDecode(const MbCoefs& in, bool intra, const SeqHeader& sh, MbBlocks& out);

/// Encode direction: coefficient blocks -> quantised run/level pairs.
/// Sets out.cbp from the surviving nonzero coefficients.
void rlsqEncode(const MbBlocks& in, bool intra, const SeqHeader& sh, int qscale, MbCoefs& out);

// --- DCT coprocessor functions ---

/// Inverse DCT of the coded blocks (uncoded blocks stay zero residual).
void idctMb(const MbBlocks& in, MbBlocks& out);

/// Forward DCT of all six residual blocks.
void fdctMb(const MbBlocks& in, MbBlocks& out);

// --- MC / pixel plumbing ---

/// Block index layout inside a macroblock: 0..3 luma (2x2 raster order),
/// 4 = Cb, 5 = Cr.
void extractMb(const Frame& f, int mb_x, int mb_y, MbPixels& out);
void placeMb(Frame& f, int mb_x, int mb_y, const MbPixels& in);

/// Motion-compensated (or intra flat-128) prediction for one macroblock.
void predictMb(const MbHeader& h, const Frame* fwd_ref, const Frame* bwd_ref, MbPixels& out);

/// Encoder-side mode decision for one macroblock: motion search against
/// the available references, bidirectional evaluation and the intra
/// fallback (SAD vs activity). Returns the header with mode and vectors
/// set (cbp is filled in after quantisation). Used identically by the
/// functional encoder, the KPN encoder tasks and — with the window-fetch
/// variant in the MC/ME coprocessor — the timed Eclipse encoder, keeping
/// all three refinement levels bit-identical.
[[nodiscard]] MbHeader decideMbMode(const Frame& src, int mb_x, int mb_y, FrameType pic_type,
                                    const Frame* fwd, const Frame* bwd,
                                    const motion::SearchParams& search, std::uint8_t qscale);

/// residual = cur - pred, in block layout.
void residualMb(const MbPixels& cur, const MbPixels& pred, MbBlocks& out);

/// recon = clamp(pred + residual).
void addResidualMb(const MbPixels& pred, const MbBlocks& residual, MbPixels& out);

}  // namespace stages

/// One picture in coded (bitstream) order with its reference links.
struct CodedPicture {
  int display_idx = 0;
  FrameType type = FrameType::I;
  int fwd_ref_display = -1;  // display idx of forward reference, -1 if none
  int bwd_ref_display = -1;  // display idx of backward reference, -1 if none
};

/// Computes coded order for `frame_count` display frames under `gop`.
/// Trailing B-frames without a future reference degrade to forward-only.
[[nodiscard]] std::vector<CodedPicture> codedOrder(int frame_count, const GopStructure& gop);

/// Functional (untimed) encoder — the golden model for the Eclipse
/// encoding application and the generator of all synthetic test streams.
class Encoder {
 public:
  explicit Encoder(const CodecParams& params) : params_(params) {}

  /// Encodes display-order frames into an elementary stream.
  [[nodiscard]] std::vector<std::uint8_t> encode(const std::vector<Frame>& frames);

  /// Encoder-side reconstructions in display order. The decoder's output
  /// must equal these bit-exactly (closed reconstruction loop).
  [[nodiscard]] const std::vector<Frame>& reconstructed() const { return recon_display_; }

  [[nodiscard]] const std::vector<PictureStats>& pictureStats() const { return stats_; }

 private:
  CodecParams params_;
  std::vector<Frame> recon_display_;
  std::vector<PictureStats> stats_;
};

/// Functional (untimed) decoder — the golden model for the Eclipse
/// decoding application (Figure 2 network).
class Decoder {
 public:
  /// Decodes an elementary stream; returns frames in display order.
  [[nodiscard]] std::vector<Frame> decode(std::span<const std::uint8_t> bitstream);

  [[nodiscard]] const SeqHeader& seqHeader() const { return seq_; }
  [[nodiscard]] const std::vector<PictureStats>& pictureStats() const { return stats_; }

 private:
  SeqHeader seq_{};
  std::vector<PictureStats> stats_;
};

}  // namespace eclipse::media
