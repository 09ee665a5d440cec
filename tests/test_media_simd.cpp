// Differential tests for the SIMD media substrate (DESIGN.md §11): every
// vector backend must be bit-identical to the scalar oracle on every
// kernel, including clamp extremes, frame-border windows, truncated or
// corrupt bitstreams, and the end-to-end decode cycle pin.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/kernels.hpp"
#include "eclipse/media/motion.hpp"
#include "eclipse/media/video_gen.hpp"
#include "eclipse/media/vlc.hpp"
#include "eclipse/sim/prng.hpp"

#include "decode_pin.hpp"

namespace {

using namespace eclipse;
using namespace eclipse::media;
using eclipse::sim::Prng;

namespace k = eclipse::media::kernels;

/// Restores the backend active at construction (tests mutate the global
/// dispatch pointer).
class BackendGuard {
 public:
  BackendGuard() : saved_(k::backend()) {}
  ~BackendGuard() { k::setBackend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  k::Backend saved_;
};

std::vector<k::Backend> simdBackends() {
  std::vector<k::Backend> out;
  for (const auto b : k::availableBackends()) {
    if (b != k::Backend::Scalar) out.push_back(b);
  }
  return out;
}

Block randomBlock(Prng& rng, int magnitude) {
  Block b{};
  for (auto& v : b) {
    v = static_cast<std::int16_t>(static_cast<int>(rng.range(-magnitude, magnitude)));
  }
  return b;
}

Frame noiseFrame(int w, int h, std::uint64_t seed) {
  Frame f(w, h);
  Prng rng(seed);
  for (auto& v : f.yPlane()) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : f.cbPlane()) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : f.crPlane()) v = static_cast<std::uint8_t>(rng.below(256));
  return f;
}

// --------------------------------------------------------------- registry

TEST(SimdRegistry, ScalarAlwaysAvailableAndNamed) {
  const auto avail = k::availableBackends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), k::Backend::Scalar);
  for (const auto b : avail) {
    EXPECT_EQ(k::parseBackendName(k::backendName(b)), b);
  }
  EXPECT_THROW((void)k::parseBackendName("avx512"), std::invalid_argument);
}

TEST(SimdRegistry, SetBackendSwitchesAndUnavailableThrows) {
  BackendGuard guard;
  for (const auto b : k::availableBackends()) {
    k::setBackend(b);
    EXPECT_EQ(k::backend(), b);
    EXPECT_STREQ(k::active().name, k::backendName(b));
  }
  for (int i = 0; i < k::kBackendCount; ++i) {
    const auto b = static_cast<k::Backend>(i);
    if (!k::available(b)) EXPECT_THROW(k::setBackend(b), std::invalid_argument);
  }
}

TEST(SimdRegistry, EnvOverrideSelectsScalar) {
  BackendGuard guard;
  ASSERT_EQ(setenv("ECLIPSE_SIMD", "scalar", 1), 0);
  k::resetBackendFromEnv();
  EXPECT_EQ(k::backend(), k::Backend::Scalar);
  ASSERT_EQ(unsetenv("ECLIPSE_SIMD"), 0);
  k::resetBackendFromEnv();  // back to best-available
  EXPECT_EQ(k::backend(), k::availableBackends().back());
}

// -------------------------------------------------------------- bitreader

TEST(BitReaderMultiBit, PeekIsNonConsumingAndZeroPadded) {
  const std::vector<std::uint8_t> bytes{0xA5, 0x3C};
  BitReader br(bytes);
  EXPECT_EQ(br.peekBits(8), 0xA5u);
  EXPECT_EQ(br.peekBits(16), 0xA53Cu);
  EXPECT_EQ(br.peekBits(0), 0u);
  EXPECT_EQ(br.bitPosition(), 0u);
  // Past-the-end bits read as zero.
  EXPECT_EQ(br.peekBits(32), 0xA53C0000u);
  br.skipBits(4);
  EXPECT_EQ(br.peekBits(8), 0x53u);
  EXPECT_EQ(br.bitPosition(), 4u);
}

TEST(BitReaderMultiBit, GetMatchesBitAtATime) {
  Prng rng(0xB17Eull);
  std::vector<std::uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  BitReader a(bytes);
  BitReader b(bytes);
  Prng widths(7);
  while (a.bitsRemaining() >= 32) {
    const int n = static_cast<int>(widths.range(0, 32));
    std::uint32_t ref = 0;
    for (int i = 0; i < n; ++i) ref = (ref << 1) | b.getBit();
    EXPECT_EQ(a.get(n), ref);
    EXPECT_EQ(a.bitPosition(), b.bitPosition());
  }
}

TEST(BitReaderMultiBit, GetPastEndThrowsAtEndPosition) {
  const std::vector<std::uint8_t> bytes{0xFF};
  BitReader br(bytes);
  (void)br.get(5);
  EXPECT_THROW((void)br.get(7), BitstreamError);
  EXPECT_EQ(br.bitPosition(), 8u);  // parked at end, like bit-at-a-time reads
  EXPECT_TRUE(br.exhausted());
}

// ------------------------------------------------------------ block kernels

TEST(SimdBlocks, DctMatchesScalarIncludingClampExtremes) {
  Prng rng(0xDC7ull);
  std::vector<Block> inputs;
  for (int i = 0; i < 500; ++i) inputs.push_back(randomBlock(rng, 255));
  for (int i = 0; i < 500; ++i) inputs.push_back(randomBlock(rng, 32767));
  Block extreme{};
  extreme.fill(32767);
  inputs.push_back(extreme);
  extreme.fill(-32768);
  inputs.push_back(extreme);

  BackendGuard guard;
  for (const auto b : simdBackends()) {
    for (const auto& in : inputs) {
      Block want_f, want_i, got_f, got_i;
      k::setBackend(k::Backend::Scalar);
      k::active().dct_forward(in, want_f);
      k::active().dct_inverse(in, want_i);
      k::setBackend(b);
      k::active().dct_forward(in, got_f);
      k::active().dct_inverse(in, got_i);
      ASSERT_EQ(got_f, want_f) << "forward, backend " << k::backendName(b);
      ASSERT_EQ(got_i, want_i) << "inverse, backend " << k::backendName(b);
    }
  }
}

TEST(SimdBlocks, QuantDequantMatchScalarForAllQscales) {
  Prng rng(0x9A57ull);
  BackendGuard guard;
  const quant::Matrix* mats[] = {&quant::flatMatrix(), &quant::defaultIntraMatrix()};
  for (const auto b : simdBackends()) {
    for (int qscale = 1; qscale <= 31; ++qscale) {
      for (const auto* m : mats) {
        for (int rep = 0; rep < 40; ++rep) {
          const Block coefs = randomBlock(rng, rep % 2 == 0 ? 2048 : 32767);
          const Block levels = randomBlock(rng, 2047);
          Block want_q, want_d, got_q, got_d;
          k::setBackend(k::Backend::Scalar);
          k::active().quantize(coefs, want_q, qscale, *m);
          k::active().dequantize(levels, want_d, qscale, *m);
          k::setBackend(b);
          k::active().quantize(coefs, got_q, qscale, *m);
          k::active().dequantize(levels, got_d, qscale, *m);
          ASSERT_EQ(got_q, want_q) << "quantize q=" << qscale << " " << k::backendName(b);
          ASSERT_EQ(got_d, want_d) << "dequantize q=" << qscale << " " << k::backendName(b);
        }
      }
    }
  }
}

TEST(SimdBlocks, ScanAndRleMatchScalar) {
  Prng rng(0x5CA2ull);
  BackendGuard guard;
  for (const auto b : simdBackends()) {
    for (int rep = 0; rep < 300; ++rep) {
      Block in = randomBlock(rng, 32767);
      if (rep == 0) in.fill(0);            // zero-length-run edge: empty RLE
      if (rep == 1) in.fill(1);            // fully dense block
      if (rep % 3 == 0) {
        // Sparse block: mostly zeros, the common case after quantization.
        for (auto& v : in) {
          if (rng.below(4) != 0) v = 0;
        }
      }
      for (const auto order : {scan::Order::Zigzag, scan::Order::Alternate}) {
        Block want_s, got_s, want_r, got_r;
        std::vector<rle::RunLevel> want_p, got_p;
        k::setBackend(k::Backend::Scalar);
        k::active().to_scan(in, want_s, order);
        k::active().from_scan(in, want_r, order);
        k::active().rle_encode(in, want_p);
        k::setBackend(b);
        k::active().to_scan(in, got_s, order);
        k::active().from_scan(in, got_r, order);
        k::active().rle_encode(in, got_p);
        ASSERT_EQ(got_s, want_s) << "to_scan " << k::backendName(b);
        ASSERT_EQ(got_r, want_r) << "from_scan " << k::backendName(b);
        ASSERT_EQ(got_p.size(), want_p.size()) << "rle " << k::backendName(b);
        for (std::size_t i = 0; i < want_p.size(); ++i) {
          ASSERT_EQ(got_p[i].run, want_p[i].run);
          ASSERT_EQ(got_p[i].level, want_p[i].level);
        }
      }
    }
  }
}

// ------------------------------------------------------------ pixel kernels

TEST(SimdPixels, SadAndInterpMatchScalarOnRawBuffers) {
  Prng rng(0x5ADull);
  constexpr int kW = 40, kH = 24;  // strides wider than the block
  std::vector<std::uint8_t> ref(kW * kH), cur(kW * kH);
  for (auto& v : ref) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : cur) v = static_cast<std::uint8_t>(rng.below(256));

  BackendGuard guard;
  for (const auto b : simdBackends()) {
    for (int fy = 0; fy <= 1; ++fy) {
      for (int fx = 0; fx <= 1; ++fx) {
        for (const int h : {1, 3, 7, 8, 15, 16}) {  // odd heights hit tails
          std::vector<std::uint8_t> want16(16 * h), got16(16 * h);
          std::vector<std::uint8_t> want8(8 * h), got8(8 * h);
          k::setBackend(k::Backend::Scalar);
          const auto want_sad = k::active().sad_16xh(cur.data(), kW, ref.data(), kW, h, fx, fy);
          k::active().interp_16xh(want16.data(), 16, ref.data(), kW, h, fx, fy);
          k::active().interp_8xh(want8.data(), 8, ref.data(), kW, h, fx, fy);
          k::setBackend(b);
          const auto got_sad = k::active().sad_16xh(cur.data(), kW, ref.data(), kW, h, fx, fy);
          k::active().interp_16xh(got16.data(), 16, ref.data(), kW, h, fx, fy);
          k::active().interp_8xh(got8.data(), 8, ref.data(), kW, h, fx, fy);
          ASSERT_EQ(got_sad, want_sad)
              << k::backendName(b) << " h=" << h << " fx=" << fx << " fy=" << fy;
          ASSERT_EQ(got16, want16) << k::backendName(b) << " h=" << h;
          ASSERT_EQ(got8, want8) << k::backendName(b) << " h=" << h;
        }
      }
    }
  }
}

TEST(SimdPixels, AvgDiffAddResClampMatchScalar) {
  Prng rng(0xAD2ull);
  BackendGuard guard;
  std::vector<std::uint8_t> a(257), c(257);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : c) v = static_cast<std::uint8_t>(rng.below(256));
  std::array<std::int16_t, 64> res{};
  for (auto& v : res) v = static_cast<std::int16_t>(static_cast<int>(rng.range(-32768, 32767)));
  std::vector<std::int32_t> wide(100);
  for (auto& v : wide) v = static_cast<std::int32_t>(rng.range(-5000, 5000));

  for (const auto b : simdBackends()) {
    for (const std::size_t n : {1u, 7u, 16u, 63u, 255u, 257u}) {  // odd tails
      std::vector<std::uint8_t> want(n), got(n);
      k::setBackend(k::Backend::Scalar);
      k::active().avg_u8(a.data(), c.data(), want.data(), n);
      k::setBackend(b);
      k::active().avg_u8(a.data(), c.data(), got.data(), n);
      ASSERT_EQ(got, want) << "avg_u8 n=" << n << " " << k::backendName(b);
    }
    std::array<std::uint8_t, 256> want_px{}, got_px{};
    std::array<std::int16_t, 64> want_res{}, got_res{};
    std::vector<std::uint8_t> want_row(wide.size()), got_row(wide.size());
    k::setBackend(k::Backend::Scalar);
    k::active().add_res_8x8(want_px.data(), 16, a.data(), 16, res.data());
    k::active().diff_8x8(want_res.data(), c.data(), 16, a.data(), 16);
    k::active().clamp_store_row(wide.data(), want_row.data(), wide.size());
    k::setBackend(b);
    k::active().add_res_8x8(got_px.data(), 16, a.data(), 16, res.data());
    k::active().diff_8x8(got_res.data(), c.data(), 16, a.data(), 16);
    k::active().clamp_store_row(wide.data(), got_row.data(), wide.size());
    ASSERT_EQ(got_px, want_px) << "add_res_8x8 " << k::backendName(b);
    ASSERT_EQ(got_res, want_res) << "diff_8x8 " << k::backendName(b);
    ASSERT_EQ(got_row, want_row) << "clamp_store_row " << k::backendName(b);
  }
}

TEST(SimdPixels, MotionApiMatchesScalarIncludingFrameBorders) {
  const Frame cur = noiseFrame(64, 48, 11);
  const Frame ref = noiseFrame(64, 48, 22);
  // Vectors that keep the window inside, straddle the edge, and leave the
  // frame entirely (fully clamped), at all half-pel phases.
  std::vector<MotionVector> mvs;
  for (const int v : {-70, -33, -17, -2, -1, 0, 1, 2, 15, 31, 64, 90}) {
    mvs.push_back({static_cast<std::int16_t>(v), static_cast<std::int16_t>(-v / 2)});
    mvs.push_back({static_cast<std::int16_t>(v / 3), static_cast<std::int16_t>(v)});
  }

  BackendGuard guard;
  for (const auto b : simdBackends()) {
    for (int mb_y = 0; mb_y < 3; ++mb_y) {
      for (int mb_x = 0; mb_x < 4; ++mb_x) {
        for (const auto mv : mvs) {
          motion::LumaMb want_l{}, got_l{};
          motion::ChromaMb want_c{}, got_c{};
          k::setBackend(k::Backend::Scalar);
          const auto want_sad = motion::sadLuma(cur, ref, mb_x, mb_y, mv);
          motion::predictLuma(ref, mb_x * 16, mb_y * 16, mv, want_l);
          motion::predictChroma(ref.cbPlane(), 32, 24, mb_x * 8, mb_y * 8, mv, want_c);
          const auto want_act = motion::intraActivity(cur, mb_x, mb_y);
          k::setBackend(b);
          const auto got_sad = motion::sadLuma(cur, ref, mb_x, mb_y, mv);
          motion::predictLuma(ref, mb_x * 16, mb_y * 16, mv, got_l);
          motion::predictChroma(ref.cbPlane(), 32, 24, mb_x * 8, mb_y * 8, mv, got_c);
          const auto got_act = motion::intraActivity(cur, mb_x, mb_y);
          ASSERT_EQ(got_sad, want_sad) << k::backendName(b) << " mv=(" << mv.x << "," << mv.y
                                       << ") mb=(" << mb_x << "," << mb_y << ")";
          ASSERT_EQ(got_l, want_l) << k::backendName(b);
          ASSERT_EQ(got_c, want_c) << k::backendName(b);
          ASSERT_EQ(got_act, want_act) << k::backendName(b);
        }
      }
    }
  }
}

// The motion search as it was before the window search: every candidate
// re-clamped through motion::sadLuma. Kept here as the reference that the
// one-window search must reproduce vector for vector.
motion::SearchResult perCandidateSearch(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                                        const motion::SearchParams& params) {
  int candidates = 0;
  auto sad = [&](int mvx, int mvy) {
    ++candidates;
    return motion::sadLuma(cur, ref, mb_x, mb_y,
                           MotionVector{static_cast<std::int16_t>(mvx),
                                        static_cast<std::int16_t>(mvy)});
  };
  auto offer = [&](motion::SearchResult& into, int mvx, int mvy) {
    const std::uint32_t s = sad(mvx, mvy);
    if (s < into.sad) {
      into.mv = MotionVector{static_cast<std::int16_t>(mvx), static_cast<std::int16_t>(mvy)};
      into.sad = s;
    }
  };
  motion::SearchResult best{MotionVector{0, 0}, sad(0, 0)};
  if (params.algo == motion::SearchParams::Algo::FullSearch) {
    for (int dy = -params.range; dy <= params.range; ++dy) {
      for (int dx = -params.range; dx <= params.range; ++dx) {
        if (dx != 0 || dy != 0) offer(best, 2 * dx, 2 * dy);
      }
    }
  } else {
    int step = 1;
    while (2 * step < params.range) step *= 2;
    MotionVector center{0, 0};
    while (step >= 1) {
      motion::SearchResult round_best = best;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int mvx = center.x + 2 * dx * step;
          const int mvy = center.y + 2 * dy * step;
          if (std::abs(mvx) > 2 * params.range || std::abs(mvy) > 2 * params.range) continue;
          offer(round_best, mvx, mvy);
        }
      }
      best = round_best;
      center = best.mv;
      step /= 2;
    }
  }
  if (params.half_pel) {
    const MotionVector center = best.mv;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx != 0 || dy != 0) offer(best, center.x + dx, center.y + dy);
      }
    }
  }
  best.candidates = candidates;
  return best;
}

TEST(SimdMotion, WindowSearchMatchesPerCandidateSearch) {
  struct Case {
    int w, h;
  };
  BackendGuard guard;
  std::vector<k::Backend> backends = simdBackends();
  backends.insert(backends.begin(), k::Backend::Scalar);
  for (const Case c : {Case{32, 32}, Case{48, 64}, Case{176, 144}}) {
    // Textured frames with global and object motion (ties are rare), and a
    // flat pair (every candidate ties, so the preference order decides).
    VideoGenParams vp;
    vp.width = c.w;
    vp.height = c.h;
    vp.seed = static_cast<std::uint64_t>(c.w * 7 + c.h);
    vp.motion_speed = 4;
    vp.detail = 5;
    vp.noise_level = 3.0;
    const std::vector<std::pair<Frame, Frame>> pairs = {
        {generateFrame(vp, 2), generateFrame(vp, 0)},
        {noiseFrame(c.w, c.h, 5), noiseFrame(c.w, c.h, 6)},
        {Frame(c.w, c.h), Frame(c.w, c.h)}};
    const int mbs_x = c.w / kMbSize;
    const int mbs_y = c.h / kMbSize;
    for (const auto& [cur, ref] : pairs) {
      for (const int range : {1, 4, 8, 15}) {
        for (const auto algo :
             {motion::SearchParams::Algo::FullSearch, motion::SearchParams::Algo::ThreeStep}) {
          for (const bool half_pel : {false, true}) {
            const motion::SearchParams sp{range, half_pel, algo};
            for (int mb_y = 0; mb_y < mbs_y; ++mb_y) {
              for (int mb_x = 0; mb_x < mbs_x; ++mb_x) {
                const bool edge =
                    mb_x == 0 || mb_y == 0 || mb_x == mbs_x - 1 || mb_y == mbs_y - 1;
                if (!edge && (mb_x != mbs_x / 2 || mb_y != mbs_y / 2)) continue;
                k::setBackend(k::Backend::Scalar);
                const auto want = perCandidateSearch(cur, ref, mb_x, mb_y, sp);
                for (const auto b : backends) {
                  k::setBackend(b);
                  const auto got = motion::search(cur, ref, mb_x, mb_y, sp);
                  const auto where = ::testing::Message()
                                     << k::backendName(b) << " " << c.w << "x" << c.h
                                     << " range=" << range << " three_step="
                                     << (algo == motion::SearchParams::Algo::ThreeStep)
                                     << " half_pel=" << half_pel << " mb=(" << mb_x << ","
                                     << mb_y << ")";
                  ASSERT_EQ(got.mv, want.mv) << where;
                  ASSERT_EQ(got.sad, want.sad) << where;
                  ASSERT_EQ(got.candidates, want.candidates) << where;
                }
              }
            }
          }
        }
      }
    }
  }
}

// -------------------------------------------------------------- clip pin

// Extends the FNV-1a 64 hash `h` with `bytes`.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t framesHash(const std::vector<Frame>& frames) {
  std::uint64_t h = kFnvOffset;
  for (const Frame& f : frames) {
    h = fnv1a(h, f.yPlane());
    h = fnv1a(h, f.cbPlane());
    h = fnv1a(h, f.crPlane());
  }
  return h;
}

struct ClipCase {
  VideoGenParams video;
  motion::SearchParams search;
  std::uint64_t frames_hash;
  std::uint64_t bitstream_hash;
};

VideoGenParams clipVideo(int w, int h, int frames, std::uint64_t seed, int detail, double noise,
                         int scene_cut_period) {
  VideoGenParams vp;
  vp.width = w;
  vp.height = h;
  vp.frames = frames;
  vp.seed = seed;
  vp.detail = detail;
  vp.noise_level = noise;
  vp.motion_speed = 3;
  vp.scene_cut_period = scene_cut_period;
  return vp;
}

// Generated clips and their bitstreams, pinned to hashes captured before
// the window motion search and the separable background synthesis: every
// frame the generator makes and every bit the encoder writes must stay
// identical, under every backend. Covers flat and textured backgrounds,
// noise, scene cuts, both search algorithms, ranges 4 to 15 and half-pel
// on and off.
TEST(SimdClipPin, GeneratedVideoAndBitstreamHashesHold) {
  using Algo = motion::SearchParams::Algo;
  const std::vector<ClipCase> cases = {
      {clipVideo(64, 48, 6, 2, 0, 0.0, 0), {8, true, Algo::FullSearch}, 0x2dfe363e2152ebe7ull, 0x1021504e51889a67ull},
      {clipVideo(176, 144, 9, 5, 3, 6.0, 4), {15, true, Algo::ThreeStep}, 0xba7e0590fb82a6eaull, 0x279d6c170663075full},
      {clipVideo(96, 80, 7, 3, 8, 0.0, 0), {4, false, Algo::FullSearch}, 0x89b89e54db651632ull, 0xcc1e7d7d67488da8ull},
      {clipVideo(112, 96, 9, 9, 8, 6.0, 5), {15, true, Algo::FullSearch}, 0xe0f9d28515656ffbull, 0x653afc7e8bd5ee36ull},
      {clipVideo(352, 288, 4, 1, 3, 2.0, 0), {8, true, Algo::FullSearch}, 0x9fc56896fbac4dc4ull, 0x46af29f75e507cdfull},
  };

  BackendGuard guard;
  for (const auto b : k::availableBackends()) {
    k::setBackend(b);
    for (const ClipCase& c : cases) {
      const auto frames = generateVideo(c.video);
      CodecParams cp;
      cp.width = c.video.width;
      cp.height = c.video.height;
      cp.search = c.search;
      Encoder enc(cp);
      const auto bitstream = enc.encode(frames);
      const auto where = ::testing::Message() << k::backendName(b) << " " << c.video.width << "x"
                                              << c.video.height << " seed=" << c.video.seed;
      EXPECT_EQ(framesHash(frames), c.frames_hash) << where;
      EXPECT_EQ(fnv1a(kFnvOffset, bitstream), c.bitstream_hash) << where;
    }
  }
}

// --------------------------------------------------------------------- vlc

struct VlcOutcome {
  bool threw = false;
  std::string what;
  std::vector<rle::RunLevel> pairs;
  std::size_t end_pos = 0;

  bool operator==(const VlcOutcome& o) const {
    if (threw != o.threw || what != o.what || end_pos != o.end_pos ||
        pairs.size() != o.pairs.size()) {
      return false;
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].run != o.pairs[i].run || pairs[i].level != o.pairs[i].level) return false;
    }
    return true;
  }
};

VlcOutcome decodeWith(k::Backend b, const std::vector<std::uint8_t>& bytes) {
  BackendGuard guard;
  k::setBackend(b);
  BitReader br(bytes);
  VlcOutcome o;
  try {
    o.pairs = vlc::getBlock(br);
  } catch (const std::exception& e) {
    o.threw = true;
    o.what = e.what();
  }
  o.end_pos = br.bitPosition();  // fault recovery resyncs from here
  return o;
}

TEST(SimdVlc, RoundTripMatchesScalarOnValidStreams) {
  Prng rng(0x1Cull);
  for (int rep = 0; rep < 400; ++rep) {
    // Random pair list spanning common and escape symbols.
    std::vector<rle::RunLevel> pairs;
    const int n = static_cast<int>(rng.below(12));
    for (int i = 0; i < n; ++i) {
      const int run = static_cast<int>(rng.below(rng.chance(0.8) ? 4 : 64));
      int level = static_cast<int>(rng.range(1, rng.chance(0.8) ? 4 : 32767));
      if (rng.chance(0.5)) level = -level;
      pairs.push_back(rle::RunLevel{static_cast<std::uint8_t>(run),
                                    static_cast<std::int16_t>(level)});
    }
    BitWriter bw;
    vlc::putBlock(bw, pairs);
    if (rng.chance(0.5)) bw.put(0x2A, 7);  // trailing bits must be untouched
    const auto bytes = bw.finish();

    const VlcOutcome want = decodeWith(k::Backend::Scalar, bytes);
    ASSERT_FALSE(want.threw);
    ASSERT_EQ(want.pairs.size(), pairs.size());
    for (const auto b : simdBackends()) {
      const VlcOutcome got = decodeWith(b, bytes);
      ASSERT_TRUE(got == want) << k::backendName(b) << " rep=" << rep;
    }
  }
}

TEST(SimdVlc, CorruptAndTruncatedStreamsMatchScalarExactly) {
  Prng rng(0xBADull);
  for (int rep = 0; rep < 600; ++rep) {
    std::vector<std::uint8_t> bytes(rng.below(40));
    for (auto& v : bytes) v = static_cast<std::uint8_t>(rng.below(256));
    // Bias some cases toward long zero runs (malformed Exp-Golomb) and
    // all-ones (escape floods).
    if (rep % 5 == 0) std::fill(bytes.begin(), bytes.end(), 0x00);
    if (rep % 7 == 0) std::fill(bytes.begin(), bytes.end(), 0xFF);

    const VlcOutcome want = decodeWith(k::Backend::Scalar, bytes);
    for (const auto b : simdBackends()) {
      const VlcOutcome got = decodeWith(b, bytes);
      ASSERT_TRUE(got == want) << k::backendName(b) << " rep=" << rep << " threw=" << want.threw
                               << " what=" << want.what << "/" << got.what << " pos="
                               << want.end_pos << "/" << got.end_pos;
    }
  }
}

// -------------------------------------------------------------- decode pin

TEST(SimdDecodePin, CyclePinHoldsUnderEveryBackend) {
  VideoGenParams vp;
  vp.width = 96;
  vp.height = 80;
  vp.frames = 5;
  vp.seed = 3;
  vp.detail = 8;
  vp.noise_level = 0.0;
  vp.motion_speed = 4;
  CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  cp.qscale = 14;
  cp.gop = {9, 3};

  BackendGuard guard;
  for (const auto b : k::availableBackends()) {
    k::setBackend(b);
    // Re-generate and re-encode under this backend too: the whole producer
    // side must be bit-identical for the pinned stream to even exist.
    const auto frames = generateVideo(vp);
    Encoder enc(cp);
    const auto bitstream = enc.encode(frames);

    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bitstream);
    const sim::Cycle cycles = inst.run();
    ASSERT_TRUE(dec.done()) << k::backendName(b);
    EXPECT_EQ(cycles, pin::kDecodePinCycles) << k::backendName(b);
    EXPECT_EQ(inst.simulator().eventsDispatched(), pin::kDecodePinEvents) << k::backendName(b);
    EXPECT_EQ(dec.macroblocksDecoded(), pin::kDecodePinMacroblocks) << k::backendName(b);
  }
}

}  // namespace
