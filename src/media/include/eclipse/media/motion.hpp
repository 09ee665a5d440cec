#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "eclipse/media/types.hpp"

namespace eclipse::media::motion {

/// 16x16 luma prediction samples.
using LumaMb = std::array<std::uint8_t, 256>;
/// 8x8 chroma prediction samples.
using ChromaMb = std::array<std::uint8_t, 64>;

/// Motion-search configuration. Vectors are found at full-pel resolution
/// within ±range and optionally refined to half-pel (MPEG-2 style).
struct SearchParams {
  int range = 8;
  bool half_pel = true;
  enum class Algo { FullSearch, ThreeStep } algo = Algo::FullSearch;
};

/// Samples one plane at a half-pel position with bilinear interpolation and
/// edge clamping. (x2, y2) are in half-pel units.
[[nodiscard]] std::uint8_t sampleHalfPel(const std::vector<std::uint8_t>& plane, int w, int h,
                                         int x2, int y2);

/// Fetches the 16x16 luma prediction for the macroblock at pixel position
/// (px, py), displaced by `mv` (half-pel units).
void predictLuma(const Frame& ref, int px, int py, MotionVector mv, LumaMb& out);

/// Fetches an 8x8 chroma prediction; the luma vector is halved per MPEG-2.
void predictChroma(const std::vector<std::uint8_t>& plane, int w, int h, int px, int py,
                   MotionVector mv, ChromaMb& out);

/// Averages two predictions with rounding (bidirectional mode).
void average(const LumaMb& a, const LumaMb& b, LumaMb& out);
void average(const ChromaMb& a, const ChromaMb& b, ChromaMb& out);

/// Sum of absolute differences between the current frame's macroblock at
/// (mb_x, mb_y) and the reference displaced by `mv`.
[[nodiscard]] std::uint32_t sadLuma(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                                    MotionVector mv);

/// Result of a motion search.
struct SearchResult {
  MotionVector mv;
  std::uint32_t sad = 0;
  int candidates = 0;  ///< SAD evaluations the search made
};

/// Edge of the square reference window a ±range search reads: the full-pel
/// candidates, the half-pel refinement around them and the interpolator's
/// extra row and column.
[[nodiscard]] constexpr int windowSize(int range) { return 2 * range + 19; }

/// Copies the w x h region whose top-left is (x0, y0) out of a plane of
/// width x height samples (row pitch `stride`) into `out` (row pitch w).
/// Samples outside the plane replicate its edges, which is exactly the
/// full-pel clamping of sampleHalfPel; rows that need no horizontal clamp
/// are one copy.
void gatherClamped(const std::uint8_t* plane, int stride, int width, int height, int x0, int y0,
                   int w, int h, std::uint8_t* out);

/// Searches one macroblock (16x16 samples at `cur`, row pitch `cur_stride`)
/// over a windowSize(params.range)-square window gathered with its top-left
/// at range+1 samples above and left of the macroblock. Every candidate is
/// one SAD on the active kernel backend; the zero vector goes first, so it
/// wins ties.
[[nodiscard]] SearchResult searchWindow(const std::uint8_t* cur, int cur_stride,
                                        const std::uint8_t* window, const SearchParams& params);

/// Finds the best-matching vector for the macroblock at (mb_x, mb_y): one
/// clamped window gather, then searchWindow.
[[nodiscard]] SearchResult search(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                                  const SearchParams& params);

/// Mean absolute deviation of the macroblock from its own mean — the
/// classic intra/inter decision activity measure.
[[nodiscard]] std::uint32_t intraActivity(const Frame& cur, int mb_x, int mb_y);

}  // namespace eclipse::media::motion
