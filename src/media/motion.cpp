#include "eclipse/media/motion.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "eclipse/media/kernels.hpp"

namespace eclipse::media::motion {

namespace {

int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

std::uint8_t fullPel(const std::vector<std::uint8_t>& plane, int w, int h, int x, int y) {
  x = clampi(x, 0, w - 1);
  y = clampi(y, 0, h - 1);
  return plane[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(x)];
}

/// Top-left full-pel anchor and half-pel fraction of a block read. The
/// window is "fast" (vectorizable) when every sample the interpolator
/// touches — columns [x0, x0+w-1+fx], rows [y0, y0+h-1+fy] — is inside
/// the plane, so the edge clamps in fullPel are all no-ops.
struct Anchor {
  int x0, y0, fx, fy;
  bool fast;
};

Anchor anchorFor(int w, int h, int block_w, int block_h, int cx, int cy) {
  Anchor a{};
  a.x0 = cx >> 1;  // floor division, matching sampleHalfPel's x2 >> 1
  a.y0 = cy >> 1;
  a.fx = cx & 1;
  a.fy = cy & 1;
  a.fast = a.x0 >= 0 && a.y0 >= 0 && a.x0 + block_w - 1 + a.fx < w &&
           a.y0 + block_h - 1 + a.fy < h;
  return a;
}

}  // namespace

std::uint8_t sampleHalfPel(const std::vector<std::uint8_t>& plane, int w, int h, int x2, int y2) {
  const int x = x2 >> 1;
  const int y = y2 >> 1;
  const bool hx = (x2 & 1) != 0;
  const bool hy = (y2 & 1) != 0;
  const int a = fullPel(plane, w, h, x, y);
  if (!hx && !hy) return static_cast<std::uint8_t>(a);
  if (hx && !hy) {
    const int b = fullPel(plane, w, h, x + 1, y);
    return static_cast<std::uint8_t>((a + b + 1) / 2);
  }
  if (!hx) {
    const int b = fullPel(plane, w, h, x, y + 1);
    return static_cast<std::uint8_t>((a + b + 1) / 2);
  }
  const int b = fullPel(plane, w, h, x + 1, y);
  const int c = fullPel(plane, w, h, x, y + 1);
  const int d = fullPel(plane, w, h, x + 1, y + 1);
  return static_cast<std::uint8_t>((a + b + c + d + 2) / 4);
}

void predictLuma(const Frame& ref, int px, int py, MotionVector mv, LumaMb& out) {
  const auto& plane = ref.yPlane();
  const int w = ref.width();
  const int h = ref.height();
  const Anchor a = anchorFor(w, h, kMbSize, kMbSize, 2 * px + mv.x, 2 * py + mv.y);
  if (a.fast) {
    kernels::active().interp_16xh(
        out.data(), kMbSize,
        plane.data() + static_cast<std::ptrdiff_t>(a.y0) * w + a.x0, w, kMbSize, a.fx, a.fy);
    return;
  }
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      out[static_cast<std::size_t>(y * kMbSize + x)] =
          sampleHalfPel(plane, w, h, 2 * (px + x) + mv.x, 2 * (py + y) + mv.y);
    }
  }
}

void predictChroma(const std::vector<std::uint8_t>& plane, int w, int h, int px, int py,
                   MotionVector mv, ChromaMb& out) {
  // MPEG-2: chroma vector = luma vector / 2 (rounding toward zero),
  // still in half-pel units of the chroma grid.
  const int cvx = mv.x / 2;
  const int cvy = mv.y / 2;
  const Anchor a = anchorFor(w, h, 8, 8, 2 * px + cvx, 2 * py + cvy);
  if (a.fast) {
    kernels::active().interp_8xh(
        out.data(), 8, plane.data() + static_cast<std::ptrdiff_t>(a.y0) * w + a.x0, w, 8, a.fx,
        a.fy);
    return;
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      out[static_cast<std::size_t>(y * 8 + x)] =
          sampleHalfPel(plane, w, h, 2 * (px + x) + cvx, 2 * (py + y) + cvy);
    }
  }
}

void average(const LumaMb& a, const LumaMb& b, LumaMb& out) {
  kernels::active().avg_u8(a.data(), b.data(), out.data(), out.size());
}

void average(const ChromaMb& a, const ChromaMb& b, ChromaMb& out) {
  kernels::active().avg_u8(a.data(), b.data(), out.data(), out.size());
}

std::uint32_t sadLuma(const Frame& cur, const Frame& ref, int mb_x, int mb_y, MotionVector mv) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  const auto& rplane = ref.yPlane();
  const int w = ref.width();
  const int h = ref.height();
  const Anchor a = anchorFor(w, h, kMbSize, kMbSize, 2 * px + mv.x, 2 * py + mv.y);
  if (a.fast) {
    return kernels::active().sad_16xh(
        cur.yPlane().data() + static_cast<std::ptrdiff_t>(py) * cur.width() + px, cur.width(),
        rplane.data() + static_cast<std::ptrdiff_t>(a.y0) * w + a.x0, w, kMbSize, a.fx, a.fy);
  }
  std::uint32_t sad = 0;
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      const int c = cur.yAt(px + x, py + y);
      const int p = sampleHalfPel(rplane, w, h, 2 * (px + x) + mv.x, 2 * (py + y) + mv.y);
      sad += static_cast<std::uint32_t>(std::abs(c - p));
    }
  }
  return sad;
}

void gatherClamped(const std::uint8_t* plane, int stride, int width, int height, int x0, int y0,
                   int w, int h, std::uint8_t* out) {
  const bool inside_x = x0 >= 0 && x0 + w <= width;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* src =
        plane + static_cast<std::ptrdiff_t>(clampi(y0 + y, 0, height - 1)) * stride;
    std::uint8_t* dst = out + static_cast<std::ptrdiff_t>(y) * w;
    if (inside_x) {
      std::copy_n(src + x0, w, dst);
      continue;
    }
    for (int x = 0; x < w; ++x) dst[x] = src[clampi(x0 + x, 0, width - 1)];
  }
}

SearchResult searchWindow(const std::uint8_t* cur, int cur_stride, const std::uint8_t* window,
                          const SearchParams& params) {
  const auto sad16 = kernels::active().sad_16xh;
  const int r = params.range;
  const int s = windowSize(r);
  SearchResult best{};
  // Every candidate has |mv| <= 2r+1 half-pels, so the window offset
  // mv + 2(r+1) is >= 1: >>1 is a plain floor and the 16x16 read plus
  // its interpolation column and row stays inside the window.
  auto eval = [&](int mvx, int mvy) {
    const int cx = mvx + 2 * (r + 1);
    const int cy = mvy + 2 * (r + 1);
    ++best.candidates;
    return sad16(cur, cur_stride, window + static_cast<std::ptrdiff_t>(cy >> 1) * s + (cx >> 1), s,
                 kMbSize, cx & 1, cy & 1);
  };
  auto offer = [&](SearchResult& into, int mvx, int mvy) {
    const std::uint32_t sad = eval(mvx, mvy);
    if (sad < into.sad) {
      into.mv = MotionVector{static_cast<std::int16_t>(mvx), static_cast<std::int16_t>(mvy)};
      into.sad = sad;
    }
  };

  best.sad = eval(0, 0);
  if (params.algo == SearchParams::Algo::FullSearch) {
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        if (dx != 0 || dy != 0) offer(best, 2 * dx, 2 * dy);
      }
    }
  } else {
    // Three-step (logarithmic) search at full-pel resolution: each round
    // tries the eight neighbours at `step` around the previous winner.
    int step = 1;
    while (2 * step < r) step *= 2;
    for (; step >= 1; step /= 2) {
      const MotionVector center = best.mv;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int mvx = center.x + 2 * dx * step;
          const int mvy = center.y + 2 * dy * step;
          if (std::abs(mvx) > 2 * r || std::abs(mvy) > 2 * r) continue;
          offer(best, mvx, mvy);
        }
      }
    }
  }

  if (params.half_pel) {
    // All eight half-pel candidates are anchored on the full-pel winner.
    const MotionVector center = best.mv;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx != 0 || dy != 0) offer(best, center.x + dx, center.y + dy);
      }
    }
  }
  return best;
}

SearchResult search(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                    const SearchParams& params) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  const int s = windowSize(params.range);
  thread_local std::vector<std::uint8_t> window;
  window.resize(static_cast<std::size_t>(s) * static_cast<std::size_t>(s));
  gatherClamped(ref.yPlane().data(), ref.width(), ref.width(), ref.height(),
                px - (params.range + 1), py - (params.range + 1), s, s, window.data());
  return searchWindow(cur.yPlane().data() + static_cast<std::ptrdiff_t>(py) * cur.width() + px,
                      cur.width(), window.data(), params);
}

std::uint32_t intraActivity(const Frame& cur, int mb_x, int mb_y) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  const std::uint8_t* mb = cur.yPlane().data() +
                           static_cast<std::ptrdiff_t>(py) * cur.width() + px;
  // SAD against a constant row with ref_stride 0: vs zero it sums the
  // pixels, vs the mean it is exactly the activity sum.
  alignas(16) std::uint8_t row[kMbSize] = {};
  const std::uint32_t sum =
      kernels::active().sad_16xh(mb, cur.width(), row, 0, kMbSize, 0, 0);
  const std::uint32_t mean = sum / 256;
  std::fill(std::begin(row), std::end(row), static_cast<std::uint8_t>(mean));
  return kernels::active().sad_16xh(mb, cur.width(), row, 0, kMbSize, 0, 0);
}

}  // namespace eclipse::media::motion
