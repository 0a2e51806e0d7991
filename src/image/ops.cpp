#include "image/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#ifdef __AVX512F__
#include <immintrin.h>
#endif

namespace ffsva::image {

Image to_gray(const Image& src) {
  if (src.channels() == 1) return src;
  Image out(src.width(), src.height(), 1);
  const std::uint8_t* in = src.data();
  std::uint8_t* o = out.data();
  const std::size_t n = static_cast<std::size_t>(src.width()) * src.height();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* p = in + i * 3;
    // BT.601: 0.299 R + 0.587 G + 0.114 B, in 8.8 fixed point.
    o[i] = static_cast<std::uint8_t>((77 * p[0] + 150 * p[1] + 29 * p[2]) >> 8);
  }
  return out;
}

namespace {
/// One axis of the plan: center-aligned sample positions, clamped taps.
void build_axis(int src, int out, std::vector<std::int32_t>& i0,
                std::vector<std::int32_t>& i1, std::vector<std::int32_t>& w) {
  i0.resize(static_cast<std::size_t>(out));
  i1.resize(static_cast<std::size_t>(out));
  w.resize(static_cast<std::size_t>(out));
  const double scale = static_cast<double>(src) / out;
  constexpr double kOne = 1 << ResizePlan::kWeightBits;
  for (int i = 0; i < out; ++i) {
    const double f = (i + 0.5) * scale - 0.5;
    const int a = std::clamp(static_cast<int>(std::floor(f)), 0, src - 1);
    i0[static_cast<std::size_t>(i)] = a;
    i1[static_cast<std::size_t>(i)] = std::min(a + 1, src - 1);
    w[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(std::lround(std::clamp(f - a, 0.0, 1.0) * kOne));
  }
}

/// Blend-row lanes two AVX-512 loads put in reach; the row is padded by it.
constexpr int kWindow = 32;

#ifdef __AVX512F__
constexpr int kVecLanes = 16;  ///< int32 lanes per vector.

/// The 3-channel column groups of `plan` (see ResizePlan::group): the
/// largest g <= 5 whose every group's taps fit one window. g = 1 always
/// fits, since a pixel's taps are at most one source pixel apart.
void build_groups(ResizePlan& plan) {
  const auto at = [](const std::vector<std::int32_t>& v, int i) {
    return v[static_cast<std::size_t>(i)];
  };
  const auto fits = [&](int g) {
    for (int p = 0; p < plan.out_w; p += g) {
      const int last = std::min(p + g, plan.out_w) - 1;
      if ((at(plan.x1, last) - at(plan.x0, p)) * 3 + 2 >= kWindow) return false;
    }
    return true;
  };
  int g = kVecLanes / 3;
  while (!fits(g)) --g;
  const int groups = (plan.out_w + g - 1) / g;
  plan.group = g;
  const auto lanes = static_cast<std::size_t>(groups) * kVecLanes;
  plan.g_base.assign(static_cast<std::size_t>(groups), 0);
  plan.g_a.assign(lanes, 0);  // Unused lanes read window lane 0 with weight 0.
  plan.g_b.assign(lanes, 0);
  plan.g_w.assign(lanes, 0);
  for (int k = 0; k < groups; ++k) {
    const int base = at(plan.x0, k * g) * 3;
    plan.g_base[static_cast<std::size_t>(k)] = base;
    for (int p = k * g; p < std::min(k * g + g, plan.out_w); ++p) {
      for (int ch = 0; ch < 3; ++ch) {
        const auto lane =
            static_cast<std::size_t>(k * kVecLanes + (p - k * g) * 3 + ch);
        plan.g_a[lane] = at(plan.x0, p) * 3 + ch - base;
        plan.g_b[lane] = at(plan.x1, p) * 3 + ch - base;
        plan.g_w[lane] = at(plan.wx, p);
      }
    }
  }
}
#endif
}  // namespace

void ResizePlan::ensure(int src_width, int src_height, int out_width,
                        int out_height) {
  if (src_width <= 0 || src_height <= 0 || out_width <= 0 || out_height <= 0) {
    // A truncated decode can hand the detectors a zero-size frame; without
    // this check build_axis clamps with lo > hi (UB) and the resize reads
    // an empty pixel buffer. Throwing turns garbage input into a clean
    // per-frame failure the engine's degrade policy can absorb.
    throw std::invalid_argument("ResizePlan: empty source or output image");
  }
  if (src_w == src_width && src_h == src_height && out_w == out_width &&
      out_h == out_height) {
    return;
  }
  src_w = src_width;
  src_h = src_height;
  out_w = out_width;
  out_h = out_height;
  build_axis(src_w, out_w, x0, x1, wx);
  build_axis(src_h, out_h, y0, y1, wy);
#ifdef __AVX512F__
  build_groups(*this);
#endif
}

namespace {
/// One output row of the Q11 bilinear resize from `blend`, the two source
/// rows already lerped vertically (Q11), with the channel count fixed at
/// compile time so the inner channel loop unrolls.
template <int C>
void resize_row(const std::int32_t* blend, const ResizePlan& plan, std::uint8_t* out) {
  constexpr int kOne = 1 << ResizePlan::kWeightBits;
  // Rounding applied once after both lerps: the Q22 sum fits int32
  // (255 * 2048 * 2048 + 2^21 < 2^31).
  constexpr int kHalf = 1 << (2 * ResizePlan::kWeightBits - 1);
  for (int x = 0; x < plan.out_w; ++x) {
    const int xa = plan.x0[static_cast<std::size_t>(x)] * C;
    const int xb = plan.x1[static_cast<std::size_t>(x)] * C;
    const int vx = plan.wx[static_cast<std::size_t>(x)];
    const int ux = kOne - vx;
    for (int ch = 0; ch < C; ++ch) {
      out[x * C + ch] = static_cast<std::uint8_t>(
          (blend[xa + ch] * ux + blend[xb + ch] * vx + kHalf) >>
          (2 * ResizePlan::kWeightBits));
    }
  }
}

#ifdef __AVX512F__
/// Lanes with GCC/Clang vector operators, so the arithmetic reads as the
/// formula and the narrowing is one __builtin_convertvector.
using I32x16 = std::int32_t __attribute__((vector_size(64)));
using U8x16 = std::uint8_t __attribute__((vector_size(16)));

/// resize_row<3> from the plan's column groups, byte-identical: per group
/// two window loads, two permutes, then (a << 11) + (b - a) * w, which is
/// a * ux + b * vx exactly. `blend` carries kWindow lanes of padding. A
/// group's 16 bytes are stored whole while they end inside the row; the
/// last groups copy only their own bytes, so nothing lands past the row.
void resize_row_rgb(const std::int32_t* blend, const ResizePlan& plan,
                    std::uint8_t* out) {
  constexpr int kBits = ResizePlan::kWeightBits;
  constexpr int kHalf = 1 << (2 * kBits - 1);
  // Table pointers held in locals: `out` may alias anything, so members
  // would be reloaded after every store.
  const std::int32_t* base = plan.g_base.data();
  const std::int32_t* ia = plan.g_a.data();
  const std::int32_t* ib = plan.g_b.data();
  const std::int32_t* wx = plan.g_w.data();
  const auto group = [&](std::size_t k) {
    const std::int32_t* win = blend + base[k];
    const __m512i lo = _mm512_loadu_si512(win);
    const __m512i hi = _mm512_loadu_si512(win + kVecLanes);
    const std::size_t at = k * kVecLanes;
    const auto tap = [&](const std::int32_t* index) {
      return I32x16(_mm512_permutex2var_epi32(lo, _mm512_loadu_si512(index + at), hi));
    };
    const I32x16 a = tap(ia), b = tap(ib);
    const auto w = I32x16(_mm512_loadu_si512(wx + at));
    return __builtin_convertvector(
        ((a << kBits) + (b - a) * w + kHalf) >> (2 * kBits), U8x16);
  };
  const auto groups = plan.g_base.size();
  const int step = 3 * plan.group;
  const int row_bytes = 3 * plan.out_w;
  std::size_t k = 0;
  for (; k < groups && step * static_cast<int>(k) + kVecLanes <= row_bytes; ++k) {
    const U8x16 px = group(k);
    std::memcpy(out + k * step, &px, sizeof px);
  }
  for (; k < groups; ++k) {
    const U8x16 px = group(k);
    const int at = step * static_cast<int>(k);
    const int bytes = std::min(step, row_bytes - at);
    std::memcpy(out + at, &px, static_cast<std::size_t>(bytes));
  }
}
#endif
}  // namespace

void resize_bilinear_into(const Image& src, const ResizePlan& plan, Image& dst) {
  dst.reset(plan.out_w, plan.out_h, src.channels());
  const int c = src.channels();
  const std::size_t row_stride = static_cast<std::size_t>(plan.src_w) * c;
  // Vertical lerp first, into one row: in integers,
  // (r0a*ux + r0b*vx)*uy + (r1a*ux + r1b*vx)*vy
  //   == (r0a*uy + r1a*vy)*ux + (r0b*uy + r1b*vy)*vx
  // exactly, so the horizontal-first result is unchanged.
  static thread_local std::vector<std::int32_t> blend;
  blend.resize(row_stride + kWindow);
  std::int32_t* b = blend.data();
  constexpr int kOne = 1 << ResizePlan::kWeightBits;
  for (int y = 0; y < plan.out_h; ++y) {
    const auto yi = static_cast<std::size_t>(y);
    const std::uint8_t* r0 = src.data() + plan.y0[yi] * row_stride;
    const std::uint8_t* r1 = src.data() + plan.y1[yi] * row_stride;
    const int vy = plan.wy[yi];
    const int uy = kOne - vy;
    for (std::size_t i = 0; i < row_stride; ++i) b[i] = r0[i] * uy + r1[i] * vy;
    std::uint8_t* out = dst.data() + yi * plan.out_w * c;
    if (c == 3) {
#ifdef __AVX512F__
      resize_row_rgb(b, plan, out);
#else
      resize_row<3>(b, plan, out);
#endif
    } else {
      resize_row<1>(b, plan, out);
    }
  }
}

Image resize_bilinear(const Image& src, int out_w, int out_h) {
  if (src.empty() || out_w <= 0 || out_h <= 0) return {};
  if (out_w == src.width() && out_h == src.height()) return src;
  static thread_local ResizePlan plan;
  plan.ensure(src.width(), src.height(), out_w, out_h);
  Image out;
  resize_bilinear_into(src, plan, out);
  return out;
}

namespace {
void require_same_shape(const Image& a, const Image& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("image shape mismatch in distance metric");
  }
}
}  // namespace

double mse(const Image& a, const Image& b) {
  require_same_shape(a, b);
  if (a.empty()) return 0.0;
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  const std::size_t n = a.size_bytes();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int d = static_cast<int>(pa[i]) - static_cast<int>(pb[i]);
    acc += static_cast<std::uint64_t>(d * d);
  }
  return static_cast<double>(acc) / static_cast<double>(n);
}

double nrmse(const Image& a, const Image& b) { return std::sqrt(mse(a, b)) / 255.0; }

double sad(const Image& a, const Image& b) {
  require_same_shape(a, b);
  if (a.empty()) return 0.0;
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  const std::size_t n = a.size_bytes();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::uint64_t>(
        std::abs(static_cast<int>(pa[i]) - static_cast<int>(pb[i])));
  }
  return static_cast<double>(acc) / static_cast<double>(n);
}

namespace {

// The moment kernels sum kLanes values at a time into kLanes accumulators.
// kLanes is a multiple of both channel counts, so lane j only ever sees
// channel j % channels, and the fixed-length lane loop vectorises.
constexpr std::size_t kLanes = 48;
// Lane sums of squares stay in int32 for kFoldBlocks blocks (1024 * 255^2 <
// 2^31), then fold into the int64 channel totals.
constexpr std::size_t kFoldBlocks = 1024;
// N * Q_c summed over 3 channels is at most 3 * 255^2 * N^2 < 2^63.
constexpr std::size_t kMaxMomentPixels = std::size_t{1} << 22;

struct ChannelMoments {
  std::int64_t sum[3] = {};     ///< S_c: sum of a - b over channel c.
  std::int64_t sum_sq[3] = {};  ///< Q_c: sum of (a - b)^2 over channel c.
};

void require_moment_shape(const Image& a, const Image& b) {
  require_same_shape(a, b);
  if (static_cast<std::size_t>(a.width()) * a.height() > kMaxMomentPixels) {
    throw std::invalid_argument("gain-compensated distance: image too large");
  }
}

ChannelMoments channel_moments(const Image& a, const Image& b) {
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  const std::size_t n = a.size_bytes();
  const std::size_t lane_end = n - n % kLanes;
  const std::size_t channels = static_cast<std::size_t>(a.channels());
  ChannelMoments m;
  std::size_t i = 0;
  while (i < lane_end) {
    std::int32_t s[kLanes] = {};
    std::int32_t q[kLanes] = {};
    const std::size_t fold_end = std::min(lane_end, i + kFoldBlocks * kLanes);
    for (; i < fold_end; i += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const std::int32_t x =
            static_cast<std::int32_t>(pa[i + j]) - static_cast<std::int32_t>(pb[i + j]);
        s[j] += x;
        q[j] += x * x;
      }
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
      m.sum[j % channels] += s[j];
      m.sum_sq[j % channels] += q[j];
    }
  }
  for (; i < n; ++i) {
    const std::int64_t x = static_cast<int>(pa[i]) - static_cast<int>(pb[i]);
    m.sum[i % channels] += x;
    m.sum_sq[i % channels] += x * x;
  }
  return m;
}

}  // namespace

double gain_compensated_mse(const Image& a, const Image& b) {
  require_moment_shape(a, b);
  if (a.empty()) return 0.0;
  const ChannelMoments m = channel_moments(a, b);
  const auto pixels = static_cast<std::int64_t>(a.width()) * a.height();
  std::int64_t numerator = 0;  // N * sum of squared residuals; exact.
  for (int c = 0; c < a.channels(); ++c) {
    numerator += pixels * m.sum_sq[c] - m.sum[c] * m.sum[c];
  }
  return static_cast<double>(numerator) /
         (static_cast<double>(pixels) * static_cast<double>(a.size_bytes()));
}

double gain_compensated_sad(const Image& a, const Image& b) {
  require_moment_shape(a, b);
  if (a.empty()) return 0.0;
  const ChannelMoments m = channel_moments(a, b);
  const auto pixels = static_cast<std::int64_t>(a.width()) * a.height();
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  const std::size_t n = a.size_bytes();
  const std::size_t lane_end = n - n % kLanes;
  const std::size_t channels = static_cast<std::size_t>(a.channels());
  // |N * x - S_c| is N times the distance of x from the exact channel mean.
  std::int64_t mean_n[kLanes];
  std::int64_t acc[kLanes] = {};
  for (std::size_t j = 0; j < kLanes; ++j) mean_n[j] = m.sum[j % channels];
  std::size_t i = 0;
  for (; i < lane_end; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::int64_t x = static_cast<int>(pa[i + j]) - static_cast<int>(pb[i + j]);
      const std::int64_t r = pixels * x - mean_n[j];
      acc[j] += r < 0 ? -r : r;
    }
  }
  std::int64_t numerator = 0;
  for (std::size_t j = 0; j < kLanes; ++j) numerator += acc[j];
  for (; i < n; ++i) {
    const std::int64_t x = static_cast<int>(pa[i]) - static_cast<int>(pb[i]);
    const std::int64_t r = pixels * x - m.sum[i % channels];
    numerator += r < 0 ? -r : r;
  }
  return static_cast<double>(numerator) /
         (static_cast<double>(pixels) * static_cast<double>(n));
}

namespace {
/// acc[i] = 0.0 + kv[0] * rows[0][i] + ... + kv[taps-1] * rows[taps-1][i],
/// added in that order. The sweeps take two taps at a time, which halves
/// the passes over acc without changing any output's order of additions.
void weighted_sum(const double* const* rows, const double* kv, int taps,
                  std::size_t n, double* acc) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = 0.0 + kv[0] * rows[0][i];
  int k = 1;
  for (; k + 1 < taps; k += 2) {
    const double* r0 = rows[k];
    const double* r1 = rows[k + 1];
    const double k0 = kv[k], k1 = kv[k + 1];
    for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] + k0 * r0[i] + k1 * r1[i];
  }
  if (k < taps) {
    for (std::size_t i = 0; i < n; ++i) acc[i] += kv[k] * rows[k][i];
  }
}
}  // namespace

void blur_threshold(const Image& src, double sigma, std::uint8_t t, Image& out) {
  const int w = src.width(), h = src.height(), c = src.channels();
  out.reset(w, h, c);
  const std::size_t row_len = static_cast<std::size_t>(w) * c;
  const std::uint8_t* in = src.data();
  std::uint8_t* o = out.data();
  if (sigma <= 0.0 || src.empty()) {
    for (std::size_t i = 0; i < src.size_bytes(); ++i) o[i] = in[i] > t ? 255 : 0;
    return;
  }
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  const int taps = 2 * radius + 1;
  static thread_local std::vector<double> kernel;
  kernel.resize(static_cast<std::size_t>(taps));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
    sum += kernel[i + radius];
  }
  for (auto& k : kernel) k /= sum;

  // Where the blur can cross the threshold. An output is a convex
  // combination of its (2r+1)x(2r+1) window: the weights are positive and
  // sum to 1 within a few ulp, and every partial sum adds nonnegative
  // products, so the computed value is at most max(window) *
  // (1 + ~30 * 2^-53). If no window value exceeds t (t <= 255), that is
  // below t + 0.5, rounds to at most t, and thresholds to 0. So an output
  // row whose 2r+1 window rows all have maximum <= t is zero unfiltered,
  // and so is every column farther than r from the hot pixels of its
  // window rows. hot_lo/hot_hi: row yy's first and last column above t
  // (hot_lo > hot_hi when there is none).
  static thread_local std::vector<int> hot_lo, hot_hi;
  hot_lo.resize(static_cast<std::size_t>(h));
  hot_hi.resize(static_cast<std::size_t>(h));
  for (int yy = 0; yy < h; ++yy) {
    const std::uint8_t* s = in + static_cast<std::size_t>(yy) * row_len;
    std::uint8_t peak = 0;
    for (std::size_t i = 0; i < row_len; ++i) peak = std::max(peak, s[i]);
    if (peak <= t) {
      hot_lo[yy] = w;
      hot_hi[yy] = -1;
      continue;
    }
    std::size_t i = 0;
    while (s[i] <= t) ++i;
    std::size_t j = row_len - 1;
    while (s[j] <= t) --j;
    hot_lo[yy] = static_cast<int>(i) / c;
    hot_hi[yy] = static_cast<int>(j) / c;
  }

  // Everything else is blurred exactly: each output adds its taps in
  // ascending order from 0.0, in double, over edge-replicated (clamped)
  // indices, as a per-pixel loop would. Only the `radius` border columns
  // clamp; the interior and the vertical pass are contiguous sweeps. The
  // vertical pass reads horizontally filtered rows from a ring of `taps`
  // rows (source row yy in slot yy % taps; slot_row names the row a slot
  // holds), so a row is filtered once, and only if an output row needs it.
  static thread_local std::vector<double> ring;
  static thread_local std::vector<double> line;  // a source row, then a sum
  static thread_local std::vector<const double*> rows;
  static thread_local std::vector<int> slot_row;
  ring.resize(static_cast<std::size_t>(taps) * row_len);
  line.resize(row_len);
  rows.resize(static_cast<std::size_t>(taps));
  slot_row.assign(static_cast<std::size_t>(taps), -1);
  // Columns whose whole tap window lies inside the row.
  const int x_lo = std::min(radius, w);
  const int x_hi = std::max(x_lo, w - radius);

  const auto filter_row = [&](int yy) {
    const std::uint8_t* s = in + static_cast<std::size_t>(yy) * row_len;
    for (std::size_t i = 0; i < row_len; ++i) line[i] = s[i];
    slot_row[static_cast<std::size_t>(yy % taps)] = yy;
    double* d = ring.data() + static_cast<std::size_t>(yy % taps) * row_len;
    const auto clamped = [&](int x) {
      for (int ch = 0; ch < c; ++ch) {
        double a = 0.0;
        for (int k = -radius; k <= radius; ++k) {
          const int xx = std::clamp(x + k, 0, w - 1);
          a += kernel[k + radius] * line[static_cast<std::size_t>(xx) * c + ch];
        }
        d[static_cast<std::size_t>(x) * c + ch] = a;
      }
    };
    for (int x = 0; x < x_lo; ++x) clamped(x);
    for (int x = x_hi; x < w; ++x) clamped(x);
    if (x_hi == x_lo) return;
    const std::size_t lo = static_cast<std::size_t>(x_lo) * c;
    for (int k = 0; k < taps; ++k) {
      rows[k] = line.data() + lo + static_cast<std::ptrdiff_t>(k - radius) * c;
    }
    weighted_sum(rows.data(), kernel.data(), taps,
                 static_cast<std::size_t>(x_hi) * c - lo, d + lo);
  };

  for (int y = 0; y < h; ++y) {
    std::uint8_t* orow = o + static_cast<std::size_t>(y) * row_len;
    const int top = std::max(0, y - radius), bottom = std::min(h - 1, y + radius);
    int lo = w, hi = -1;  // hot columns of the window rows
    for (int yy = top; yy <= bottom; ++yy) {
      lo = std::min(lo, hot_lo[yy]);
      hi = std::max(hi, hot_hi[yy]);
    }
    if (hi < lo) {
      std::fill(orow, orow + row_len, std::uint8_t{0});
      continue;
    }
    for (int yy = top; yy <= bottom; ++yy) {
      if (slot_row[static_cast<std::size_t>(yy % taps)] != yy) filter_row(yy);
    }
    // The span [lo - r, hi + r] holds every column whose window reaches a
    // hot pixel; the vertical sums outside it are never needed.
    const auto b = static_cast<std::size_t>(std::max(0, lo - radius)) * c;
    const auto e = static_cast<std::size_t>(std::min(w - 1, hi + radius) + 1) * c;
    for (int k = 0; k < taps; ++k) {
      const int yy = std::clamp(y + k - radius, 0, h - 1);
      rows[k] = ring.data() + static_cast<std::size_t>(yy % taps) * row_len + b;
    }
    weighted_sum(rows.data(), kernel.data(), taps, e - b, line.data());
    std::fill(orow, orow + b, std::uint8_t{0});
    for (std::size_t i = b; i < e; ++i) {
      const double v = std::clamp(line[i - b] + 0.5, 0.0, 255.0);
      orow[i] = static_cast<std::uint8_t>(v) > t ? 255 : 0;
    }
    std::fill(orow + e, orow + row_len, std::uint8_t{0});
  }
}

namespace {
/// 3x3 erosion (kErode: AND) or dilation (OR) of channel 0 of a C-channel
/// mask, edge-replicated at the borders, as a 3-tap pass down each column
/// and then one along the row. For a binary mask the separable form is
/// exact: the AND (OR) over the 3x3 window is the AND (OR) of three column
/// results. `col` holds one row of column results.
template <int C, bool kErode>
void morph3x3(const Image& binary, Image& out, std::uint8_t* col) {
  const auto op = [](int a, int b, int c) { return kErode ? a & b & c : a | b | c; };
  const int w = binary.width(), h = binary.height();
  const std::size_t stride = static_cast<std::size_t>(w) * C;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* r0 = binary.data() + std::max(y - 1, 0) * stride;
    const std::uint8_t* r1 = binary.data() + y * stride;
    const std::uint8_t* r2 = binary.data() + std::min(y + 1, h - 1) * stride;
    for (int x = 0; x < w; ++x) {
      col[x] = static_cast<std::uint8_t>(
          op(r0[x * C] != 0, r1[x * C] != 0, r2[x * C] != 0));
    }
    std::uint8_t* o = out.data() + y * stride;
    o[0] = static_cast<std::uint8_t>(op(col[0], col[0], col[std::min(1, w - 1)]) * 255);
    for (int x = 1; x < w - 1; ++x) {
      o[x * C] = static_cast<std::uint8_t>(op(col[x - 1], col[x], col[x + 1]) * 255);
    }
    if (w > 1) {
      o[(w - 1) * C] =
          static_cast<std::uint8_t>(op(col[w - 2], col[w - 1], col[w - 1]) * 255);
    }
  }
}

template <bool kErode>
void morph3x3(const Image& binary, Image& out) {
  out.reset(binary.width(), binary.height(), binary.channels());
  if (binary.empty()) return;
  static thread_local std::vector<std::uint8_t> col;
  col.resize(static_cast<std::size_t>(binary.width()));
  if (binary.channels() == 3) {
    out.fill(0);  // only channel 0 is written
    morph3x3<3, kErode>(binary, out, col.data());
  } else {
    morph3x3<1, kErode>(binary, out, col.data());
  }
}
}  // namespace

void erode3x3(const Image& binary, Image& out) {
  morph3x3</*kErode=*/true>(binary, out);
}

void dilate3x3(const Image& binary, Image& out) {
  morph3x3</*kErode=*/false>(binary, out);
}

}  // namespace ffsva::image
