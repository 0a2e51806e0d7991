// Core raster operations used by the filters and the scene simulator.
//
// The per-filter resize costs the paper reports (40us / 150us / 400us for
// SDD / SNM / T-YOLO, Section 4.1) correspond to resize_bilinear_into here:
// on a 4-vCPU AVX-512 Xeon about 12us for SDD's 100x100 input from a
// 192x144 frame, 9us for SNM's 50x50 and 18us for T-YOLO's 104x104 from a
// 256x192 frame (bench_kernels resize/* and seg/resize_into_* rows). The
// SDD distance metrics of Section 3.2.1 are mse / nrmse / sad.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"

namespace ffsva::image {

/// Luma conversion (BT.601 integer weights). 1-channel input is copied.
Image to_gray(const Image& src);

/// Precomputed bilinear resampling tables. The per-pixel source indices
/// (clamped) and lerp weights (Q11 fixed point) depend only on the
/// geometry, so every filter that resizes each frame to a fixed input
/// size amortizes the floor/clamp/divide work to zero: ensure() rebuilds
/// the tables only when the geometry actually changes, and
/// resize_bilinear_into() then runs integer-only per pixel. Builds with
/// AVX-512F (chosen at compile time) resize 3-channel rows from permute
/// tables; every build writes the same bytes.
struct ResizePlan {
  int src_w = -1, src_h = -1, out_w = -1, out_h = -1;
  std::vector<std::int32_t> x0, x1, wx;  ///< Per output column.
  std::vector<std::int32_t> y0, y1, wy;  ///< Per output row.

  /// 3-channel column tables for AVX-512F builds (empty otherwise): output
  /// pixels in groups of `group` (<= 5, so 3 * group <= 16 lanes) whose taps
  /// all lie in a 32-lane window of the vertically blended row. Per group:
  /// the window's offset, and 16 lanes each of a-tap index, b-tap index
  /// (both relative to the window) and weight.
  int group = 0;
  std::vector<std::int32_t> g_base, g_a, g_b, g_w;

  static constexpr int kWeightBits = 11;  ///< Q11: weights in [0, 2048].

  /// Rebuild the tables if the geometry changed; no-op (and
  /// allocation-free) otherwise.
  void ensure(int src_width, int src_height, int out_width, int out_height);
};

/// Bilinear resize to (out_w, out_h); channel count preserved.
Image resize_bilinear(const Image& src, int out_w, int out_h);

/// Bilinear resize into a caller-owned destination using prepared tables;
/// dst is reshaped to the plan's output geometry and src must match the
/// plan's source geometry. Allocation-free once dst and the calling
/// thread's one-row scratch are warm.
void resize_bilinear_into(const Image& src, const ResizePlan& plan, Image& dst);

/// Mean squared error over all channels. Shapes must match.
double mse(const Image& a, const Image& b);

/// Normalized root mean square error: sqrt(MSE) / 255.
double nrmse(const Image& a, const Image& b);

/// Mean of absolute differences (SAD normalized by pixel count).
double sad(const Image& a, const Image& b);

/// Gain-compensated MSE and SAD: the per-channel mean of x = a - b (a global
/// illumination / white-balance offset) is removed before measuring what is
/// left. With N pixels, n = N * channels values, and S_c, Q_c the sum and
/// sum of squares of x over channel c, they are
///   sum_c (N * Q_c - S_c^2) / (N * n)   and   sum |N * x - S_c| / (N * n),
/// exact integer numerators over an exact denominator divided once. Up to
/// ~2e5 pixels the numerators stay below 2^53, so each result is its
/// definition (exact mean S_c / N) correctly rounded. Shapes must match and
/// hold at most 2^22 pixels (the int64 numerators' bound); allocation-free.
double gain_compensated_mse(const Image& a, const Image& b);
double gain_compensated_sad(const Image& a, const Image& b);

/// Separable Gaussian blur of `src`, then a binary threshold, into `out`:
/// out = blur(src, sigma) > t ? 255 : 0 per channel (sigma <= 0: no blur).
/// Byte-identical to thresholding the rounded blur, but only the rows and
/// columns whose blur window holds a value above t are filtered.
/// Allocation-free once the calling thread's scratch and `out` are warm;
/// `out` must not alias `src`.
void blur_threshold(const Image& src, double sigma, std::uint8_t t, Image& out);

/// 3x3 binary erosion / dilation (values treated as 0 / nonzero) into
/// `out`, which must not alias `binary`. Allocation-free once `out` and the
/// calling thread's scratch are warm.
void erode3x3(const Image& binary, Image& out);
void dilate3x3(const Image& binary, Image& out);

}  // namespace ffsva::image
