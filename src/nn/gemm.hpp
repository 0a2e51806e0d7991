// im2col + GEMM convolution path.
//
// The forward pass of Conv2d can be computed either directly (simple,
// gradient-checked — see layers.cpp) or by lowering to a matrix multiply:
// unfold every receptive field into a column (im2col), multiply by the
// [out_ch x in_ch*k*k] filter matrix, add bias. The GEMM form is how the
// GPU frameworks the paper builds on execute convolutions, and it is the
// faster CPU path for inference; the pipeline's SNM uses it for batched
// prediction.
//
// gemm() is a cache-blocked kernel in the BLIS mold: the operands are
// copied into packed panels (A in MR-row slabs, B in NR-column slabs) so
// the register micro-kernel streams contiguous memory, and the K dimension is
// blocked at KC so a B panel stays cache-resident. One call runs on the
// calling thread: parallelism comes from the loops over independent items
// above it (the SDD pool's streams, conv2d_im2col_into's batch samples,
// the engine's batch preprocessing). Pruned models keep their fast path,
// hoisted from the seed's per-multiply branch to pack time: k-steps whose
// whole MR-row slice is zero (see nn/compress.hpp) are compacted out of
// the packed A panel, and panels with any such step run a branch-free
// indexed micro-kernel over the surviving steps — dense panels pay
// nothing. Each output row is accumulated in one fixed k-order, so results
// are bitwise identical at any compute parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace ffsva::nn {

/// Reusable packing / staging buffers for gemm() and conv2d_im2col_into().
/// Sized on demand; steady-state reuse performs no heap allocation once
/// the shapes seen have stabilized.
struct GemmScratch {
  std::vector<float> columns;      ///< im2col staging (conv path).
  std::vector<float> a_pack;       ///< packed (zero-step-compacted) A panels.
  std::vector<std::int32_t> a_idx; ///< surviving k-step indices per A panel.
  std::vector<float> b_pack;       ///< packed B column panels.
  /// Per-sample sub-scratches for the batched conv path, which fans the
  /// independent samples of a batch out across the compute pool (each lane
  /// owns its own im2col/packing buffers).
  std::vector<GemmScratch> lanes;
};

/// Unfold sample `n` of x into columns: out is [in_ch*k*k, oh*ow],
/// row-major. Zero padding outside the image.
void im2col(const Tensor& x, int n, int kernel, int stride, int pad,
            int out_h, int out_w, std::vector<float>& columns);

/// Row-major C[MxN] = A[MxK] * B[KxN] (C overwritten). Blocked, packed,
/// single-threaded; ws supplies the packing buffers.
void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          GemmScratch& ws);

/// The seed scalar kernel (ikj loops, per-element zero skip). Kept as the
/// reference implementation for cross-checking and the before/after
/// baseline in bench_kernels.
void gemm_naive(const float* a, const float* b, float* c, int m, int k, int n);

/// Full convolution via im2col+GEMM into a caller-owned output tensor.
/// weight: [out_ch, in_ch, k, k]; bias: [out_ch,1,1,1]. y is reshaped to
/// the output geometry; with a warm scratch the call does not allocate.
/// Numerically identical (up to FP reassociation) to Conv2d::forward.
void conv2d_im2col_into(const Tensor& x, const Tensor& weight, const Tensor& bias,
                        int stride, int pad, Tensor& y, GemmScratch& ws);

/// Allocating wrapper around conv2d_im2col_into (thread-local scratch).
Tensor conv2d_im2col(const Tensor& x, const Tensor& weight, const Tensor& bias,
                     int stride, int pad);

}  // namespace ffsva::nn
