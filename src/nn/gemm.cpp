#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "runtime/cancel.hpp"
#include "runtime/parallel_for.hpp"

namespace ffsva::nn {

void im2col(const Tensor& x, int n, int kernel, int stride, int pad,
            int out_h, int out_w, std::vector<float>& columns) {
  const int in_ch = x.c(), h = x.h(), w = x.w();
  const std::size_t rows = static_cast<std::size_t>(in_ch) * kernel * kernel;
  columns.resize(rows * static_cast<std::size_t>(out_h) * out_w);
  const float* xbase =
      x.data() + static_cast<std::size_t>(n) * in_ch * h * w;
  std::size_t row = 0;
  for (int c = 0; c < in_ch; ++c) {
    const float* xc = xbase + static_cast<std::size_t>(c) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx, ++row) {
        float* dst = columns.data() + row * static_cast<std::size_t>(out_h) * out_w;
        const int xoff = kx - pad;
        // The ox values whose source column ox*stride + xoff is in-image;
        // hoisting the bounds here leaves the per-pixel loop branch-free.
        const int ox0 = xoff < 0 ? (-xoff + stride - 1) / stride : 0;
        const int ox1 =
            xoff >= w ? 0
                      : std::min(out_w, (w - 1 - xoff) / stride + 1);
        for (int oy = 0; oy < out_h; ++oy) {
          float* d = dst + static_cast<std::size_t>(oy) * out_w;
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) {
            std::memset(d, 0, sizeof(float) * static_cast<std::size_t>(out_w));
            continue;
          }
          const float* src = xc + static_cast<std::size_t>(iy) * w + xoff;
          for (int ox = 0; ox < ox0; ++ox) d[ox] = 0.0f;
          if (stride == 1) {
            if (ox1 > ox0) {
              std::memcpy(d + ox0, src + ox0,
                          sizeof(float) * static_cast<std::size_t>(ox1 - ox0));
            }
          } else {
            for (int ox = ox0; ox < ox1; ++ox) d[ox] = src[ox * stride];
          }
          for (int ox = ox1; ox < out_w; ++ox) d[ox] = 0.0f;
        }
      }
    }
  }
}

void gemm_naive(const float* a, const float* b, float* c, int m, int k, int n) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  runtime::check_cancel();  // cancellation boundary for thin-shape forwards
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float aip = a[static_cast<std::size_t>(i) * k + p];
      if (aip == 0.0f) continue;  // pruned weights cost nothing
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

namespace {

// Register micro-tile (MR x NR accumulators: 4x16 floats = 16 AVX2 lanes
// worth, small enough for the compiler to keep in ymm registers) and cache
// blocks: a KC x NR slab of packed B plus an MR x KC slab of packed A fit
// comfortably in L1; a full KC x NC packed B block stays L2-resident.
constexpr int kMR = 4;
constexpr int kNR = 16;
constexpr int kKC = 256;
constexpr int kNC = 1024;

/// Pack row panel `ir` of A[.,pc:pc+kc] as consecutive MR-vectors,
/// zero-padded past row m, compacting away k-steps whose whole MR slice is
/// zero (magnitude pruning, nn/compress.hpp, zeroes exact weights).
/// idx[t] records the original k-step of packed step t; returns the number
/// of surviving steps (== kc for a fully dense panel).
int pack_a_panel(const float* a, int lda, int m, int pc, int kc, int ir,
                 float* dst, std::int32_t* idx) {
  const int i0 = ir * kMR;
  const int rows = std::min(kMR, m - i0);
  int steps = 0;
  for (int p = 0; p < kc; ++p) {
    float* d = dst + static_cast<std::size_t>(steps) * kMR;
    bool nonzero = false;
    for (int r = 0; r < rows; ++r) {
      const float v = a[static_cast<std::size_t>(i0 + r) * lda + pc + p];
      nonzero |= (v != 0.0f);
      d[r] = v;
    }
    for (int r = rows; r < kMR; ++r) d[r] = 0.0f;
    idx[steps] = p;
    steps += nonzero ? 1 : 0;
  }
  return steps;
}

/// Pack B[pc:pc+kc, jc:jc+nc] as NR-column panels, zero-padded past n.
void pack_b(const float* b, int ldb, int pc, int kc, int jc, int nc, float* dst) {
  const int panels = (nc + kNR - 1) / kNR;
  for (int jr = 0; jr < panels; ++jr) {
    float* panel = dst + static_cast<std::size_t>(jr) * kc * kNR;
    const int j0 = jc + jr * kNR;
    const int cols = std::min(kNR, jc + nc - j0);
    for (int p = 0; p < kc; ++p) {
      const float* src = b + static_cast<std::size_t>(pc + p) * ldb + j0;
      float* d = panel + static_cast<std::size_t>(p) * kNR;
      int col = 0;
      for (; col < cols; ++col) d[col] = src[col];
      for (; col < kNR; ++col) d[col] = 0.0f;
    }
  }
}

// The accumulator rows are spelled out and the j-loop kept innermost so the
// compiler vectorizes across the NR columns (one 16-lane FMA per row with
// the accumulators living in registers across the whole p-loop) instead of
// interchanging onto the 4-lane row dimension and spilling. Kept
// out-of-line: inlined into the blocked driver the register allocator
// spills the accumulators and throughput collapses several-fold.
__attribute__((noinline))
void micro_dense(const float* __restrict ap, const float* __restrict bp, int kc,
                 float* __restrict acc) {
  static_assert(kMR == 4, "accumulator rows are unrolled by hand");
  float* acc0 = acc;
  float* acc1 = acc + kNR;
  float* acc2 = acc + 2 * kNR;
  float* acc3 = acc + 3 * kNR;
  for (int p = 0; p < kc; ++p) {
    const float* brow = bp + static_cast<std::size_t>(p) * kNR;
    const float a0 = ap[p * kMR + 0];
    const float a1 = ap[p * kMR + 1];
    const float a2 = ap[p * kMR + 2];
    const float a3 = ap[p * kMR + 3];
    for (int j = 0; j < kNR; ++j) {
      const float bj = brow[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
}

/// The pruning fast path: identical FMA structure to micro_dense but over
/// the compacted steps of a pruned panel, indirecting into B through the
/// surviving k-step indices — no per-element branch anywhere. Unlike the
/// dense kernel the auto-vectorizer refuses this loop (the indexed B row
/// defeats its dependence analysis), so on GNU-compatible compilers the
/// NR-wide rows are spelled as vector-extension values; acc is overwritten,
/// which the tile driver's memset makes equivalent to accumulation.
#if defined(__GNUC__) || defined(__clang__)
typedef float VecNR __attribute__((vector_size(kNR * sizeof(float))));
__attribute__((noinline))
void micro_indexed(const float* __restrict ap, const float* __restrict bp,
                   const std::int32_t* __restrict idx, int steps,
                   float* __restrict acc) {
  VecNR c0 = {}, c1 = {}, c2 = {}, c3 = {};
  for (int t = 0; t < steps; ++t) {
    VecNR b;
    __builtin_memcpy(&b, bp + static_cast<std::size_t>(idx[t]) * kNR, sizeof(b));
    c0 += ap[t * kMR + 0] * b;
    c1 += ap[t * kMR + 1] * b;
    c2 += ap[t * kMR + 2] * b;
    c3 += ap[t * kMR + 3] * b;
  }
  __builtin_memcpy(acc, &c0, sizeof(c0));
  __builtin_memcpy(acc + kNR, &c1, sizeof(c1));
  __builtin_memcpy(acc + 2 * kNR, &c2, sizeof(c2));
  __builtin_memcpy(acc + 3 * kNR, &c3, sizeof(c3));
}
#else
void micro_indexed(const float* ap, const float* bp, const std::int32_t* idx,
                   int steps, float* acc) {
  for (int t = 0; t < steps; ++t) {
    const float* brow = bp + static_cast<std::size_t>(idx[t]) * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float av = ap[t * kMR + r];
      float* accr = acc + r * kNR;
      for (int j = 0; j < kNR; ++j) accr[j] += av * brow[j];
    }
  }
}
#endif

}  // namespace

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          GemmScratch& ws) {
  if (m <= 0 || n <= 0) return;

  // Thin shapes: with k below one unrolled stripe or n below two register
  // tiles, packing plus tile padding costs more than the whole product;
  // the streaming kernel (which skips zero weights per element) wins
  // outright there.
  if (k < 16 || n < 2 * kNR) {
    gemm_naive(a, b, c, m, k, n);
    return;
  }

  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  if (k <= 0) return;

  const int row_panels = (m + kMR - 1) / kMR;
  const int kc_max = std::min(k, kKC);
  ws.a_pack.resize(static_cast<std::size_t>(row_panels) * kMR * kc_max);
  ws.a_idx.resize(static_cast<std::size_t>(row_panels) * kc_max);

  alignas(64) float acc[kMR * kNR];
  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int col_panels = (nc + kNR - 1) / kNR;
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = std::min(kKC, k - pc);
      ws.b_pack.resize(static_cast<std::size_t>(col_panels) * kc * kNR);
      pack_b(b, n, pc, kc, jc, nc, ws.b_pack.data());

      for (int ir = 0; ir < row_panels; ++ir) {
        // Cancellation boundary: one check per row panel (~kMR*kc*nc MACs)
        // keeps a cancelled forward's unwind latency at tile granularity
        // without measurable cost in the dense inner loops.
        runtime::check_cancel();
        float* apanel = ws.a_pack.data() + static_cast<std::size_t>(ir) * kMR * kc;
        std::int32_t* aidx = ws.a_idx.data() + static_cast<std::size_t>(ir) * kc;
        const int steps = pack_a_panel(a, k, m, pc, kc, ir, apanel, aidx);
        const int i0 = ir * kMR;
        const int rows = std::min(kMR, m - i0);
        for (int jr = 0; jr < col_panels; ++jr) {
          const float* bpanel =
              ws.b_pack.data() + static_cast<std::size_t>(jr) * kc * kNR;
          std::memset(acc, 0, sizeof(acc));
          if (steps == kc) {
            micro_dense(apanel, bpanel, kc, acc);
          } else {
            micro_indexed(apanel, bpanel, aidx, steps, acc);
          }
          const int j0 = jc + jr * kNR;
          const int cols = std::min(kNR, jc + nc - j0);
          for (int r = 0; r < rows; ++r) {
            float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
            const float* accr = acc + r * kNR;
            for (int j = 0; j < cols; ++j) crow[j] += accr[j];
          }
        }
      }
    }
  }
}

void conv2d_im2col_into(const Tensor& x, const Tensor& weight, const Tensor& bias,
                        int stride, int pad, Tensor& y, GemmScratch& ws) {
  if (x.c() != weight.c()) {
    throw std::invalid_argument("conv2d_im2col: channel mismatch");
  }
  const int kernel = weight.h();
  const int out_ch = weight.n();
  const int oh = (x.h() + 2 * pad - kernel) / stride + 1;
  const int ow = (x.w() + 2 * pad - kernel) / stride + 1;
  y.resize(x.n(), out_ch, oh, ow);
  const int k = weight.c() * kernel * kernel;
  const int cols = oh * ow;
  auto run_sample = [&](int n, GemmScratch& lane) {
    runtime::check_cancel();  // cancellation boundary: per conv sample
    im2col(x, n, kernel, stride, pad, oh, ow, lane.columns);
    float* out = y.data() + static_cast<std::size_t>(n) * out_ch * cols;
    gemm(weight.data(), lane.columns.data(), out, out_ch, k, cols, lane);
    for (int oc = 0; oc < out_ch; ++oc) {
      const float b = bias.at(oc, 0, 0, 0);
      float* row = out + static_cast<std::size_t>(oc) * cols;
      for (int j = 0; j < cols; ++j) row[j] += b;
    }
  };
  // Batches fan out across the compute pool, one lane of scratch buffers
  // per sample (samples are independent, so results do not depend on the
  // thread count); this is the only fan-out in nn/. Single samples stay
  // serial, and so do batches below kParallelMacs multiply-adds, where the
  // pool dispatch costs more than it buys.
  constexpr std::int64_t kParallelMacs = 1 << 17;
  const std::int64_t total_macs =
      static_cast<std::int64_t>(x.n()) * out_ch * k * cols;
  if (x.n() > 1 && total_macs >= kParallelMacs) {
    if (ws.lanes.size() < static_cast<std::size_t>(x.n())) {
      ws.lanes.resize(static_cast<std::size_t>(x.n()));
    }
    runtime::parallel_for(0, x.n(), 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t n = b; n < e; ++n) {
        run_sample(static_cast<int>(n), ws.lanes[static_cast<std::size_t>(n)]);
      }
    });
  } else {
    for (int n = 0; n < x.n(); ++n) run_sample(n, ws);
  }
}

Tensor conv2d_im2col(const Tensor& x, const Tensor& weight, const Tensor& bias,
                     int stride, int pad) {
  static thread_local GemmScratch ws;
  Tensor y;
  conv2d_im2col_into(x, weight, bias, stride, pad, y, ws);
  return y;
}

}  // namespace ffsva::nn
