// Kernel dispatch plus the fast backend: k-blocked GEMM with arena-packed
// panels, pool parallelism over row/image chunks, and im2col/col2im
// convolution. The reference implementations live in ops_naive.cpp, the
// vectorized simd tier and the fp16 mixed-precision path in ops_simd.cpp;
// pooling and softmax have a single implementation (they are not hot enough
// to fork).
//
// Determinism: every parallel loop partitions independent output rows/images,
// and every output element is accumulated in a fixed ascending order within
// one chunk — results are a pure function of inputs, never of scheduling.
// The fast GEMM family reproduces naive's per-element order *and* its
// zero-skip on the A operand, so fast ≡ naive bitwise; the im2col convolution
// regroups sums (and adds explicit 0.0·w padding terms the direct loops
// skip), so conv equivalence is ≤1e-12 relative instead (docs/KERNELS.md).
#include "tensor/ops.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>

#include "obs/registry.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops_detail.hpp"
#include "tensor/workspace.hpp"
#include "util/common.hpp"
#include "util/threadpool.hpp"

namespace ckptfi {

// Definitions of the helpers shared across the kernel translation units
// (declared in ops_detail.hpp; ops_simd.cpp reuses all of them).
namespace detail {

void run_chunks(std::size_t n, bool parallel,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (parallel) {
    ThreadPool::global().parallel_for(n, fn);
  } else {
    fn(0, n);
  }
}

void im2col(const double* xi, const detail::ConvDims& d, const ConvSpec& spec,
            double* col, std::size_t ld) {
  const std::size_t s = spec.stride;
  if (ld == 0) ld = d.ho * d.wo;
  double* row = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    const double* xmap = xi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      const TapRun rows = tap_run(ky, d.h, d.ho, spec);
      for (std::size_t kx = 0; kx < d.kw; ++kx, row += ld) {
        const TapRun cols = tap_run(kx, d.w, d.wo, spec);
        const std::size_t run = cols.hi - cols.lo;
        double* out = row;
        std::fill_n(out, rows.lo * d.wo, 0.0);
        out += rows.lo * d.wo;
        for (std::size_t oy = rows.lo; oy < rows.hi; ++oy) {
          std::fill_n(out, cols.lo, 0.0);
          if (run > 0) {
            const double* src =
                xmap + tap_offset(oy, ky, cols.lo, kx, d, spec);
            if (s == 1) {
              std::copy_n(src, run, out + cols.lo);
            } else {
              for (std::size_t j = 0; j < run; ++j)
                out[cols.lo + j] = src[j * s];
            }
          }
          std::fill_n(out + cols.hi, d.wo - cols.hi, 0.0);
          out += d.wo;
        }
        std::fill_n(out, (d.ho - rows.hi) * d.wo, 0.0);
      }
    }
  }
}

void col2im(const double* col, const detail::ConvDims& d, const ConvSpec& spec,
            double* dxi) {
  const std::size_t s = spec.stride;
  const double* in = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    double* dxmap = dxi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      const TapRun rows = tap_run(ky, d.h, d.ho, spec);
      for (std::size_t kx = 0; kx < d.kw; ++kx) {
        const TapRun cols = tap_run(kx, d.w, d.wo, spec);
        const std::size_t run = cols.hi - cols.lo;
        for (std::size_t oy = rows.lo; oy < rows.hi && run > 0; ++oy) {
          double* dst = dxmap + tap_offset(oy, ky, cols.lo, kx, d, spec);
          const double* src = in + oy * d.wo + cols.lo;
          for (std::size_t j = 0; j < run; ++j) dst[j * s] += src[j];
        }
        in += d.ho * d.wo;
      }
    }
  }
}

void col2im_rows(const double* col, std::size_t ld, const detail::ConvDims& d,
                 const ConvSpec& spec, std::size_t r0, std::size_t r1,
                 double* dxi) {
  const std::size_t s = spec.stride;
  const std::size_t taps = d.kh * d.kw;
  std::size_t ic = r0 / taps, ky = r0 % taps / d.kw, kx = r0 % d.kw;
  for (std::size_t r = r0; r < r1; ++r, col += ld) {
    const TapRun rows = tap_run(ky, d.h, d.ho, spec);
    const TapRun cols = tap_run(kx, d.w, d.wo, spec);
    const std::size_t run = cols.hi - cols.lo;
    double* dxmap = dxi + ic * d.h * d.w;
    for (std::size_t oy = rows.lo; oy < rows.hi && run > 0; ++oy) {
      double* dst = dxmap + tap_offset(oy, ky, cols.lo, kx, d, spec);
      const double* src = col + oy * d.wo + cols.lo;
      for (std::size_t j = 0; j < run; ++j)
        dst[j * s] = add_first(dst[j * s], src[j]);
    }
    if (++kx == d.kw) {
      kx = 0;
      if (++ky == d.kh) ky = 0, ++ic;
    }
  }
}

}  // namespace detail

using detail::col2im;
using detail::conv_flops;
using detail::gemm_flops;
using detail::im2col;
using detail::kFastMinFlops;
using detail::kKc;
using detail::kPoolMinFlops;
using detail::run_chunks;
using detail::ScopedHistTimer;

namespace fast {

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 inputs required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  c.resize({m, n});
  if (!accumulate) c.fill(0.0);

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
                 const std::size_t p1 = std::min(k, p0 + kKc);
                 for (std::size_t i = r0; i < r1; ++i) {
                   const double* arow = pa + i * k;
                   double* crow = pc + i * n;
                   for (std::size_t p = p0; p < p1; ++p) {
                     const double av = arow[p];
                     if (av == 0.0) continue;  // naive's skip: bitwise parity
                     const double* brow = pb + p * n;
                     for (std::size_t j = 0; j < n; ++j)
                       crow[j] += av * brow[j];
                   }
                 }
               }
             });
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_at: rank-2 inputs required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_at: inner dimension mismatch");
  c.resize({m, n});
  c.fill(0.0);

  // Unlike naive (serial, k-major), each chunk transposes its slice of A
  // into an arena-packed [rows,k] panel and then accumulates row-major —
  // same ascending-k per-element order and zero-skip, so bitwise-equal
  // results, but parallel over output rows and unit-stride on the panel.
  // The packing only pays for itself when the row chunks actually fan out;
  // with an effectively serial pool, naive's k-major order (B row hot in
  // L1) is the faster loop, and the results are bitwise-identical.
  if (ThreadPool::global().size() <= 1 ||
      gemm_flops(m, k, n) < kPoolMinFlops) {
    naive::matmul_at(a, b, c);
    return;
  }

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               Workspace& ws = Workspace::tls();
               Workspace::Scope scope(ws);
               const std::size_t rows = r1 - r0;
               double* at = ws.alloc(rows * k);
               for (std::size_t p = 0; p < k; ++p) {
                 const double* arow = pa + p * m;
                 for (std::size_t i = r0; i < r1; ++i)
                   at[(i - r0) * k + p] = arow[i];
               }
               for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
                 const std::size_t p1 = std::min(k, p0 + kKc);
                 for (std::size_t i = r0; i < r1; ++i) {
                   const double* airow = at + (i - r0) * k;
                   double* crow = pc + i * n;
                   for (std::size_t p = p0; p < p1; ++p) {
                     const double av = airow[p];
                     if (av == 0.0) continue;
                     const double* brow = pb + p * n;
                     for (std::size_t j = 0; j < n; ++j)
                       crow[j] += av * brow[j];
                   }
                 }
               }
             });
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_bt: rank-2 inputs required");
  const std::size_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  require(b.dim(1) == n, "matmul_bt: inner dimension mismatch");
  c.resize({m, k});

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  // Register-tiled dot products: 4 output columns share one sweep of the A
  // row. Each accumulator still sums ascending p, so every element matches
  // naive bitwise.
  run_chunks(m, gemm_flops(m, n, k) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               for (std::size_t i = r0; i < r1; ++i) {
                 const double* arow = pa + i * n;
                 double* crow = pc + i * k;
                 std::size_t j = 0;
                 for (; j + 4 <= k; j += 4) {
                   const double* b0 = pb + j * n;
                   const double* b1 = b0 + n;
                   const double* b2 = b1 + n;
                   const double* b3 = b2 + n;
                   double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                   for (std::size_t p = 0; p < n; ++p) {
                     const double av = arow[p];
                     s0 += av * b0[p];
                     s1 += av * b1[p];
                     s2 += av * b2[p];
                     s3 += av * b3[p];
                   }
                   crow[j] = s0;
                   crow[j + 1] = s1;
                   crow[j + 2] = s2;
                   crow[j + 3] = s3;
                 }
                 for (; j < k; ++j) {
                   const double* brow = pb + j * n;
                   double s = 0.0;
                   for (std::size_t p = 0; p < n; ++p) s += arow[p] * brow[p];
                   crow[j] = s;
                 }
               }
             });
}

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y) {
  const detail::ConvDims d = detail::conv_dims(x, w, spec);
  require(b.numel() == d.co, "conv2d: bias size mismatch");
  y.resize({d.n, d.co, d.ho, d.wo});

  const double* px = x.data();
  const double* pw = w.data();
  const double* pb = b.data();
  double* py = y.data();
  const std::size_t K = d.ci * d.kh * d.kw;
  const std::size_t P = d.ho * d.wo;
  const std::size_t x_img = d.ci * d.h * d.w;
  const std::size_t y_img = d.co * P;

  run_chunks(d.n, conv_flops(d) >= kPoolMinFlops,
             [&](std::size_t n0, std::size_t n1) {
               Workspace& ws = Workspace::tls();
               for (std::size_t img = n0; img < n1; ++img) {
                 Workspace::Scope scope(ws);
                 double* col = ws.alloc(K * P);
                 {
                   ScopedHistTimer t("kernels.im2col_time");
                   im2col(px + img * x_img, d, spec, col);
                 }
                 ScopedHistTimer t("kernels.gemm_time");
                 double* yi = py + img * y_img;
                 for (std::size_t oc = 0; oc < d.co; ++oc) {
                   double* yrow = yi + oc * P;
                   const double bv = pb[oc];
                   for (std::size_t pos = 0; pos < P; ++pos) yrow[pos] = bv;
                 }
                 // y_img[co,P] += W[co,K] * col[K,P], ascending p — no
                 // zero-skip: naive conv adds every in-bounds term. Four
                 // output channels per sweep, so each col row is read once
                 // per quad instead of once per channel; every y row still
                 // accumulates its own terms in ascending p, so the result
                 // is unchanged.
                 for (std::size_t p0 = 0; p0 < K; p0 += kKc) {
                   const std::size_t p1 = std::min(K, p0 + kKc);
                   std::size_t oc = 0;
                   for (; oc + 4 <= d.co; oc += 4) {
                     const double* wr = pw + oc * K;
                     double* __restrict__ y0 = yi + oc * P;
                     double* __restrict__ y1 = y0 + P;
                     double* __restrict__ y2 = y1 + P;
                     double* __restrict__ y3 = y2 + P;
                     for (std::size_t p = p0; p < p1; ++p) {
                       const double w0 = wr[p];
                       const double w1 = wr[K + p];
                       const double w2 = wr[2 * K + p];
                       const double w3 = wr[3 * K + p];
                       const double* __restrict__ crow = col + p * P;
                       for (std::size_t pos = 0; pos < P; ++pos) {
                         const double cv = crow[pos];
                         y0[pos] += w0 * cv;
                         y1[pos] += w1 * cv;
                         y2[pos] += w2 * cv;
                         y3[pos] += w3 * cv;
                       }
                     }
                   }
                   for (; oc < d.co; ++oc) {
                     const double* wrow = pw + oc * K;
                     double* __restrict__ yrow = yi + oc * P;
                     for (std::size_t p = p0; p < p1; ++p) {
                       const double wv = wrow[p];
                       const double* __restrict__ crow = col + p * P;
                       for (std::size_t pos = 0; pos < P; ++pos)
                         yrow[pos] += wv * crow[pos];
                     }
                   }
                 }
               }
             });
}

void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db) {
  const detail::ConvDims d = detail::conv_dims(x, w, spec);
  require(dy.shape() == Shape{d.n, d.co, d.ho, d.wo},
          "conv2d_backward: dy shape mismatch");
  dx.resize(x.shape());
  dw.resize(w.shape());
  db.resize({d.co});

  const double* px = x.data();
  const double* pw = w.data();
  const double* pdy = dy.data();
  double* pdx = dx.data();
  const std::size_t K = d.ci * d.kh * d.kw;
  const std::size_t P = d.ho * d.wo;
  const std::size_t x_img = d.ci * d.h * d.w;
  const std::size_t y_img = d.co * P;

  // Per-image dw/db partials, reduced in ascending image order afterwards:
  // the result is a pure function of the inputs no matter how images are
  // chunked across workers (the --jobs N ≡ --jobs 1 contract depends on
  // this). Partials live in the *calling* thread's arena; workers only use
  // their own arenas for im2col scratch, so the LIFO discipline holds even
  // when the loop runs inline.
  const std::size_t part_stride = d.co * K + d.co;
  Workspace& cws = Workspace::tls();
  Workspace::Scope cscope(cws);
  double* partials = cws.alloc(d.n * part_stride);

  run_chunks(d.n, conv_flops(d) >= kPoolMinFlops,
             [&](std::size_t n0, std::size_t n1) {
               Workspace& ws = Workspace::tls();
               for (std::size_t img = n0; img < n1; ++img) {
                 Workspace::Scope scope(ws);
                 double* col = ws.alloc(K * P);
                 double* dcol = ws.alloc(K * P);
                 {
                   ScopedHistTimer t("kernels.im2col_time");
                   im2col(px + img * x_img, d, spec, col);
                 }
                 const double* dyi = pdy + img * y_img;
                 double* dwp = partials + img * part_stride;
                 double* dbp = dwp + d.co * K;
                 {
                   ScopedHistTimer t("kernels.gemm_time");
                   // dw_p[co,K] = dy_img[co,P] * col[K,P]^T (dots, ascending
                   // pos), db_p[co] = row sums of dy_img. Four col rows per
                   // sweep of the shared dy row; each dot still sums
                   // ascending pos.
                   for (std::size_t oc = 0; oc < d.co; ++oc) {
                     const double* dyrow = dyi + oc * P;
                     double* dwrow = dwp + oc * K;
                     std::size_t r = 0;
                     for (; r + 4 <= K; r += 4) {
                       const double* __restrict__ c0 = col + r * P;
                       const double* __restrict__ c1 = c0 + P;
                       const double* __restrict__ c2 = c1 + P;
                       const double* __restrict__ c3 = c2 + P;
                       double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                       for (std::size_t pos = 0; pos < P; ++pos) {
                         const double g = dyrow[pos];
                         s0 += g * c0[pos];
                         s1 += g * c1[pos];
                         s2 += g * c2[pos];
                         s3 += g * c3[pos];
                       }
                       dwrow[r] = s0;
                       dwrow[r + 1] = s1;
                       dwrow[r + 2] = s2;
                       dwrow[r + 3] = s3;
                     }
                     for (; r < K; ++r) {
                       const double* crow = col + r * P;
                       double s = 0.0;
                       for (std::size_t pos = 0; pos < P; ++pos)
                         s += dyrow[pos] * crow[pos];
                       dwrow[r] = s;
                     }
                     double sb = 0.0;
                     for (std::size_t pos = 0; pos < P; ++pos)
                       sb += dyrow[pos];
                     dbp[oc] = sb;
                   }
                   // dcol[K,P] = W[co,K]^T * dy_img[co,P], ascending oc per
                   // element. Four dcol rows per sweep of the shared dy row.
                   for (std::size_t e = 0; e < K * P; ++e) dcol[e] = 0.0;
                   for (std::size_t oc = 0; oc < d.co; ++oc) {
                     const double* wrow = pw + oc * K;
                     const double* __restrict__ dyrow = dyi + oc * P;
                     std::size_t r = 0;
                     for (; r + 4 <= K; r += 4) {
                       const double w0 = wrow[r];
                       const double w1 = wrow[r + 1];
                       const double w2 = wrow[r + 2];
                       const double w3 = wrow[r + 3];
                       double* __restrict__ d0 = dcol + r * P;
                       double* __restrict__ d1 = d0 + P;
                       double* __restrict__ d2 = d1 + P;
                       double* __restrict__ d3 = d2 + P;
                       for (std::size_t pos = 0; pos < P; ++pos) {
                         const double g = dyrow[pos];
                         d0[pos] += w0 * g;
                         d1[pos] += w1 * g;
                         d2[pos] += w2 * g;
                         d3[pos] += w3 * g;
                       }
                     }
                     for (; r < K; ++r) {
                       const double wv = wrow[r];
                       double* __restrict__ drow = dcol + r * P;
                       for (std::size_t pos = 0; pos < P; ++pos)
                         drow[pos] += wv * dyrow[pos];
                     }
                   }
                 }
                 double* dxi = pdx + img * x_img;
                 ScopedHistTimer t("kernels.im2col_time");
                 for (std::size_t e = 0; e < x_img; ++e) dxi[e] = 0.0;
                 col2im(dcol, d, spec, dxi);
               }
             });

  double* pdw = dw.data();
  double* pdb = db.data();
  for (std::size_t e = 0; e < d.co * K; ++e) pdw[e] = 0.0;
  for (std::size_t oc = 0; oc < d.co; ++oc) pdb[oc] = 0.0;
  for (std::size_t img = 0; img < d.n; ++img) {
    const double* dwp = partials + img * part_stride;
    const double* dbp = dwp + d.co * K;
    for (std::size_t e = 0; e < d.co * K; ++e) pdw[e] += dwp[e];
    for (std::size_t oc = 0; oc < d.co; ++oc) pdb[oc] += dbp[oc];
  }
}

}  // namespace fast

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  ScopedHistTimer t("kernels.gemm_time");
  if (a.rank() == 2 && b.rank() == 2 &&
      gemm_precision() == GemmPrecision::kFp16) {
    fp16::matmul(a, b, c, accumulate);
    return;
  }
  // The simd tier takes every rank-2 shape (no size floor): its lane-blocked
  // order is the tier's contract, so routing tiny shapes to naive would make
  // the dispatched summation order shape-dependent. fast keeps the naive
  // floor — the two are bitwise-equal anyway, so the routing is invisible.
  if (kernel_backend() == KernelBackend::kSimd && a.rank() == 2 &&
      b.rank() == 2) {
    simd::matmul(a, b, c, accumulate);
    return;
  }
  const bool use_fast =
      kernel_backend() == KernelBackend::kFast && a.rank() == 2 &&
      b.rank() == 2 && gemm_flops(a.dim(0), a.dim(1), b.dim(1)) >= kFastMinFlops;
  if (use_fast) {
    fast::matmul(a, b, c, accumulate);
  } else {
    naive::matmul(a, b, c, accumulate);
  }
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  ScopedHistTimer t("kernels.gemm_time");
  if (a.rank() == 2 && b.rank() == 2 &&
      gemm_precision() == GemmPrecision::kFp16) {
    fp16::matmul_at(a, b, c);
    return;
  }
  if (kernel_backend() == KernelBackend::kSimd && a.rank() == 2 &&
      b.rank() == 2) {
    simd::matmul_at(a, b, c);
    return;
  }
  const bool use_fast =
      kernel_backend() == KernelBackend::kFast && a.rank() == 2 &&
      b.rank() == 2 && gemm_flops(a.dim(1), a.dim(0), b.dim(1)) >= kFastMinFlops;
  if (use_fast) {
    fast::matmul_at(a, b, c);
  } else {
    naive::matmul_at(a, b, c);
  }
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  ScopedHistTimer t("kernels.gemm_time");
  if (a.rank() == 2 && b.rank() == 2 &&
      gemm_precision() == GemmPrecision::kFp16) {
    fp16::matmul_bt(a, b, c);
    return;
  }
  if (kernel_backend() == KernelBackend::kSimd && a.rank() == 2 &&
      b.rank() == 2) {
    simd::matmul_bt(a, b, c);
    return;
  }
  const bool use_fast =
      kernel_backend() == KernelBackend::kFast && a.rank() == 2 &&
      b.rank() == 2 &&
      gemm_flops(a.dim(0), a.dim(1), b.dim(0)) >= kFastMinFlops;
  if (use_fast) {
    fast::matmul_bt(a, b, c);
  } else {
    naive::matmul_bt(a, b, c);
  }
}

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    const ConvSpec& spec, Tensor& y) {
  if (kernel_backend() == KernelBackend::kSimd && x.rank() == 4 &&
      w.rank() == 4) {
    simd::conv2d_forward(x, w, b, spec, y);
    return;
  }
  const bool use_fast = kernel_backend() == KernelBackend::kFast &&
                        x.rank() == 4 && w.rank() == 4 &&
                        conv_flops(detail::conv_dims(x, w, spec)) >=
                            kFastMinFlops;
  if (use_fast) {
    fast::conv2d_forward(x, w, b, spec, y);
  } else {
    naive::conv2d_forward(x, w, b, spec, y);
  }
}

void conv2d_backward(const Tensor& x, const Tensor& w, const ConvSpec& spec,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& db) {
  if (kernel_backend() == KernelBackend::kSimd && x.rank() == 4 &&
      w.rank() == 4) {
    simd::conv2d_backward(x, w, spec, dy, dx, dw, db);
    return;
  }
  const bool use_fast = kernel_backend() == KernelBackend::kFast &&
                        x.rank() == 4 && w.rank() == 4 &&
                        conv_flops(detail::conv_dims(x, w, spec)) >=
                            kFastMinFlops;
  if (use_fast) {
    fast::conv2d_backward(x, w, spec, dy, dx, dw, db);
  } else {
    naive::conv2d_backward(x, w, spec, dy, dx, dw, db);
  }
}

void maxpool2d_forward(const Tensor& x, const ConvSpec& spec, Tensor& y,
                       std::vector<std::size_t>& argmax) {
  require(x.rank() == 4, "maxpool2d: input must be [N,C,H,W]");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t ho = spec.out_extent(h), wo = spec.out_extent(w);
  y.resize({n, c, ho, wo});
  // ckptfi-lint: allow(arena-kernel-heap) argmax is a caller-owned output (backward needs it across the arena's batch reset); assign reuses capacity, so steady-state batches stay allocation-free
  argmax.assign(y.numel(), 0);

  const double* px = x.data();
  double* py = y.data();
  std::size_t yoff = 0;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const double* xmap = px + (img * c + ch) * h * w;
      const std::size_t base = (img * c + ch) * h * w;
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox, ++yoff) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_off = 0;
          bool found = false;
          const std::ptrdiff_t iy0 =
              static_cast<std::ptrdiff_t>(oy * spec.stride) -
              static_cast<std::ptrdiff_t>(spec.pad);
          const std::ptrdiff_t ix0 =
              static_cast<std::ptrdiff_t>(ox * spec.stride) -
              static_cast<std::ptrdiff_t>(spec.pad);
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              const std::size_t off = static_cast<std::size_t>(iy) * w +
                                      static_cast<std::size_t>(ix);
              // NaN-aware: max(NaN, x) propagates NaN like framework kernels.
              const double v = xmap[off];
              if (!found || v > best || std::isnan(v)) {
                best = v;
                best_off = off;
                found = true;
                if (std::isnan(v)) goto window_done;
              }
            }
          }
        window_done:
          py[yoff] = found ? best : 0.0;
          argmax[yoff] = base + best_off;
        }
      }
    }
  }
}

void maxpool2d_backward(const Tensor& dy,
                        const std::vector<std::size_t>& argmax, Tensor& dx) {
  require(argmax.size() == dy.numel(), "maxpool2d_backward: argmax mismatch");
  dx.fill(0.0);
  const double* pdy = dy.data();
  double* pdx = dx.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    pdx[argmax[i]] += pdy[i];
  }
}

void global_avgpool_forward(const Tensor& x, Tensor& y) {
  require(x.rank() == 4, "global_avgpool: input must be [N,C,H,W]");
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  y.resize({n, c});
  const double* px = x.data();
  double* py = y.data();
  for (std::size_t i = 0; i < n * c; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < hw; ++j) s += px[i * hw + j];
    py[i] = s / static_cast<double>(hw);
  }
}

void global_avgpool_backward(const Tensor& dy, const Shape& x_shape,
                             Tensor& dx) {
  require(x_shape.size() == 4, "global_avgpool_backward: bad x_shape");
  const std::size_t n = x_shape[0], c = x_shape[1],
                    hw = x_shape[2] * x_shape[3];
  require(dy.shape() == Shape{n, c}, "global_avgpool_backward: dy mismatch");
  dx.resize(x_shape);
  const double* pdy = dy.data();
  double* pdx = dx.data();
  const double inv = 1.0 / static_cast<double>(hw);
  for (std::size_t i = 0; i < n * c; ++i) {
    const double g = pdy[i] * inv;
    for (std::size_t j = 0; j < hw; ++j) pdx[i * hw + j] = g;
  }
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2, "softmax_rows: rank-2 input required");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  probs.resize(logits.shape());
  const double* pl = logits.data();
  double* pp = probs.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = pl + i * k;
    double mx = row[0];
    for (std::size_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double e = std::exp(row[j] - mx);
      pp[i * k + j] = e;
      sum += e;
    }
    for (std::size_t j = 0; j < k; ++j) pp[i * k + j] /= sum;
  }
}

}  // namespace ckptfi
