// The simd backend: explicitly vectorized lane-blocked FMA microkernels with
// runtime ISA dispatch (AVX2+FMA on x86-64, NEON on aarch64, portable scalar
// fallback everywhere), plus the fp16 mixed-precision GEMM path.
//
// Deterministic contract (docs/KERNELS.md). Every kernel is built from two
// accumulation shapes, and the scalar fallback replays them term-for-term
// with std::fma, so scalar ≡ avx2 ≡ neon *bitwise*:
//
//   broadcast shape (matmul, matmul_at, conv forward, conv dcol): each
//   output element is one FMA chain over ascending p — c = fma(a_p, b_p, c)
//   — vectorized across output columns, which shares the broadcast operand
//   but leaves every element's chain untouched. FMA rounds once per term
//   (IEEE correctly-rounded), identically on every ISA. The broadcast
//   operand keeps naive's exact-zero skip, so 0·Inf terms stay masked the
//   way the reference backends mask them.
//
//   dot shape (matmul_bt, conv dw/db): 8 logical lanes regardless of ISA or
//   dtype — lane l accumulates the terms with index ≡ l (mod 8) in ascending
//   order (the tail folds into lanes 0..r-1 the same way), then the lanes
//   are folded in the fixed tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
//   AVX2 carries the lanes in two 4-double ymm registers (one 8-float ymm
//   for fp32), NEON in four float64x2 (two float32x4), the scalar fallback
//   in a double[8] — same lanes, same order, same fold.
//
// The fp16 path quantizes A and B to binary16 storage panels (bitwise
// identical to quantize_value(v, 16)), widens them exactly to fp32, runs the
// same lane-structured kernels with fp32 FMA, and widens the accumulators to
// double on writeback — MPGemmFI's mixed-precision GEMM shape.
//
// Parallelism mirrors the fast backend: chunking over output rows / images
// is a pure function of shape and worker count, conv dw/db go through
// per-image partials reduced in ascending image order, and all scratch lives
// in the Workspace arena (fp32/u16 panels via the typed views).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_detail.hpp"
#include "tensor/workspace.hpp"
#include "util/common.hpp"
#include "util/float16.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define CKPTFI_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define CKPTFI_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ckptfi {

namespace {

using detail::col2im_rows;
using detail::conv_flops;
using detail::gemm_flops;
using detail::im2col;
using detail::kKc;
using detail::kPoolMinFlops;
using detail::run_chunks;
using detail::ScopedHistTimer;

/// Logical accumulator lanes per dot product — the documented reduction
/// width, independent of ISA and dtype.
constexpr std::size_t kLanes = 8;

/// The fixed lane fold: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), each add
/// keeping its left operand's NaN (detail::add_first).
inline double lane_fold(const double* l) {
  using detail::add_first;
  return add_first(add_first(add_first(l[0], l[1]), add_first(l[2], l[3])),
                   add_first(add_first(l[4], l[5]), add_first(l[6], l[7])));
}

inline float lane_fold(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

// ---------------------------------------------------------------------------
// fp64 microkernels. Two shapes, each generic over where B comes from:
//   broadcast_rows: C[r0..r1, n] (+)= A·B[k, n], A(i, p) = pa[i*rs + p*ps]
//   dot_rows:       C[r0..r1, kk] = A[r0..r1, n] · B[kk, n]^T (8-lane dots)
//   row_sums:       dst[i] = Σ_pos src[i, pos]                (8-lane sums)
// matmul is broadcast_rows with A row-major, matmul_at with A transposed,
// matmul_bt is dot_rows; all three read a dense B. The conv driver adds the
// B sources of ImageB / DenseB panels and the Init modes below (see the
// driver at the end of this namespace).
// ---------------------------------------------------------------------------

/// B as a dense matrix: row p starts at b + p*ld.
struct DenseB {
  const double* b;
  std::size_t ld;
  const double* row(std::size_t p) const { return b + p * ld; }
  std::size_t col(std::size_t j) const { return j; }
};

/// B as the col matrix of a stride-1 convolution, read in place from a
/// zero-padded image: row p = tap (ic, ky, kx) starts at roff[p], and the
/// 8-column stripe holding column j = (oy, ox) starts at soff[j / 8]. Valid
/// when wo % 8 == 0, so that no stripe crosses an output row.
struct ImageB {
  const double* img;
  const std::size_t* roff;
  const std::size_t* soff;
  const double* row(std::size_t p) const { return img + roff[p]; }
  std::size_t col(std::size_t j) const {
    return soff[j / kLanes] + j % kLanes;
  }
};

/// Where the broadcast shape's accumulators start before the first term:
/// the C already in memory, +0.0, or bias[i] for row i.
enum class Init { kLoad, kZero, kBias };

inline double init_value(Init init, const double* bias, std::size_t i) {
  return init == Init::kBias ? bias[i] : 0.0;
}

template <class B>
void broadcast_rows_scalar(const double* pa, std::size_t rs, std::size_t ps,
                           const B& b, double* pc, std::size_t r0,
                           std::size_t r1, std::size_t k, std::size_t n,
                           Init init, const double* bias) {
  for (std::size_t p0 = 0; p0 == 0 || p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* a = pa + i * rs;
      double* crow = pc + i * n;
      if (p0 == 0 && init != Init::kLoad)
        std::fill_n(crow, n, init_value(init, bias, i));
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = a[p * ps];
        if (av == 0.0) continue;  // broadcast zero-skip: masks 0·Inf
        const double* brow = b.row(p);
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fma(av, brow[b.col(j)], crow[j]);
      }
    }
  }
}

template <class B>
void dot_rows_scalar(const double* pa, const B& b, double* pc, std::size_t r0,
                     std::size_t r1, std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* arow = pa + i * n;
    double* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const double* brow = b.row(j);
      double lanes[kLanes] = {};
      for (std::size_t p = 0; p < n8; p += kLanes) {
        const double* bp = brow + b.col(p);
        for (std::size_t l = 0; l < kLanes; ++l)
          lanes[l] = std::fma(arow[p + l], bp[l], lanes[l]);
      }
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fma(arow[p], brow[b.col(p)], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

void gemm_rows_scalar(const double* pa, const double* pb, double* pc,
                      std::size_t r0, std::size_t r1, std::size_t k,
                      std::size_t n) {
  broadcast_rows_scalar(pa, k, 1, DenseB{pb, n}, pc, r0, r1, k, n,
                        Init::kLoad, nullptr);
}

void gemm_at_rows_scalar(const double* pa, const double* pb, double* pc,
                         std::size_t r0, std::size_t r1, std::size_t k,
                         std::size_t m, std::size_t n) {
  broadcast_rows_scalar(pa, 1, m, DenseB{pb, n}, pc, r0, r1, k, n,
                        Init::kLoad, nullptr);
}

void gemm_bt_rows_scalar(const double* pa, const double* pb, double* pc,
                         std::size_t r0, std::size_t r1, std::size_t n,
                         std::size_t kk) {
  dot_rows_scalar(pa, DenseB{pb, n}, pc, r0, r1, n, kk);
}

void row_sums_scalar(const double* src, double* dst, std::size_t rows,
                     std::size_t n) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = src + i * n;
    double lanes[kLanes] = {};
    for (std::size_t p = 0; p < n8; p += kLanes)
      for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += row[p + l];
    for (std::size_t p = n8; p < n; ++p) lanes[p - n8] += row[p];
    dst[i] = lane_fold(lanes);
  }
}

// ---------------------------------------------------------------------------
// fp32 microkernels (the fp16 mixed-precision path): same shapes, same lane
// structure (one 8-float ymm on AVX2), fp32 FMA.
// ---------------------------------------------------------------------------

void gemm_rows_f32_scalar(const float* pa, const float* pb, float* pc,
                          std::size_t r0, std::size_t r1, std::size_t k,
                          std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_at_rows_f32_scalar(const float* pa, const float* pb, float* pc,
                             std::size_t r0, std::size_t r1, std::size_t k,
                             std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        for (std::size_t j = 0; j < n; ++j)
          crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_bt_rows_f32_scalar(const float* pa, const float* pb, float* pc,
                             std::size_t r0, std::size_t r1, std::size_t n,
                             std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const float* brow = pb + j * n;
      float lanes[kLanes] = {};
      for (std::size_t p = 0; p < n8; p += kLanes)
        for (std::size_t l = 0; l < kLanes; ++l)
          lanes[l] = std::fmaf(arow[p + l], brow[p + l], lanes[l]);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fmaf(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

#if defined(CKPTFI_SIMD_X86)

// AVX2 + FMA3. `vfmadd` rounds once per term exactly like std::fma, and the
// broadcast/lane structure matches the scalar fallback term-for-term, so
// these are bitwise-identical to the *_scalar kernels above.
//
// The FMAs go through fmadd()/fmadd_sd(), which fix the instruction form.
// When several operands of one FMA are NaN, x86 returns the product's first
// operand's NaN, else the second's, else the addend's. The intrinsic leaves
// the form, and with it which NaN survives, to the register allocator;
// these helpers keep the NaN operand order the kernels were recorded with
// (tests/integration/test_training_goldens.cpp pins it).

/// acc = x*y + acc; on NaN operands x wins over y, y over acc.
__attribute__((target("avx2,fma"))) inline void fmadd(__m256d& acc, __m256d x,
                                                      __m256d y) {
  asm("vfmadd231pd %[y], %[x], %[acc]"
      : [acc] "+x"(acc)
      : [x] "x"(x), [y] "xm"(y));
}

/// Scalar fmadd(): acc = x*y + acc with the same NaN operand order.
__attribute__((target("avx2,fma"))) inline void fmadd_sd(double& acc, double x,
                                                         double y) {
  asm("vfmadd231sd %[y], %[x], %[acc]"
      : [acc] "+x"(acc)
      : [x] "x"(x), [y] "xm"(y));
}

/// a + b, a's NaN kept when both are NaN: detail::add_first in VEX form,
/// for AVX2 code.
__attribute__((target("avx2,fma"))) inline double add_first_vex(double a,
                                                               double b) {
  asm("vaddsd %[b], %[a], %[a]" : [a] "+x"(a) : [b] "xm"(b));
  return a;
}

/// lane_fold() for AVX2 code: the same adds in the same order.
__attribute__((target("avx2,fma"))) inline double lane_fold_avx2(
    const double* l) {
  return add_first_vex(
      add_first_vex(add_first_vex(l[0], l[1]), add_first_vex(l[2], l[3])),
      add_first_vex(add_first_vex(l[4], l[5]), add_first_vex(l[6], l[7])));
}

/// One C row's columns [j0, n) over the k-block [p0, p1): the 4-wide and
/// scalar column tails of the broadcast kernel. `a` is the row's A
/// operand, `ps` its stride over p.
template <class B, bool kSkip>
__attribute__((target("avx2,fma"))) void broadcast_tail_avx2(
    const double* a, std::size_t ps, const B& b, double* crow, std::size_t p0,
    std::size_t p1, std::size_t j0, std::size_t n) {
  for (std::size_t p = p0; p < p1; ++p) {
    const double av = a[p * ps];
    if (kSkip && av == 0.0) continue;  // broadcast zero-skip: masks 0·Inf
    const double* brow = b.row(p);
    const __m256d va = _mm256_set1_pd(av);
    std::size_t j = j0;
    for (; j + 4 <= n; j += 4) {
      __m256d c = _mm256_loadu_pd(crow + j);
      fmadd(c, va, _mm256_loadu_pd(brow + b.col(j)));
      _mm256_storeu_pd(crow + j, c);
    }
    for (; j < n; ++j) fmadd_sd(crow[j], av, brow[b.col(j)]);
  }
}

/// The broadcast shape: C[r0..r1, n] (+)= A·B[k, n] with
/// A(i, p) = pa[i*rs + p*ps]. Per k-block, each 8-column stripe of C is
/// held in ymm registers, 4 rows at a time, while p runs over the block.
/// The B stripe of a block (kKc x 8 doubles) stays in L1 across all row
/// tiles. On the first block a tile starts from `init` instead of C, so a
/// bias- or zero-started C is never written before its chain runs. Every
/// element still receives its FMA chain in ascending p, with the zero-skip
/// decided per row and term. A caller that knows A holds no zero passes
/// kSkip = false: the skip could never fire, so dropping its tests changes
/// no bit.
template <class B, bool kSkip = true>
__attribute__((target("avx2,fma"))) void broadcast_rows_avx2(
    const double* pa, std::size_t rs, std::size_t ps, const B& b, double* pc,
    std::size_t r0, std::size_t r1, std::size_t k, std::size_t n, Init init,
    const double* bias) {
  const std::size_t n8 = n - n % 8;
  for (std::size_t p0 = 0; p0 == 0 || p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    const bool load = p0 > 0 || init == Init::kLoad;
    for (std::size_t j = 0; j < n8; j += 8) {
      const std::size_t jb = b.col(j);
      std::size_t i = r0;
      for (; i + 4 <= r1; i += 4) {
        const double* a = pa + i * rs;
        double* c = pc + i * n + j;
        __m256d c00, c01, c10, c11, c20, c21, c30, c31;
        if (load) {
          c00 = _mm256_loadu_pd(c), c01 = _mm256_loadu_pd(c + 4);
          c10 = _mm256_loadu_pd(c + n), c11 = _mm256_loadu_pd(c + n + 4);
          c20 = _mm256_loadu_pd(c + 2 * n);
          c21 = _mm256_loadu_pd(c + 2 * n + 4);
          c30 = _mm256_loadu_pd(c + 3 * n);
          c31 = _mm256_loadu_pd(c + 3 * n + 4);
        } else {
          c00 = c01 = _mm256_set1_pd(init_value(init, bias, i));
          c10 = c11 = _mm256_set1_pd(init_value(init, bias, i + 1));
          c20 = c21 = _mm256_set1_pd(init_value(init, bias, i + 2));
          c30 = c31 = _mm256_set1_pd(init_value(init, bias, i + 3));
        }
        for (std::size_t p = p0; p < p1; ++p) {
          const double* ap = a + p * ps;
          const double* bp = b.row(p) + jb;
          const __m256d b0 = _mm256_loadu_pd(bp), b1 = _mm256_loadu_pd(bp + 4);
          if constexpr (!kSkip) {
            __m256d v = _mm256_broadcast_sd(ap);
            fmadd(c00, v, b0);
            fmadd(c01, v, b1);
            v = _mm256_broadcast_sd(ap + rs);
            fmadd(c10, v, b0);
            fmadd(c11, v, b1);
            v = _mm256_broadcast_sd(ap + 2 * rs);
            fmadd(c20, v, b0);
            fmadd(c21, v, b1);
            v = _mm256_broadcast_sd(ap + 3 * rs);
            fmadd(c30, v, b0);
            fmadd(c31, v, b1);
            continue;
          }
          const double a0 = ap[0], a1 = ap[rs], a2 = ap[2 * rs],
                       a3 = ap[3 * rs];
          if (a0 != 0.0) {
            const __m256d v = _mm256_set1_pd(a0);
            fmadd(c00, v, b0);
            fmadd(c01, v, b1);
          }
          if (a1 != 0.0) {
            const __m256d v = _mm256_set1_pd(a1);
            fmadd(c10, v, b0);
            fmadd(c11, v, b1);
          }
          if (a2 != 0.0) {
            const __m256d v = _mm256_set1_pd(a2);
            fmadd(c20, v, b0);
            fmadd(c21, v, b1);
          }
          if (a3 != 0.0) {
            const __m256d v = _mm256_set1_pd(a3);
            fmadd(c30, v, b0);
            fmadd(c31, v, b1);
          }
        }
        _mm256_storeu_pd(c, c00);
        _mm256_storeu_pd(c + 4, c01);
        _mm256_storeu_pd(c + n, c10);
        _mm256_storeu_pd(c + n + 4, c11);
        _mm256_storeu_pd(c + 2 * n, c20);
        _mm256_storeu_pd(c + 2 * n + 4, c21);
        _mm256_storeu_pd(c + 3 * n, c30);
        _mm256_storeu_pd(c + 3 * n + 4, c31);
      }
      for (; i < r1; ++i) {
        const double* a = pa + i * rs;
        double* c = pc + i * n + j;
        __m256d c0, c1;
        if (load) {
          c0 = _mm256_loadu_pd(c), c1 = _mm256_loadu_pd(c + 4);
        } else {
          c0 = c1 = _mm256_set1_pd(init_value(init, bias, i));
        }
        for (std::size_t p = p0; p < p1; ++p) {
          const double av = a[p * ps];
          if (kSkip && av == 0.0) continue;
          const double* bp = b.row(p) + jb;
          const __m256d v = _mm256_set1_pd(av);
          fmadd(c0, v, _mm256_loadu_pd(bp));
          fmadd(c1, v, _mm256_loadu_pd(bp + 4));
        }
        _mm256_storeu_pd(c, c0);
        _mm256_storeu_pd(c + 4, c1);
      }
    }
    if (n8 < n) {
      for (std::size_t i = r0; i < r1; ++i) {
        double* crow = pc + i * n;
        if (!load) std::fill(crow + n8, crow + n, init_value(init, bias, i));
        broadcast_tail_avx2<B, kSkip>(pa + i * rs, ps, b, crow, p0, p1, n8,
                                      n);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t n) {
  broadcast_rows_avx2(pa, k, 1, DenseB{pb, n}, pc, r0, r1, k, n, Init::kLoad,
                      nullptr);
}

__attribute__((target("avx2,fma"))) void gemm_at_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t m, std::size_t n) {
  broadcast_rows_avx2(pa, 1, m, DenseB{pb, n}, pc, r0, r1, k, n, Init::kLoad,
                      nullptr);
}

/// Finish one 8-lane dot whose vector lanes are stored in `lanes`: fold the
/// tail terms p >= n8 into lanes 0.., then the fixed lane fold.
template <class B>
__attribute__((target("avx2,fma"))) inline double finish_dot_avx2(
    double* lanes, const double* arow, const B& b, const double* brow,
    std::size_t n8, std::size_t n) {
  for (std::size_t p = n8; p < n; ++p)
    fmadd_sd(lanes[p - n8], brow[b.col(p)], arow[p]);
  return lane_fold_avx2(lanes);
}

/// The dot shape, four outputs per pass over the A row: C[i, j..j+4) share
/// each A load, and every output keeps its own 8 lanes, tail and fold.
template <class B>
__attribute__((target("avx2,fma"))) void dot_rows_avx2(
    const double* pa, const B& b, double* pc, std::size_t r0, std::size_t r1,
    std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* arow = pa + i * n;
    double* crow = pc + i * kk;
    std::size_t j = 0;
    for (; j + 4 <= kk; j += 4) {
      const double* b0 = b.row(j);
      const double* b1 = b.row(j + 1);
      const double* b2 = b.row(j + 2);
      const double* b3 = b.row(j + 3);
      __m256d s00 = _mm256_setzero_pd(), s01 = _mm256_setzero_pd();
      __m256d s10 = _mm256_setzero_pd(), s11 = _mm256_setzero_pd();
      __m256d s20 = _mm256_setzero_pd(), s21 = _mm256_setzero_pd();
      __m256d s30 = _mm256_setzero_pd(), s31 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < n8; p += kLanes) {
        const std::size_t q = b.col(p);
        const __m256d a0 = _mm256_loadu_pd(arow + p);
        const __m256d a1 = _mm256_loadu_pd(arow + p + 4);
        fmadd(s00, a0, _mm256_loadu_pd(b0 + q));
        fmadd(s01, a1, _mm256_loadu_pd(b0 + q + 4));
        fmadd(s10, a0, _mm256_loadu_pd(b1 + q));
        fmadd(s11, a1, _mm256_loadu_pd(b1 + q + 4));
        fmadd(s20, a0, _mm256_loadu_pd(b2 + q));
        fmadd(s21, a1, _mm256_loadu_pd(b2 + q + 4));
        fmadd(s30, a0, _mm256_loadu_pd(b3 + q));
        fmadd(s31, a1, _mm256_loadu_pd(b3 + q + 4));
      }
      double lanes[4][kLanes];
      _mm256_storeu_pd(lanes[0], s00);
      _mm256_storeu_pd(lanes[0] + 4, s01);
      _mm256_storeu_pd(lanes[1], s10);
      _mm256_storeu_pd(lanes[1] + 4, s11);
      _mm256_storeu_pd(lanes[2], s20);
      _mm256_storeu_pd(lanes[2] + 4, s21);
      _mm256_storeu_pd(lanes[3], s30);
      _mm256_storeu_pd(lanes[3] + 4, s31);
      crow[j] = finish_dot_avx2(lanes[0], arow, b, b0, n8, n);
      crow[j + 1] = finish_dot_avx2(lanes[1], arow, b, b1, n8, n);
      crow[j + 2] = finish_dot_avx2(lanes[2], arow, b, b2, n8, n);
      crow[j + 3] = finish_dot_avx2(lanes[3], arow, b, b3, n8, n);
    }
    for (; j < kk; ++j) {
      const double* brow = b.row(j);
      __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < n8; p += kLanes) {
        const double* bp = brow + b.col(p);
        fmadd(s0, _mm256_loadu_pd(arow + p), _mm256_loadu_pd(bp));
        fmadd(s1, _mm256_loadu_pd(arow + p + 4), _mm256_loadu_pd(bp + 4));
      }
      double lanes[kLanes];
      _mm256_storeu_pd(lanes, s0);
      _mm256_storeu_pd(lanes + 4, s1);
      crow[j] = finish_dot_avx2(lanes, arow, b, brow, n8, n);
    }
  }
}

/// a = a + b with a's NaN kept when both are NaN: lane_fold's order, four
/// lanes at a time.
__attribute__((target("avx2,fma"))) inline __m256d vadd(__m256d a,
                                                       __m256d b) {
  asm("vaddpd %[b], %[a], %[a]" : [a] "+x"(a) : [b] "xm"(b));
  return a;
}

/// Dots shorter than this run across outputs (dot_short_avx2): there the
/// per-output fold and tail cost more than the dot itself.
constexpr std::size_t kShortDot = 32;

/// The dot shape for n < kShortDot, vectorized across outputs instead of
/// along the dot: one ymm holds logical lane l of the four outputs
/// C[i..i+4, j]. Each output keeps its own lanes, terms and operand order
/// (A before B in the 8-lane blocks, B before A in the tail) and the fixed
/// fold, done here as vertical adds.
template <class B>
__attribute__((target("avx2,fma"))) void dot_short_avx2(
    const double* pa, const B& b, double* pc, std::size_t r0, std::size_t r1,
    std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes, tail = n - n8;
  for (std::size_t i = r0; i < r1; i += 4) {
    const std::size_t rows = std::min<std::size_t>(4, r1 - i);
    // A rows i..i+4 transposed: at[q] holds term q of the four rows.
    alignas(32) double at[kShortDot][4] = {};
    for (std::size_t q = 0; q < n; ++q)
      for (std::size_t r = 0; r < rows; ++r) at[q][r] = pa[(i + r) * n + q];
    for (std::size_t j = 0; j < kk; ++j) {
      const double* brow = b.row(j);
      __m256d l0 = _mm256_setzero_pd(), l1 = l0, l2 = l0, l3 = l0, l4 = l0,
              l5 = l0, l6 = l0, l7 = l0;
      for (std::size_t q = 0; q < n8; q += kLanes) {
        const double* bq = brow + b.col(q);
        fmadd(l0, _mm256_load_pd(at[q]), _mm256_broadcast_sd(bq));
        fmadd(l1, _mm256_load_pd(at[q + 1]), _mm256_broadcast_sd(bq + 1));
        fmadd(l2, _mm256_load_pd(at[q + 2]), _mm256_broadcast_sd(bq + 2));
        fmadd(l3, _mm256_load_pd(at[q + 3]), _mm256_broadcast_sd(bq + 3));
        fmadd(l4, _mm256_load_pd(at[q + 4]), _mm256_broadcast_sd(bq + 4));
        fmadd(l5, _mm256_load_pd(at[q + 5]), _mm256_broadcast_sd(bq + 5));
        fmadd(l6, _mm256_load_pd(at[q + 6]), _mm256_broadcast_sd(bq + 6));
        fmadd(l7, _mm256_load_pd(at[q + 7]), _mm256_broadcast_sd(bq + 7));
      }
      // Tail term n8 + t goes to lane t, B before A.
      const double* bt = tail > 0 ? brow + b.col(n8) : brow;
      if (tail > 0) fmadd(l0, _mm256_broadcast_sd(bt), _mm256_load_pd(at[n8]));
      if (tail > 1)
        fmadd(l1, _mm256_broadcast_sd(bt + 1), _mm256_load_pd(at[n8 + 1]));
      if (tail > 2)
        fmadd(l2, _mm256_broadcast_sd(bt + 2), _mm256_load_pd(at[n8 + 2]));
      if (tail > 3)
        fmadd(l3, _mm256_broadcast_sd(bt + 3), _mm256_load_pd(at[n8 + 3]));
      if (tail > 4)
        fmadd(l4, _mm256_broadcast_sd(bt + 4), _mm256_load_pd(at[n8 + 4]));
      if (tail > 5)
        fmadd(l5, _mm256_broadcast_sd(bt + 5), _mm256_load_pd(at[n8 + 5]));
      if (tail > 6)
        fmadd(l6, _mm256_broadcast_sd(bt + 6), _mm256_load_pd(at[n8 + 6]));
      const __m256d sum = vadd(vadd(vadd(l0, l1), vadd(l2, l3)),
                               vadd(vadd(l4, l5), vadd(l6, l7)));
      alignas(32) double out[4];
      _mm256_store_pd(out, sum);
      for (std::size_t r = 0; r < rows; ++r) pc[(i + r) * kk + j] = out[r];
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_bt_rows_avx2(
    const double* pa, const double* pb, double* pc, std::size_t r0,
    std::size_t r1, std::size_t n, std::size_t kk) {
  dot_rows_avx2(pa, DenseB{pb, n}, pc, r0, r1, n, kk);
}

/// col2im_rows with each in-bounds run of a stride-1 convolution added 4
/// lanes wide. Every element still gets dst = dst + src, dst first on NaN,
/// as detail::add_first pins it in the scalar loop. Output rows shorter
/// than a stripe keep the scalar loop: there the next tap's run overlaps
/// the last one's stores at an offset, and a 4-wide reload of them cannot
/// be forwarded.
__attribute__((target("avx2,fma"))) void col2im_rows_avx2(
    const double* col, std::size_t ld, const detail::ConvDims& d,
    const ConvSpec& spec, std::size_t r0, std::size_t r1, double* dxi) {
  if (spec.stride != 1 || d.wo < kLanes) {
    col2im_rows(col, ld, d, spec, r0, r1, dxi);
    return;
  }
  const std::size_t taps = d.kh * d.kw;
  for (std::size_t r = r0; r < r1; ++r, col += ld) {
    const std::size_t ic = r / taps, ky = r % taps / d.kw, kx = r % d.kw;
    const detail::TapRun rows = detail::tap_run(ky, d.h, d.ho, spec);
    const detail::TapRun cols = detail::tap_run(kx, d.w, d.wo, spec);
    const std::size_t run = cols.hi - cols.lo;
    double* dxmap = dxi + ic * d.h * d.w;
    for (std::size_t oy = rows.lo; oy < rows.hi && run > 0; ++oy) {
      double* dst = dxmap + detail::tap_offset(oy, ky, cols.lo, kx, d, spec);
      const double* src = col + oy * d.wo + cols.lo;
      std::size_t j = 0;
      for (; j + 4 <= run; j += 4) {
        __m256d acc = _mm256_loadu_pd(dst + j);
        asm("vaddpd %[s], %[acc], %[acc]"
            : [acc] "+x"(acc)
            : [s] "xm"(_mm256_loadu_pd(src + j)));
        _mm256_storeu_pd(dst + j, acc);
      }
      for (; j < run; ++j) dst[j] = add_first_vex(dst[j], src[j]);
    }
  }
}

__attribute__((target("avx2,fma"))) void row_sums_avx2(const double* src,
                                                      double* dst,
                                                      std::size_t rows,
                                                      std::size_t n) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = src + i * n;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n8; p += kLanes) {
      acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(row + p));
      acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(row + p + 4));
    }
    double lanes[kLanes];
    _mm256_storeu_pd(lanes, acc0);
    _mm256_storeu_pd(lanes + 4, acc1);
    for (std::size_t p = n8; p < n; ++p) lanes[p - n8] += row[p];
    dst[i] = lane_fold_avx2(lanes);
  }
}

__attribute__((target("avx2,fma"))) void gemm_rows_f32_avx2(
    const float* pa, const float* pb, float* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const __m256 va = _mm256_set1_ps(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256 c0 = _mm256_loadu_ps(crow + j);
          c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), c0);
          _mm256_storeu_ps(crow + j, c0);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_at_rows_f32_avx2(
    const float* pa, const float* pb, float* pc, std::size_t r0,
    std::size_t r1, std::size_t k, std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const __m256 va = _mm256_set1_ps(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m256 c0 = _mm256_loadu_ps(crow + j);
          c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), c0);
          _mm256_storeu_ps(crow + j, c0);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_bt_rows_f32_avx2(
    const float* pa, const float* pb, float* pc, std::size_t r0,
    std::size_t r1, std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const float* brow = pb + j * n;
      __m256 acc = _mm256_setzero_ps();  // lanes 0..7 in one ymm
      for (std::size_t p = 0; p < n8; p += kLanes)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      float lanes[kLanes];
      _mm256_storeu_ps(lanes, acc);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fmaf(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

#elif defined(CKPTFI_SIMD_NEON)

// aarch64 Advanced SIMD. vfmaq fuses exactly like std::fma; lane layout
// matches the scalar fallback (four float64x2 / two float32x4 hold the 8
// logical lanes).

/// The broadcast shape, NEON: the scalar twin's loop with each C row's
/// columns 4 at a time. B's columns j..j+3 are adjacent for both B sources
/// when j % 4 == 0 (an ImageB stripe is 8 wide).
template <class B>
void broadcast_rows_neon(const double* pa, std::size_t rs, std::size_t ps,
                         const B& b, double* pc, std::size_t r0,
                         std::size_t r1, std::size_t k, std::size_t n,
                         Init init, const double* bias) {
  for (std::size_t p0 = 0; p0 == 0 || p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* a = pa + i * rs;
      double* crow = pc + i * n;
      if (p0 == 0 && init != Init::kLoad)
        std::fill_n(crow, n, init_value(init, bias, i));
      for (std::size_t p = p0; p < p1; ++p) {
        const double av = a[p * ps];
        if (av == 0.0) continue;  // broadcast zero-skip: masks 0·Inf
        const double* brow = b.row(p);
        const float64x2_t va = vdupq_n_f64(av);
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          const double* bp = brow + b.col(j);
          float64x2_t c0 = vld1q_f64(crow + j);
          float64x2_t c1 = vld1q_f64(crow + j + 2);
          c0 = vfmaq_f64(c0, va, vld1q_f64(bp));
          c1 = vfmaq_f64(c1, va, vld1q_f64(bp + 2));
          vst1q_f64(crow + j, c0);
          vst1q_f64(crow + j + 2, c1);
        }
        for (; j < n; ++j) crow[j] = std::fma(av, brow[b.col(j)], crow[j]);
      }
    }
  }
}

/// The dot shape, NEON: lanes 0..7 in four float64x2.
template <class B>
void dot_rows_neon(const double* pa, const B& b, double* pc, std::size_t r0,
                   std::size_t r1, std::size_t n, std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* arow = pa + i * n;
    double* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const double* brow = b.row(j);
      float64x2_t a01 = vdupq_n_f64(0.0);  // lanes 0,1
      float64x2_t a23 = vdupq_n_f64(0.0);  // lanes 2,3
      float64x2_t a45 = vdupq_n_f64(0.0);  // lanes 4,5
      float64x2_t a67 = vdupq_n_f64(0.0);  // lanes 6,7
      for (std::size_t p = 0; p < n8; p += kLanes) {
        const double* bp = brow + b.col(p);
        a01 = vfmaq_f64(a01, vld1q_f64(arow + p), vld1q_f64(bp));
        a23 = vfmaq_f64(a23, vld1q_f64(arow + p + 2), vld1q_f64(bp + 2));
        a45 = vfmaq_f64(a45, vld1q_f64(arow + p + 4), vld1q_f64(bp + 4));
        a67 = vfmaq_f64(a67, vld1q_f64(arow + p + 6), vld1q_f64(bp + 6));
      }
      double lanes[kLanes];
      vst1q_f64(lanes, a01);
      vst1q_f64(lanes + 2, a23);
      vst1q_f64(lanes + 4, a45);
      vst1q_f64(lanes + 6, a67);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fma(arow[p], brow[b.col(p)], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

void gemm_rows_neon(const double* pa, const double* pb, double* pc,
                    std::size_t r0, std::size_t r1, std::size_t k,
                    std::size_t n) {
  broadcast_rows_neon(pa, k, 1, DenseB{pb, n}, pc, r0, r1, k, n, Init::kLoad,
                      nullptr);
}

void gemm_at_rows_neon(const double* pa, const double* pb, double* pc,
                       std::size_t r0, std::size_t r1, std::size_t k,
                       std::size_t m, std::size_t n) {
  broadcast_rows_neon(pa, 1, m, DenseB{pb, n}, pc, r0, r1, k, n, Init::kLoad,
                      nullptr);
}

void gemm_bt_rows_neon(const double* pa, const double* pb, double* pc,
                       std::size_t r0, std::size_t r1, std::size_t n,
                       std::size_t kk) {
  dot_rows_neon(pa, DenseB{pb, n}, pc, r0, r1, n, kk);
}

void row_sums_neon(const double* src, double* dst, std::size_t rows,
                   std::size_t n) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = src + i * n;
    float64x2_t a01 = vdupq_n_f64(0.0);
    float64x2_t a23 = vdupq_n_f64(0.0);
    float64x2_t a45 = vdupq_n_f64(0.0);
    float64x2_t a67 = vdupq_n_f64(0.0);
    for (std::size_t p = 0; p < n8; p += kLanes) {
      a01 = vaddq_f64(a01, vld1q_f64(row + p));
      a23 = vaddq_f64(a23, vld1q_f64(row + p + 2));
      a45 = vaddq_f64(a45, vld1q_f64(row + p + 4));
      a67 = vaddq_f64(a67, vld1q_f64(row + p + 6));
    }
    double lanes[kLanes];
    vst1q_f64(lanes, a01);
    vst1q_f64(lanes + 2, a23);
    vst1q_f64(lanes + 4, a45);
    vst1q_f64(lanes + 6, a67);
    for (std::size_t p = n8; p < n; ++p) lanes[p - n8] += row[p];
    dst[i] = lane_fold(lanes);
  }
}

void gemm_rows_f32_neon(const float* pa, const float* pb, float* pc,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const float32x4_t va = vdupq_n_f32(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          float32x4_t c0 = vld1q_f32(crow + j);
          float32x4_t c1 = vld1q_f32(crow + j + 4);
          c0 = vfmaq_f32(c0, va, vld1q_f32(brow + j));
          c1 = vfmaq_f32(c1, va, vld1q_f32(brow + j + 4));
          vst1q_f32(crow + j, c0);
          vst1q_f32(crow + j + 4, c1);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_at_rows_f32_neon(const float* pa, const float* pb, float* pc,
                           std::size_t r0, std::size_t r1, std::size_t k,
                           std::size_t m, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        const float* brow = pb + p * n;
        const float32x4_t va = vdupq_n_f32(av);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          float32x4_t c0 = vld1q_f32(crow + j);
          float32x4_t c1 = vld1q_f32(crow + j + 4);
          c0 = vfmaq_f32(c0, va, vld1q_f32(brow + j));
          c1 = vfmaq_f32(c1, va, vld1q_f32(brow + j + 4));
          vst1q_f32(crow + j, c0);
          vst1q_f32(crow + j + 4, c1);
        }
        for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void gemm_bt_rows_f32_neon(const float* pa, const float* pb, float* pc,
                           std::size_t r0, std::size_t r1, std::size_t n,
                           std::size_t kk) {
  const std::size_t n8 = n - n % kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * kk;
    for (std::size_t j = 0; j < kk; ++j) {
      const float* brow = pb + j * n;
      float32x4_t a03 = vdupq_n_f32(0.0f);  // lanes 0..3
      float32x4_t a47 = vdupq_n_f32(0.0f);  // lanes 4..7
      for (std::size_t p = 0; p < n8; p += kLanes) {
        a03 = vfmaq_f32(a03, vld1q_f32(arow + p), vld1q_f32(brow + p));
        a47 = vfmaq_f32(a47, vld1q_f32(arow + p + 4), vld1q_f32(brow + p + 4));
      }
      float lanes[kLanes];
      vst1q_f32(lanes, a03);
      vst1q_f32(lanes + 4, a47);
      for (std::size_t p = n8; p < n; ++p)
        lanes[p - n8] = std::fmaf(arow[p], brow[p], lanes[p - n8]);
      crow[j] = lane_fold(lanes);
    }
  }
}

#endif  // CKPTFI_SIMD_NEON

// ---------------------------------------------------------------------------
// ISA dispatch: one function pointer per kernel shape, picked per entry call
// from simd_isa(). The scalar fallback is always available — it *is* the
// contract the vector paths are bit-tested against.
// ---------------------------------------------------------------------------

using GemmRowsFn = void (*)(const double*, const double*, double*, std::size_t,
                            std::size_t, std::size_t, std::size_t);
using GemmAtRowsFn = void (*)(const double*, const double*, double*,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, std::size_t);
using GemmBtRowsFn = void (*)(const double*, const double*, double*,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t);
using RowSumsFn = void (*)(const double*, double*, std::size_t, std::size_t);
using GemmRowsF32Fn = void (*)(const float*, const float*, float*, std::size_t,
                               std::size_t, std::size_t, std::size_t);
using GemmAtRowsF32Fn = void (*)(const float*, const float*, float*,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t, std::size_t);
using GemmBtRowsF32Fn = void (*)(const float*, const float*, float*,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t);

[[maybe_unused]] bool use_vector_isa() {
  switch (simd_isa()) {
#if defined(CKPTFI_SIMD_X86)
    case SimdIsa::kAvx2:
      return true;
#elif defined(CKPTFI_SIMD_NEON)
    case SimdIsa::kNeon:
      return true;
#endif
    default:
      return false;
  }
}

GemmRowsFn pick_gemm_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_rows_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_rows_neon;
#endif
  return gemm_rows_scalar;
}

GemmAtRowsFn pick_gemm_at_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_at_rows_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_at_rows_neon;
#endif
  return gemm_at_rows_scalar;
}

GemmBtRowsFn pick_gemm_bt_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_bt_rows_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_bt_rows_neon;
#endif
  return gemm_bt_rows_scalar;
}

RowSumsFn pick_row_sums() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return row_sums_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return row_sums_neon;
#endif
  return row_sums_scalar;
}

GemmRowsF32Fn pick_gemm_rows_f32() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_rows_f32_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_rows_f32_neon;
#endif
  return gemm_rows_f32_scalar;
}

GemmAtRowsF32Fn pick_gemm_at_rows_f32() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_at_rows_f32_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_at_rows_f32_neon;
#endif
  return gemm_at_rows_f32_scalar;
}

GemmBtRowsF32Fn pick_gemm_bt_rows_f32() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return gemm_bt_rows_f32_avx2;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return gemm_bt_rows_f32_neon;
#endif
  return gemm_bt_rows_f32_scalar;
}

// The conv driver's kernels: the generic-B broadcast and dot shapes, on
// AVX2 or NEON when available, else their scalar twins (docs/KERNELS.md).
template <class B>
using BroadcastFn = void (*)(const double*, std::size_t, std::size_t,
                             const B&, double*, std::size_t, std::size_t,
                             std::size_t, std::size_t, Init, const double*);
template <class B>
using DotFn = void (*)(const double*, const B&, double*, std::size_t,
                       std::size_t, std::size_t, std::size_t);

/// `a_has_zero`: whether the A operand holds a ±0.0 the zero-skip must
/// mask. Without one the AVX2 kernel drops the per-term tests.
template <class B>
BroadcastFn<B> pick_broadcast(bool a_has_zero) {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa())
    return a_has_zero ? broadcast_rows_avx2<B, true>
                      : broadcast_rows_avx2<B, false>;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return broadcast_rows_neon<B>;
#endif
  (void)a_has_zero;
  return broadcast_rows_scalar<B>;
}

/// Whether w[0, n) holds a ±0.0.
bool has_zero(const double* w, std::size_t n) {
  return std::find(w, w + n, 0.0) != w + n;
}

/// `n`: the dot length the kernel will be called with.
template <class B>
DotFn<B> pick_dot(std::size_t n) {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa())
    return n < kShortDot ? dot_short_avx2<B> : dot_rows_avx2<B>;
#elif defined(CKPTFI_SIMD_NEON)
  if (use_vector_isa()) return dot_rows_neon<B>;
#endif
  (void)n;
  return dot_rows_scalar<B>;
}

using Col2imRowsFn = void (*)(const double*, std::size_t,
                             const detail::ConvDims&, const ConvSpec&,
                             std::size_t, std::size_t, double*);

Col2imRowsFn pick_col2im_rows() {
#if defined(CKPTFI_SIMD_X86)
  if (use_vector_isa()) return col2im_rows_avx2;
#endif
  return col2im_rows;
}

/// Where the conv driver reads the col matrix B [K = ci*kh*kw, P = ho*wo].
enum class ConvPath {
  kDirect,  ///< 1x1, stride 1, no padding: col is the image itself
  kImage,   ///< stride 1, wo % 8 == 0: col read in place from a padded image
  kPanel,   ///< the rest: im2col into a [K, g*P] minibatch panel
};

/// Minibatch panels hold enough images for kPanelCols columns, so layers
/// with short output maps still run whole 8-column stripes, but never more
/// than kPanelBytes of col.
constexpr std::size_t kPanelCols = 64;
constexpr std::size_t kPanelBytes = std::size_t{1} << 18;

/// The fused dx path computes dcol in slabs of about this many doubles
/// (32 KiB), so a slab is still in L1 when col2im_rows adds it into dx.
constexpr std::size_t kSlabDoubles = 4096;

/// A conv call's shape-only constants, shared read-only by all workers.
struct ConvPlan {
  ConvPath path;
  std::size_t K, P, x_img, y_img;
  const std::size_t* roff = nullptr;    ///< ImageB row table (kImage)
  const std::size_t* soff = nullptr;    ///< ImageB stripe table (kImage)
  std::size_t group = 1;                ///< images per panel (kPanel)
  std::size_t slab_rows = 0;            ///< dcol rows per fused dx slab
};

/// The plan of one conv call; tables live in `ws` under the caller's scope.
ConvPlan make_plan(const detail::ConvDims& d, const ConvSpec& spec,
                   Workspace& ws) {
  ConvPlan plan;
  plan.K = d.ci * d.kh * d.kw;
  plan.P = d.ho * d.wo;
  plan.x_img = d.ci * d.h * d.w;
  plan.y_img = d.co * plan.P;
  if (d.kh == 1 && d.kw == 1 && spec.stride == 1 && spec.pad == 0) {
    plan.path = ConvPath::kDirect;
  } else if (spec.stride == 1 && d.wo > 0 && d.wo % kLanes == 0) {
    plan.path = ConvPath::kImage;
    const std::size_t hp = d.h + 2 * spec.pad, wp = d.w + 2 * spec.pad;
    std::size_t* roff = ws.alloc_index(plan.K);
    std::size_t* soff = ws.alloc_index(plan.P / kLanes);
    for (std::size_t ic = 0, r = 0; ic < d.ci; ++ic)
      for (std::size_t ky = 0; ky < d.kh; ++ky)
        for (std::size_t kx = 0; kx < d.kw; ++kx)
          roff[r++] = (ic * hp + ky) * wp + kx;
    for (std::size_t oy = 0, s = 0; oy < d.ho; ++oy)
      for (std::size_t ox = 0; ox < d.wo; ox += kLanes)
        soff[s++] = oy * wp + ox;
    plan.roff = roff;
    plan.soff = soff;
  } else {
    plan.path = ConvPath::kPanel;
    const std::size_t col_bytes =
        std::max<std::size_t>(1, plan.K * plan.P * sizeof(double));
    if (plan.P > 0 && plan.P < kPanelCols)
      plan.group = std::max<std::size_t>(
          1, std::min({d.n, (kPanelCols + plan.P - 1) / plan.P,
                       kPanelBytes / col_bytes}));
  }
  const std::size_t cols = std::max<std::size_t>(1, plan.group * plan.P);
  plan.slab_rows = std::min(
      plan.K, std::max<std::size_t>(4, kSlabDoubles / cols / 4 * 4));
  return plan;
}

/// Image xi copied to [ci, h + 2*pad, w + 2*pad] in `ws` with zero borders.
double* pad_image(const double* xi, const detail::ConvDims& d,
                  std::size_t pad, Workspace& ws) {
  const std::size_t hp = d.h + 2 * pad, wp = d.w + 2 * pad;
  double* xp = ws.alloc(d.ci * hp * wp);
  double* out = xp;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    std::fill_n(out, pad * wp, 0.0);
    out += pad * wp;
    for (std::size_t y = 0; y < d.h; ++y, xi += d.w, out += wp) {
      std::fill_n(out, pad, 0.0);
      std::copy_n(xi, d.w, out + pad);
      std::fill_n(out + pad + d.w, pad, 0.0);
    }
    std::fill_n(out, pad * wp, 0.0);
    out += pad * wp;
  }
  return xp;
}

/// ImageB over one image: the image itself when unpadded, else a padded
/// copy in `ws`.
ImageB image_b(const ConvPlan& plan, const double* xi,
               const detail::ConvDims& d, const ConvSpec& spec,
               Workspace& ws) {
  if (spec.pad == 0) return {xi, plan.roff, plan.soff};
  ScopedHistTimer t("kernels.im2col_time");
  return {pad_image(xi, d, spec.pad, ws), plan.roff, plan.soff};
}

/// im2col of the g images from xi on into one [K, g*P] panel in `ws`. At
/// stride 1 each image is padded first, so that every col row is whole
/// output rows copied from it, with no borders to fill: the short rows
/// that put a layer on this path cost one copy each, not a fill-copy-fill.
double* pack_panel(const ConvPlan& plan, const double* xi, std::size_t g,
                   const detail::ConvDims& d, const ConvSpec& spec,
                   Workspace& ws) {
  ScopedHistTimer t("kernels.im2col_time");
  const std::size_t cols = g * plan.P;
  double* panel = ws.alloc(plan.K * cols);
  if (spec.stride != 1) {
    for (std::size_t i = 0; i < g; ++i)
      im2col(xi + i * plan.x_img, d, spec, panel + i * plan.P, cols);
    return panel;
  }
  const std::size_t hp = d.h + 2 * spec.pad, wp = d.w + 2 * spec.pad;
  for (std::size_t i = 0; i < g; ++i) {
    Workspace::Scope scope(ws);
    const double* xp = pad_image(xi + i * plan.x_img, d, spec.pad, ws);
    double* row = panel + i * plan.P;
    for (std::size_t ic = 0; ic < d.ci; ++ic)
      for (std::size_t ky = 0; ky < d.kh; ++ky)
        for (std::size_t kx = 0; kx < d.kw; ++kx, row += cols) {
          const double* src = xp + (ic * hp + ky) * wp + kx;
          for (std::size_t oy = 0; oy < d.ho; ++oy, src += wp)
            for (std::size_t ox = 0; ox < d.wo; ++ox)
              row[oy * d.wo + ox] = src[ox];
        }
  }
  return panel;
}

/// dx of the g images from dxi on: dcol = W^T·dy is computed one slab of
/// rows at a time, each register tile starting from +0.0, and each finished
/// slab is added into the zeroed dx images by col2im_rows. Slabs run in
/// ascending k, so every dx element receives the adds of one col2im over
/// the whole dcol, in the same order; no [K, P] dcol is ever built.
void fused_dx(const ConvPlan& plan, BroadcastFn<DenseB> at,
              Col2imRowsFn scatter, const double* pw, const DenseB& dy,
              std::size_t g, const detail::ConvDims& d, const ConvSpec& spec,
              double* dxi, Workspace& ws) {
  ScopedHistTimer t("kernels.gemm_time");
  const std::size_t cols = g * plan.P;
  std::fill_n(dxi, g * plan.x_img, 0.0);
  double* slab = ws.alloc(plan.slab_rows * cols);
  for (std::size_t k0 = 0; k0 < plan.K; k0 += plan.slab_rows) {
    const std::size_t k1 = std::min(plan.K, k0 + plan.slab_rows);
    at(pw + k0, 1, plan.K, dy, slab, 0, k1 - k0, d.co, cols, Init::kZero,
       nullptr);
    for (std::size_t i = 0; i < g; ++i)
      scatter(slab + i * plan.P, cols, d, spec, k0, k1, dxi + i * plan.x_img);
  }
}

/// Quantize a double panel to binary16 storage (bitwise identical to
/// quantize_value(v, 16)) and widen it exactly to fp32 compute form. The u16
/// panel is the storage representation the corrupter's Table VII campaigns
/// flip bits of; the f32 panel is what the FMA lanes consume.
void quantize_panel(const double* src, std::size_t count, std::uint16_t* h,
                    float* f) {
  for (std::size_t i = 0; i < count; ++i) {
    h[i] = f16::from_float(static_cast<float>(src[i])).bits;
    f[i] = f16::from_bits(h[i]).to_float();
  }
}

}  // namespace

namespace simd {

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 inputs required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  c.resize({m, n});
  if (!accumulate) c.fill(0.0);

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const GemmRowsFn rows = pick_gemm_rows();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(pa, pb, pc, r0, r1, k, n);
             });
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_at: rank-2 inputs required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_at: inner dimension mismatch");
  c.resize({m, n});
  c.fill(0.0);

  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const GemmAtRowsFn rows = pick_gemm_at_rows();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(pa, pb, pc, r0, r1, k, m, n);
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
  const GemmBtRowsFn rows = pick_gemm_bt_rows();
  run_chunks(m, gemm_flops(m, n, k) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(pa, pb, pc, r0, r1, n, k);
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
  Workspace& cws = Workspace::tls();
  Workspace::Scope cscope(cws);
  const ConvPlan plan = make_plan(d, spec, cws);
  const std::size_t K = plan.K, P = plan.P;
  const bool w_zero = has_zero(pw, d.co * K);
  const BroadcastFn<DenseB> dense = pick_broadcast<DenseB>(w_zero);
  const BroadcastFn<ImageB> image = pick_broadcast<ImageB>(w_zero);

  // y_img[co,P] = bias + W[co,K]·col[K,P]: every element is one FMA chain
  // in ascending K, started from its bias in registers.
  run_chunks(d.n, conv_flops(d) >= kPoolMinFlops,
             [&](std::size_t n0, std::size_t n1) {
               Workspace& ws = Workspace::tls();
               for (std::size_t img = n0; img < n1;) {
                 const std::size_t g = std::min(plan.group, n1 - img);
                 Workspace::Scope scope(ws);
                 const double* xi = px + img * plan.x_img;
                 double* yi = py + img * plan.y_img;
                 if (plan.path == ConvPath::kDirect) {
                   ScopedHistTimer t("kernels.gemm_time");
                   dense(pw, K, 1, DenseB{xi, P}, yi, 0, d.co, K, P,
                         Init::kBias, pb);
                 } else if (plan.path == ConvPath::kImage) {
                   const ImageB col = image_b(plan, xi, d, spec, ws);
                   ScopedHistTimer t("kernels.gemm_time");
                   image(pw, K, 1, col, yi, 0, d.co, K, P, Init::kBias, pb);
                 } else {
                   const std::size_t cols = g * P;
                   const double* panel = pack_panel(plan, xi, g, d, spec, ws);
                   ScopedHistTimer t("kernels.gemm_time");
                   double* c = g == 1 ? yi : ws.alloc(d.co * cols);
                   dense(pw, K, 1, DenseB{panel, cols}, c, 0, d.co, K, cols,
                         Init::kBias, pb);
                   for (std::size_t i = 0; g > 1 && i < g; ++i)
                     for (std::size_t oc = 0; oc < d.co; ++oc)
                       std::copy_n(c + oc * cols + i * P, P,
                                   yi + i * plan.y_img + oc * P);
                 }
                 img += g;
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
  Workspace& cws = Workspace::tls();
  Workspace::Scope cscope(cws);
  const ConvPlan plan = make_plan(d, spec, cws);
  const std::size_t K = plan.K, P = plan.P;
  const DotFn<DenseB> dot_dense = pick_dot<DenseB>(P);
  const DotFn<ImageB> dot_image = pick_dot<ImageB>(P);
  const BroadcastFn<DenseB> at =
      pick_broadcast<DenseB>(has_zero(pw, d.co * K));
  const RowSumsFn sums = pick_row_sums();
  const Col2imRowsFn scatter = pick_col2im_rows();

  // Per-image dw/db partials reduced in ascending image order afterwards —
  // the same --jobs N ≡ --jobs 1 mechanism as the fast backend. Partials
  // live in the calling thread's arena; workers use their own arenas for
  // padded images, panels and dcol slabs only.
  const std::size_t part_stride = d.co * K + d.co;
  double* partials = cws.alloc(d.n * part_stride);

  run_chunks(d.n, conv_flops(d) >= kPoolMinFlops,
             [&](std::size_t n0, std::size_t n1) {
               Workspace& ws = Workspace::tls();
               for (std::size_t img = n0; img < n1;) {
                 const std::size_t g = std::min(plan.group, n1 - img);
                 Workspace::Scope scope(ws);
                 const double* xi = px + img * plan.x_img;
                 const double* dyi = pdy + img * plan.y_img;
                 double* dxi = pdx + img * plan.x_img;
                 double* dwp = partials + img * part_stride;
                 // dw_p[co,K] = dy_img[co,P]·col[K,P]^T — the 8-lane dot
                 // microkernel; db_p[co] = 8-lane row sums of dy_img.
                 if (plan.path == ConvPath::kDirect) {
                   ScopedHistTimer t("kernels.gemm_time");
                   dot_dense(dyi, DenseB{xi, P}, dwp, 0, d.co, P, K);
                   sums(dyi, dwp + d.co * K, d.co, P);
                   // dcol is the dx image itself. col2im would add each
                   // element once into a zeroed image: dx = 0.0 + dcol.
                   // Replay that add in place. It maps a dcol -0.0 (an
                   // underflowed negative product) to +0.0, and leaves
                   // every other value's bits as they are.
                   at(pw, 1, K, DenseB{dyi, P}, dxi, 0, K, d.co, P,
                      Init::kZero, nullptr);
                   for (std::size_t e = 0; e < plan.x_img; ++e)
                     dxi[e] = 0.0 + dxi[e];
                 } else if (plan.path == ConvPath::kImage) {
                   const ImageB col = image_b(plan, xi, d, spec, ws);
                   {
                     ScopedHistTimer t("kernels.gemm_time");
                     dot_image(dyi, col, dwp, 0, d.co, P, K);
                     sums(dyi, dwp + d.co * K, d.co, P);
                   }
                   fused_dx(plan, at, scatter, pw, DenseB{dyi, P}, 1, d, spec,
                            dxi, ws);
                 } else {
                   const std::size_t cols = g * P;
                   const double* panel = pack_panel(plan, xi, g, d, spec, ws);
                   const double* dyb = dyi;
                   {
                     ScopedHistTimer t("kernels.gemm_time");
                     for (std::size_t i = 0; i < g; ++i) {
                       const double* dy_img = dyi + i * plan.y_img;
                       double* part = dwp + i * part_stride;
                       dot_dense(dy_img, DenseB{panel + i * P, cols}, part, 0,
                                 d.co, P, K);
                       sums(dy_img, part + d.co * K, d.co, P);
                     }
                   }
                   if (g > 1) {
                     // dy of the group as one [co, g*P] panel, so dcol's
                     // broadcast tiles run the panel's full stripes.
                     double* packed = ws.alloc(d.co * cols);
                     for (std::size_t oc = 0; oc < d.co; ++oc)
                       for (std::size_t i = 0; i < g; ++i)
                         std::copy_n(dyi + i * plan.y_img + oc * P, P,
                                     packed + oc * cols + i * P);
                     dyb = packed;
                   }
                   fused_dx(plan, at, scatter, pw, DenseB{dyb, cols}, g, d,
                            spec, dxi, ws);
                 }
                 img += g;
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

}  // namespace simd

namespace fp16 {

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 inputs required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  c.resize({m, n});

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint16_t* a16 = ws.alloc_u16(m * k);
  std::uint16_t* b16 = ws.alloc_u16(k * n);
  float* af = ws.alloc_f32(m * k);
  float* bf = ws.alloc_f32(k * n);
  float* cf = ws.alloc_f32(m * n);
  quantize_panel(a.data(), m * k, a16, af);
  quantize_panel(b.data(), k * n, b16, bf);

  double* pc = c.data();
  const GemmRowsF32Fn rows = pick_gemm_rows_f32();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               for (std::size_t e = r0 * n; e < r1 * n; ++e) cf[e] = 0.0f;
               rows(af, bf, cf, r0, r1, k, n);
               for (std::size_t e = r0 * n; e < r1 * n; ++e) {
                 const double v = static_cast<double>(cf[e]);
                 pc[e] = accumulate ? pc[e] + v : v;
               }
             });
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_at: rank-2 inputs required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_at: inner dimension mismatch");
  c.resize({m, n});

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint16_t* a16 = ws.alloc_u16(k * m);
  std::uint16_t* b16 = ws.alloc_u16(k * n);
  float* af = ws.alloc_f32(k * m);
  float* bf = ws.alloc_f32(k * n);
  float* cf = ws.alloc_f32(m * n);
  quantize_panel(a.data(), k * m, a16, af);
  quantize_panel(b.data(), k * n, b16, bf);

  double* pc = c.data();
  const GemmAtRowsF32Fn rows = pick_gemm_at_rows_f32();
  run_chunks(m, gemm_flops(m, k, n) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               for (std::size_t e = r0 * n; e < r1 * n; ++e) cf[e] = 0.0f;
               rows(af, bf, cf, r0, r1, k, m, n);
               for (std::size_t e = r0 * n; e < r1 * n; ++e)
                 pc[e] = static_cast<double>(cf[e]);
             });
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_bt: rank-2 inputs required");
  const std::size_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  require(b.dim(1) == n, "matmul_bt: inner dimension mismatch");
  c.resize({m, k});

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint16_t* a16 = ws.alloc_u16(m * n);
  std::uint16_t* b16 = ws.alloc_u16(k * n);
  float* af = ws.alloc_f32(m * n);
  float* bf = ws.alloc_f32(k * n);
  float* cf = ws.alloc_f32(m * k);
  quantize_panel(a.data(), m * n, a16, af);
  quantize_panel(b.data(), k * n, b16, bf);

  double* pc = c.data();
  const GemmBtRowsF32Fn rows = pick_gemm_bt_rows_f32();
  run_chunks(m, gemm_flops(m, n, k) >= kPoolMinFlops,
             [&](std::size_t r0, std::size_t r1) {
               rows(af, bf, cf, r0, r1, n, k);
               for (std::size_t e = r0 * k; e < r1 * k; ++e)
                 pc[e] = static_cast<double>(cf[e]);
             });
}

}  // namespace fp16

}  // namespace ckptfi
