// Equivalence and determinism contract for the fast and simd kernel
// backends (docs/KERNELS.md):
//
//   - matmul / matmul_at / matmul_bt: fast is BITWISE identical to naive
//     (same per-element summation order and zero-skip), at every shape —
//     including the ones large enough to take the blocked/parallel path;
//   - conv2d forward/backward: fast (im2col+GEMM) matches naive to <= 1e-12
//     relative tolerance (the sums are regrouped, so only ulp-level drift);
//   - simd: the portable scalar fallback is BITWISE identical to the vector
//     ISA (the lane-blocked FMA order *is* the tier's contract), and simd
//     matches naive to <= 1e-12 relative (FMA fuses the multiply-add
//     rounding);
//   - fp16: the mixed-precision GEMM path quantizes operands exactly like
//     quantize_value(v, 16) and accumulates in fp32 with the documented
//     8-lane order; scalar ≡ vector bitwise here too;
//   - kernels are deterministic at a fixed thread count: repeated calls
//     are bitwise identical;
//   - the Workspace arena reaches a zero-heap-allocation steady state after
//     one warm-up cycle (fp16 panels included).
#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/ops_detail.hpp"
#include "tensor/quantize.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"

namespace ckptfi {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.vec()) v = rng.normal();
  return t;
}

/// Zeros sprinkled into `t` so the GEMM zero-skip branch is exercised.
void sprinkle_zeros(Tensor& t, Rng& rng) {
  for (auto& v : t.vec())
    if (rng.uniform() < 0.15) v = 0.0;
}

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  if (a.numel() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(double)), 0);
}

void expect_rel_close(const Tensor& a, const Tensor& b, double tol = 1e-12) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double denom = std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    EXPECT_LE(std::abs(a[i] - b[i]), tol * denom) << "i=" << i;
  }
}

/// Pins the backend for a test body and restores the previous one after.
class BackendGuard {
 public:
  explicit BackendGuard(KernelBackend b) : prev_(kernel_backend()) {
    set_kernel_backend(b);
  }
  ~BackendGuard() { set_kernel_backend(prev_); }

 private:
  KernelBackend prev_;
};

/// Pins the simd tier's ISA (kScalar is always available) and restores.
class IsaGuard {
 public:
  explicit IsaGuard(SimdIsa isa) : prev_(simd_isa()) { set_simd_isa(isa); }
  ~IsaGuard() { set_simd_isa(prev_); }

 private:
  SimdIsa prev_;
};

/// Pins the GEMM compute precision and restores.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(GemmPrecision p) : prev_(gemm_precision()) {
    set_gemm_precision(p);
  }
  ~PrecisionGuard() { set_gemm_precision(prev_); }

 private:
  GemmPrecision prev_;
};

// ---------------------------------------------------------------------------
// Backend selection.

TEST(KernelBackend, SetAndName) {
  BackendGuard guard(KernelBackend::kNaive);
  EXPECT_EQ(kernel_backend(), KernelBackend::kNaive);
  EXPECT_STREQ(kernel_backend_name(), "naive");
  set_kernel_backend(KernelBackend::kFast);
  EXPECT_EQ(kernel_backend(), KernelBackend::kFast);
  EXPECT_STREQ(kernel_backend_name(), "fast");
}

TEST(KernelBackend, DispatcherRoutesByBackend) {
  Rng rng(11);
  const Tensor a = random_tensor({40, 50}, rng);
  const Tensor b = random_tensor({50, 30}, rng);
  Tensor expect;
  naive::matmul(a, b, expect);
  for (const KernelBackend backend :
       {KernelBackend::kNaive, KernelBackend::kFast}) {
    BackendGuard guard(backend);
    Tensor c;
    matmul(a, b, c);
    expect_bitwise(c, expect);  // naive and fast agree bitwise on GEMM
  }
  // The simd tier has its own (FMA, lane-blocked) summation order: the
  // dispatcher must reproduce simd::matmul exactly, and the result must sit
  // within ulp-level drift of the reference backends.
  {
    BackendGuard guard(KernelBackend::kSimd);
    Tensor expect_simd, c;
    simd::matmul(a, b, expect_simd);
    matmul(a, b, c);
    expect_bitwise(c, expect_simd);
    expect_rel_close(c, expect);
  }
}

TEST(KernelBackend, SimdIsaNameAndScalarOverride) {
  const SimdIsa detected = simd_isa();
  {
    IsaGuard guard(SimdIsa::kScalar);
    EXPECT_EQ(simd_isa(), SimdIsa::kScalar);
    EXPECT_STREQ(simd_isa_name(), "scalar");
  }
  EXPECT_EQ(simd_isa(), detected);  // guard restored the detected ISA
}

TEST(KernelBackend, GemmPrecisionRoutesInFrontOfEveryBackend) {
  Rng rng(12);
  const Tensor a = random_tensor({24, 40}, rng);
  const Tensor b = random_tensor({40, 16}, rng);
  Tensor expect16;
  fp16::matmul(a, b, expect16);
  PrecisionGuard precision(GemmPrecision::kFp16);
  EXPECT_STREQ(gemm_precision_name(), "fp16");
  for (const KernelBackend backend :
       {KernelBackend::kNaive, KernelBackend::kFast, KernelBackend::kSimd}) {
    BackendGuard guard(backend);
    Tensor c;
    matmul(a, b, c);
    expect_bitwise(c, expect16);  // precision knob trumps the backend
  }
}

// ---------------------------------------------------------------------------
// GEMM family: fast is bitwise identical to naive.

struct GemmShape {
  std::size_t m, k, n;
};

class GemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmEquivalence, MatmulBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(101 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);  // zero-skip is on the A operand
  Tensor cn, cf;
  naive::matmul(a, b, cn);
  fast::matmul(a, b, cf);
  expect_bitwise(cf, cn);
  // accumulate=true on top of an existing C.
  Tensor base = random_tensor({m, n}, rng);
  Tensor an = base, af = base;
  naive::matmul(a, b, an, /*accumulate=*/true);
  fast::matmul(a, b, af, /*accumulate=*/true);
  expect_bitwise(af, an);
}

TEST_P(GemmEquivalence, MatmulAtBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(202 + m + k + n);
  Tensor a = random_tensor({k, m}, rng);  // A is [k, m], used transposed
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);
  Tensor cn, cf;
  naive::matmul_at(a, b, cn);
  fast::matmul_at(a, b, cf);
  expect_bitwise(cf, cn);
}

TEST_P(GemmEquivalence, MatmulBtBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(303 + m + k + n);
  Tensor a = random_tensor({m, n}, rng);  // C[m,k] = A[m,n] * B[k,n]^T
  const Tensor b = random_tensor({k, n}, rng);
  Tensor cn, cf;
  naive::matmul_bt(a, b, cn);
  fast::matmul_bt(a, b, cf);
  expect_bitwise(cf, cn);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(GemmShape{1, 1, 1},      // single element
                      GemmShape{7, 5, 9},      // small odd
                      GemmShape{13, 17, 3},    // below fast threshold
                      GemmShape{33, 70, 41},   // odd, above fast threshold
                      GemmShape{64, 64, 64},   // pool path
                      GemmShape{8, 301, 5},    // k > one block, odd n
                      GemmShape{128, 300, 65},  // k-blocked + pool path
                      GemmShape{0, 5, 4},      // empty m
                      GemmShape{5, 0, 4},      // empty k: all-zero result
                      GemmShape{5, 4, 0}));    // empty n

// ---------------------------------------------------------------------------
// Convolution: fast (im2col+GEMM) matches naive to <= 1e-12 relative.

struct ConvShape {
  std::size_t n, ci, h, w, co;
  std::size_t kernel, stride, pad;
};

class ConvEquivalence : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvEquivalence, ForwardRelTol) {
  const ConvShape s = GetParam();
  Rng rng(404 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  Tensor yn, yf;
  naive::conv2d_forward(x, w, b, spec, yn);
  fast::conv2d_forward(x, w, b, spec, yf);
  expect_rel_close(yf, yn);
}

TEST_P(ConvEquivalence, BackwardRelTol) {
  const ConvShape s = GetParam();
  Rng rng(505 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const std::size_t ho = spec.out_extent(s.h), wo = spec.out_extent(s.w);
  Tensor dy = random_tensor({s.n, s.co, ho, wo}, rng);
  sprinkle_zeros(dy, rng);  // naive skips zero gradients; fast must agree
  Tensor dxn(x.shape()), dwn(w.shape()), dbn({s.co});
  Tensor dxf(x.shape()), dwf(w.shape()), dbf({s.co});
  naive::conv2d_backward(x, w, spec, dy, dxn, dwn, dbn);
  fast::conv2d_backward(x, w, spec, dy, dxf, dwf, dbf);
  expect_rel_close(dxf, dxn);
  expect_rel_close(dwf, dwn);
  expect_rel_close(dbf, dbn);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalence,
    ::testing::Values(
        ConvShape{1, 1, 1, 1, 1, 1, 1, 0},    // single pixel, 1x1 kernel
        ConvShape{2, 3, 8, 8, 4, 3, 1, 1},    // typical LeNet-ish block
        ConvShape{1, 2, 7, 9, 3, 3, 2, 1},    // odd non-square, stride 2
        ConvShape{2, 2, 5, 5, 3, 5, 1, 2},    // 5x5 kernel, same-pad
        ConvShape{1, 3, 6, 6, 2, 3, 3, 0},    // stride 3, no padding
        ConvShape{1, 1, 4, 4, 1, 3, 1, 0},    // valid conv, shrinks
        ConvShape{1, 2, 7, 7, 2, 3, 2, 0},    // stride 2, no padding, odd
        ConvShape{2, 4, 16, 16, 8, 3, 1, 1}));  // big enough for pool path

// ---------------------------------------------------------------------------
// simd tier: the scalar fallback IS the contract — the vector ISA must
// reproduce it bitwise at every shape (lane tails, odd K/M/N, empty and
// one-element operands included), and the tier must sit within ulp-level
// drift of naive. On hosts without a vector ISA both paths are the same
// function, so the bitwise half is trivially (and still meaningfully,
// cross-ISA via CI) true.

class SimdGemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(SimdGemmEquivalence, MatmulScalarVectorBitwiseNaiveClose) {
  const auto [m, k, n] = GetParam();
  Rng rng(909 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);  // the broadcast zero-skip is part of the contract
  Tensor vec, sc, ref;
  simd::matmul(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul(a, b, sc);
  }
  expect_bitwise(sc, vec);
  naive::matmul(a, b, ref);
  expect_rel_close(vec, ref);
  // accumulate=true on top of an existing C.
  Tensor base = random_tensor({m, n}, rng);
  Tensor av = base, as = base;
  simd::matmul(a, b, av, /*accumulate=*/true);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul(a, b, as, /*accumulate=*/true);
  }
  expect_bitwise(as, av);
}

TEST_P(SimdGemmEquivalence, MatmulAtScalarVectorBitwiseNaiveClose) {
  const auto [m, k, n] = GetParam();
  Rng rng(919 + m + k + n);
  Tensor a = random_tensor({k, m}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);
  Tensor vec, sc, ref;
  simd::matmul_at(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul_at(a, b, sc);
  }
  expect_bitwise(sc, vec);
  naive::matmul_at(a, b, ref);
  expect_rel_close(vec, ref);
}

TEST_P(SimdGemmEquivalence, MatmulBtScalarVectorBitwiseNaiveClose) {
  const auto [m, k, n] = GetParam();
  Rng rng(929 + m + k + n);
  const Tensor a = random_tensor({m, n}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor vec, sc, ref;
  simd::matmul_bt(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::matmul_bt(a, b, sc);
  }
  expect_bitwise(sc, vec);
  naive::matmul_bt(a, b, ref);
  expect_rel_close(vec, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdGemmEquivalence,
    ::testing::Values(GemmShape{1, 1, 1},       // single element
                      GemmShape{1, 8, 1},       // dot exactly one lane block
                      GemmShape{3, 8, 8},       // everything lane-aligned
                      GemmShape{3, 9, 17},      // tails on every axis
                      GemmShape{7, 5, 9},       // small odd
                      GemmShape{5, 15, 6},      // dot tail of 7 (max tail)
                      GemmShape{33, 70, 41},    // above the old fast floor
                      GemmShape{64, 64, 64},    // pool path
                      GemmShape{2, 257, 8},     // k crosses a kKc block +1
                      GemmShape{128, 300, 65},  // k-blocked + pool path
                      GemmShape{0, 5, 4},       // empty m
                      GemmShape{5, 0, 4},       // empty k: all-zero result
                      GemmShape{5, 4, 0},       // empty n
                      // Register-tile edges: 4-row x 8-column C tiles and
                      // 4-output dot passes (bt's output count is k here).
                      GemmShape{4, 16, 16},     // whole tiles only
                      GemmShape{5, 13, 16},     // m % 4 == 1, k % 4 == 1
                      GemmShape{6, 14, 12},     // m % 4 == 2, n tail of 4
                      GemmShape{7, 11, 21},     // m % 4 == 3, n tail of 5
                      GemmShape{9, 6, 3},       // n < 8: tails only
                      GemmShape{3, 7, 8},       // fewer rows than a tile
                      GemmShape{13, 258, 29}));  // tiles across kKc blocks

class SimdConvEquivalence : public ::testing::TestWithParam<ConvShape> {};

TEST_P(SimdConvEquivalence, ForwardScalarVectorBitwiseNaiveClose) {
  const ConvShape s = GetParam();
  Rng rng(939 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  Tensor vec, sc, ref;
  simd::conv2d_forward(x, w, b, spec, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_forward(x, w, b, spec, sc);
  }
  expect_bitwise(sc, vec);
  naive::conv2d_forward(x, w, b, spec, ref);
  expect_rel_close(vec, ref);
}

TEST_P(SimdConvEquivalence, BackwardScalarVectorBitwiseNaiveClose) {
  const ConvShape s = GetParam();
  Rng rng(949 + s.h * 7 + s.kernel);
  const Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const std::size_t ho = spec.out_extent(s.h), wo = spec.out_extent(s.w);
  Tensor dy = random_tensor({s.n, s.co, ho, wo}, rng);
  sprinkle_zeros(dy, rng);
  Tensor dxv(x.shape()), dwv(w.shape()), dbv({s.co});
  Tensor dxs(x.shape()), dws(w.shape()), dbs({s.co});
  Tensor dxn(x.shape()), dwn(w.shape()), dbn({s.co});
  simd::conv2d_backward(x, w, spec, dy, dxv, dwv, dbv);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_backward(x, w, spec, dy, dxs, dws, dbs);
  }
  expect_bitwise(dxs, dxv);
  expect_bitwise(dws, dwv);
  expect_bitwise(dbs, dbv);
  naive::conv2d_backward(x, w, spec, dy, dxn, dwn, dbn);
  expect_rel_close(dxv, dxn);
  expect_rel_close(dwv, dwn);
  expect_rel_close(dbv, dbn);
}

/// Campaign geometry (width-4 models, a few images a batch), appended to
/// the simd conv suites' shapes: every path of the simd driver.
std::vector<ConvShape> with_campaign_shapes(std::vector<ConvShape> shapes) {
  const ConvShape campaign[] = {
      // Padded-image B (stride 1, wo % 8 == 0):
      {2, 3, 32, 32, 4, 3, 1, 1},   // 32x32, four stripes a row
      {3, 16, 8, 8, 16, 3, 1, 1},   // 8x8, one stripe a row
      {2, 4, 2, 8, 5, 3, 1, 1},     // P = 16: short dw dots
      {2, 3, 10, 10, 4, 3, 1, 0},   // unpadded: B is x itself
      // Minibatch panels (wo % 8 != 0, or strided):
      {5, 32, 4, 4, 32, 3, 1, 1},   // 4x4: groups of 4, n % 4 == 1
      {17, 32, 2, 2, 33, 3, 1, 1},  // 2x2: groups of 16, co % 4 == 1
      {6, 32, 4, 4, 34, 3, 1, 1},   // co % 4 == 2
      {3, 32, 2, 2, 35, 3, 1, 1},   // co % 4 == 3, n < one group
      {3, 8, 8, 8, 8, 3, 2, 1},     // 3x3 stride 2, P = 16
      {2, 4, 16, 16, 4, 3, 2, 1},   // 3x3 stride 2, P = 64
      {3, 8, 6, 6, 9, 1, 1, 0},     // 1x1 s1 p0, wo % 8 != 0
  };
  shapes.insert(shapes.end(), std::begin(campaign), std::end(campaign));
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdConvEquivalence,
    ::testing::ValuesIn(with_campaign_shapes({
        ConvShape{1, 1, 1, 1, 1, 1, 1, 0},      // single pixel, 1x1 kernel
        ConvShape{2, 3, 8, 8, 4, 3, 1, 1},      // typical LeNet-ish block
        ConvShape{1, 2, 7, 9, 3, 3, 2, 1},      // odd non-square, stride 2
        ConvShape{2, 2, 5, 5, 3, 5, 1, 2},      // 5x5 kernel, same-pad
        ConvShape{1, 1, 4, 4, 1, 3, 1, 0},      // valid conv, shrinks
        ConvShape{2, 4, 16, 16, 8, 3, 1, 1},    // big enough for pool path
        ConvShape{2, 6, 5, 7, 5, 1, 1, 0},      // 1x1 s1 p0: col is x
        ConvShape{2, 6, 8, 8, 9, 1, 2, 0},      // 1x1 s2: packed, not x
        ConvShape{1, 2, 4, 5, 3, 2, 1, 2},      // pad >= kernel
        ConvShape{1, 3, 6, 6, 5, 3, 3, 3},      // pad == kernel, stride 3
    })));

// ---------------------------------------------------------------------------
// The conv driver. detail::im2col/col2im copy in row runs; they must equal
// the per-element loops below (the previous implementation, kept as the
// reference). And simd conv must equal an explicit im2col + GEMM composed
// from the public simd kernels, on every path the driver takes: packed
// k x k, strided 1x1, and the 1x1 stride-1 convolution that uses x itself
// as the col matrix. Both ISAs run the same driver, so scalar-vs-vector
// checks alone cannot catch a driver change.

void im2col_reference(const double* xi, const detail::ConvDims& d,
                      const ConvSpec& spec, double* col) {
  double* out = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    const double* xmap = xi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      for (std::size_t kx = 0; kx < d.kw; ++kx) {
        for (std::size_t oy = 0; oy < d.ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.pad);
          for (std::size_t ox = 0; ox < d.wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.pad);
            const bool inside =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(d.h) && ix >= 0 &&
                ix < static_cast<std::ptrdiff_t>(d.w);
            *out++ = inside ? xmap[static_cast<std::size_t>(iy) * d.w +
                                   static_cast<std::size_t>(ix)]
                            : 0.0;
          }
        }
      }
    }
  }
}

void col2im_reference(const double* col, const detail::ConvDims& d,
                      const ConvSpec& spec, double* dxi) {
  const double* in = col;
  for (std::size_t ic = 0; ic < d.ci; ++ic) {
    double* dxmap = dxi + ic * d.h * d.w;
    for (std::size_t ky = 0; ky < d.kh; ++ky) {
      for (std::size_t kx = 0; kx < d.kw; ++kx) {
        for (std::size_t oy = 0; oy < d.ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.pad);
          for (std::size_t ox = 0; ox < d.wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.pad);
            const double v = *in++;
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(d.h) && ix >= 0 &&
                ix < static_cast<std::ptrdiff_t>(d.w))
              dxmap[static_cast<std::size_t>(iy) * d.w +
                    static_cast<std::size_t>(ix)] += v;
          }
        }
      }
    }
  }
}

/// Inf, NaN, signed zeros and huge values written over `t`.
void poison(Tensor& t) {
  const double values[] = {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           0.0,
                           -0.0,
                           1e300,
                           -1e300};
  const std::size_t step = std::max<std::size_t>(1, t.numel() / 7);
  for (std::size_t i = 0; i < std::size(values) && i * step < t.numel(); ++i)
    t[i * step] = values[i];
}

class ConvDriver : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvDriver, Im2colCol2imMatchPerElementReference) {
  const ConvShape s = GetParam();
  Rng rng(959 + s.h * 7 + s.kernel);
  Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  poison(x);  // copies must carry NaN payloads and -0.0 untouched
  const Tensor w({s.co, s.ci, s.kernel, s.kernel});
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const detail::ConvDims d = detail::conv_dims(x, w, spec);
  const std::size_t K = d.ci * d.kh * d.kw, P = d.ho * d.wo;
  const std::size_t x_img = d.ci * d.h * d.w;
  for (std::size_t img = 0; img < d.n; ++img) {
    std::vector<double> got(K * P, 7.0), want(K * P, -7.0);
    detail::im2col(x.data() + img * x_img, d, spec, got.data());
    im2col_reference(x.data() + img * x_img, d, spec, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), K * P * sizeof(double)), 0);

    // Scatter-add onto a non-zero image, so the add order shows.
    Tensor col = random_tensor({K, P}, rng);
    poison(col);
    Tensor dx_got = random_tensor({x_img}, rng);
    Tensor dx_want = dx_got;
    Tensor dx_rows = dx_got;
    detail::col2im(col.data(), d, spec, dx_got.data());
    col2im_reference(col.data(), d, spec, dx_want.data());
    expect_bitwise(dx_got, dx_want);
    // The simd driver's scatter, in slabs of 2 rows (mostly starting
    // mid-channel), must add the same.
    for (std::size_t r0 = 0; r0 < K; r0 += 2)
      detail::col2im_rows(col.data() + r0 * P, P, d, spec, r0,
                          std::min(K, r0 + 2), dx_rows.data());
    expect_bitwise(dx_rows, dx_want);
  }
}

/// Inf, NaN and huge values written over `t`, but no zero: with no ±0.0
/// weight the driver drops the broadcast zero-skip's tests.
void poison_nonzero(Tensor& t) {
  const double values[] = {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 1e300,
                           -1e300};
  const std::size_t step = std::max<std::size_t>(1, t.numel() / 5);
  for (std::size_t i = 0; i < std::size(values) && i * step < t.numel(); ++i)
    t[i * step] = values[i];
}

TEST_P(ConvDriver, SimdConvMatchesExplicitIm2colGemm) {
  const ConvShape s = GetParam();
  Rng rng(969 + s.h * 7 + s.kernel);
  // x is poisoned too: B comes straight from the image on most paths, so
  // an image NaN meets a weight NaN in one FMA, and Inf·0 in the dw dots.
  Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  poison(x);
  const Tensor w_clean = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const detail::ConvDims d = detail::conv_dims(x, w_clean, spec);
  const std::size_t K = d.ci * d.kh * d.kw, P = d.ho * d.wo;
  const std::size_t x_img = d.ci * d.h * d.w;
  Tensor dy = random_tensor({s.n, s.co, d.ho, d.wo}, rng);
  sprinkle_zeros(dy, rng);

  Tensor w_zeros = w_clean, w_nonzero = w_clean;
  poison(w_zeros);
  poison_nonzero(w_nonzero);
  for (const Tensor* pw : {&w_zeros, &w_nonzero}) {
    const Tensor& w = *pw;
    Tensor y, dx, dw, db;
    simd::conv2d_forward(x, w, b, spec, y);
    simd::conv2d_backward(x, w, spec, dy, dx, dw, db);

    const Tensor wmat = w.reshaped({s.co, K});
    Tensor dw_want({s.co, K});
    for (std::size_t img = 0; img < d.n; ++img) {
      Tensor col({K, P});
      detail::im2col(x.data() + img * x_img, d, spec, col.data());
      // Forward: bias-filled C += W[co,K] . col[K,P].
      Tensor y_want({s.co, P});
      for (std::size_t oc = 0; oc < s.co; ++oc)
        for (std::size_t pos = 0; pos < P; ++pos)
          y_want[oc * P + pos] = b[oc];
      simd::matmul(wmat, col, y_want, /*accumulate=*/true);
      Tensor y_img({s.co, P});
      std::memcpy(y_img.data(), y.data() + img * s.co * P,
                  s.co * P * sizeof(double));
      expect_bitwise(y_img, y_want);

      Tensor dy_img({s.co, P});
      std::memcpy(dy_img.data(), dy.data() + img * s.co * P,
                  s.co * P * sizeof(double));
      // dw: per-image dy . col^T partials summed in ascending image order.
      Tensor part;
      simd::matmul_bt(dy_img, col, part);
      for (std::size_t e = 0; e < s.co * K; ++e) dw_want[e] += part[e];
      // dx: dcol = W^T . dy, scattered into a zeroed image. col2im_rows
      // pins which NaN an add keeps at every optimization level.
      Tensor dcol;
      simd::matmul_at(wmat, dy_img, dcol);
      Tensor dx_want({x_img});
      detail::col2im_rows(dcol.data(), P, d, spec, 0, K, dx_want.data());
      Tensor dx_img({x_img});
      std::memcpy(dx_img.data(), dx.data() + img * x_img,
                  x_img * sizeof(double));
      expect_bitwise(dx_img, dx_want);
    }
    expect_bitwise(dw.reshaped({s.co, K}), dw_want);
  }
}

// Inf/NaN/±0/±1e300 weights and inputs: the scalar fallback and the vector
// ISA agree bitwise on every conv path. A weight NaN meets an image NaN in
// the forward FMAs, and Inf·0 NaNs meet image NaNs in the dw folds; both
// ISAs keep the same operand (docs/KERNELS.md "NaN operand order"). dy
// stays finite: the scalar dot tail takes A before B, the vector one B
// before A.
TEST_P(SimdConvEquivalence, NonFiniteWeightsScalarVectorBitwise) {
  const ConvShape s = GetParam();
  Rng rng(979 + s.h * 7 + s.kernel);
  Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  poison(x);
  Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  poison(w);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  Tensor dy = random_tensor(
      {s.n, s.co, spec.out_extent(s.h), spec.out_extent(s.w)}, rng);
  Tensor yv, dxv, dwv, dbv, ys, dxs, dws, dbs;
  simd::conv2d_forward(x, w, b, spec, yv);
  simd::conv2d_backward(x, w, spec, dy, dxv, dwv, dbv);
  {
    IsaGuard guard(SimdIsa::kScalar);
    simd::conv2d_forward(x, w, b, spec, ys);
    simd::conv2d_backward(x, w, spec, dy, dxs, dws, dbs);
  }
  expect_bitwise(ys, yv);
  expect_bitwise(dxs, dxv);
  expect_bitwise(dws, dwv);
  expect_bitwise(dbs, dbv);
}

// The driver groups images into minibatch panels and chunks the batch
// across the pool (CKPTFI_THREADS: the machine's default under ctest, 4 in
// the sanitize CI job). Neither may change a bit: each image's y and dx
// must equal a one-image call's, which is what one thread computes, and
// dw/db the sum of one-image calls' in ascending image order.
TEST_P(SimdConvEquivalence, BatchMatchesPerImageCalls) {
  const ConvShape s = GetParam();
  Rng rng(989 + s.h * 7 + s.kernel);
  Tensor x = random_tensor({s.n, s.ci, s.h, s.w}, rng);
  poison(x);
  const Tensor w = random_tensor({s.co, s.ci, s.kernel, s.kernel}, rng);
  const Tensor b = random_tensor({s.co}, rng);
  const ConvSpec spec{s.kernel, s.stride, s.pad};
  const std::size_t ho = spec.out_extent(s.h), wo = spec.out_extent(s.w);
  Tensor dy = random_tensor({s.n, s.co, ho, wo}, rng);
  sprinkle_zeros(dy, rng);
  Tensor y, dx, dw, db;
  simd::conv2d_forward(x, w, b, spec, y);
  simd::conv2d_backward(x, w, spec, dy, dx, dw, db);

  const std::size_t x_img = s.ci * s.h * s.w, y_img = s.co * ho * wo;
  Tensor dw_want(w.shape()), db_want({s.co});
  for (std::size_t img = 0; img < s.n; ++img) {
    Tensor xi({1, s.ci, s.h, s.w}), dyi({1, s.co, ho, wo});
    std::memcpy(xi.data(), x.data() + img * x_img, x_img * sizeof(double));
    std::memcpy(dyi.data(), dy.data() + img * y_img, y_img * sizeof(double));
    Tensor yi, dxi, dwi, dbi;
    simd::conv2d_forward(xi, w, b, spec, yi);
    simd::conv2d_backward(xi, w, spec, dyi, dxi, dwi, dbi);
    EXPECT_EQ(std::memcmp(yi.data(), y.data() + img * y_img,
                          y_img * sizeof(double)),
              0)
        << "y of image " << img;
    EXPECT_EQ(std::memcmp(dxi.data(), dx.data() + img * x_img,
                          x_img * sizeof(double)),
              0)
        << "dx of image " << img;
    for (std::size_t e = 0; e < dw.numel(); ++e) dw_want[e] += dwi[e];
    for (std::size_t oc = 0; oc < s.co; ++oc) db_want[oc] += dbi[oc];
  }
  expect_bitwise(dw, dw_want);
  expect_bitwise(db, db_want);
}

// A 1x1 stride-1 convolution accumulates dcol in the dx image itself. A
// negative product that underflows leaves -0.0 there; scattering into a
// zeroed image (what col2im and naive do) gives +0.0, and so must the
// in-place path.
TEST(ConvDriverPointwise, UnderflowedGradientIsPositiveZero) {
  const Tensor x({2, 3, 2, 2}, 1.0);
  const Tensor w({1, 3, 1, 1}, -1e-200);
  const Tensor dy({2, 1, 2, 2}, 1e-200);  // w * dy = -1e-400 -> -0.0
  const ConvSpec spec{1, 1, 0};
  Tensor dx, dw, db, dxn, dwn, dbn;
  simd::conv2d_backward(x, w, spec, dy, dx, dw, db);
  naive::conv2d_backward(x, w, spec, dy, dxn, dwn, dbn);
  for (std::size_t i = 0; i < dx.numel(); ++i)
    EXPECT_FALSE(std::signbit(dx[i])) << "i=" << i;
  expect_bitwise(dx, dxn);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvDriver,
    ::testing::ValuesIn(with_campaign_shapes({
        ConvShape{1, 1, 1, 1, 1, 1, 1, 0},    // single pixel, 1x1 kernel
        ConvShape{2, 3, 8, 8, 4, 3, 1, 1},    // 3x3 same-pad
        ConvShape{1, 2, 7, 9, 3, 3, 2, 1},    // odd non-square, stride 2
        ConvShape{2, 2, 5, 5, 3, 5, 1, 2},    // 5x5 kernel, same-pad
        ConvShape{1, 1, 4, 4, 1, 3, 1, 0},    // valid conv, shrinks
        ConvShape{2, 6, 5, 7, 5, 1, 1, 0},    // 1x1 s1 p0: col is x
        ConvShape{2, 6, 8, 8, 9, 1, 2, 0},    // 1x1 s2: packed, not x
        ConvShape{1, 3, 6, 7, 4, 1, 1, 1},    // 1x1 padded: packed
        ConvShape{1, 2, 4, 5, 3, 2, 1, 2},    // pad >= kernel
        ConvShape{1, 3, 6, 6, 5, 3, 3, 3},    // pad == kernel, stride 3
        ConvShape{1, 2, 3, 3, 2, 3, 2, 4},    // taps that read only padding
        ConvShape{2, 4, 16, 16, 8, 3, 1, 1},  // pool path
    })));

// ---------------------------------------------------------------------------
// fp16 mixed-precision GEMM: operands are quantized to binary16 storage
// exactly like quantize_value(v, 16), then accumulated in fp32 with the
// documented order — ascending-k fmaf chains for matmul/matmul_at, 8 fp32
// lanes plus the fixed tree fold for matmul_bt.

double q16(double v) { return quantize_value(v, 16); }

TEST(Fp16Gemm, MatmulMatchesDocumentedReference) {
  Rng rng(959);
  Tensor a = random_tensor({9, 21}, rng);
  const Tensor b = random_tensor({21, 13}, rng);
  sprinkle_zeros(a, rng);
  // Values the f16 storage format treats specially: overflow saturates to
  // Inf, tiny values flush toward subnormals/zero — the compute path must
  // inherit exactly what the corrupter's Table VII campaigns would see.
  a.vec()[0] = 1.0e10;
  a.vec()[1] = 1.0e-10;
  Tensor c;
  fp16::matmul(a, b, c);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 13; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < 21; ++p) {
        const float av = static_cast<float>(q16(a[i * 21 + p]));
        if (av == 0.0f) continue;  // broadcast zero-skip
        acc = std::fmaf(av, static_cast<float>(q16(b[p * 13 + j])), acc);
      }
      const double expect = static_cast<double>(acc);
      const double got = c[i * 13 + j];
      if (std::isnan(expect)) {
        EXPECT_TRUE(std::isnan(got)) << i << "," << j;
      } else {
        EXPECT_EQ(got, expect) << i << "," << j;
      }
    }
  }
}

TEST(Fp16Gemm, MatmulBtMatchesDocumentedLaneOrder) {
  Rng rng(969);
  const Tensor a = random_tensor({5, 19}, rng);  // dot length 19: tail of 3
  const Tensor b = random_tensor({7, 19}, rng);
  Tensor c;
  fp16::matmul_bt(a, b, c);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      float lanes[8] = {};
      for (std::size_t p = 0; p < 19; ++p) {
        const float av = static_cast<float>(q16(a[i * 19 + p]));
        const float bv = static_cast<float>(q16(b[j * 19 + p]));
        lanes[p % 8] = std::fmaf(av, bv, lanes[p % 8]);
      }
      const float fold = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
      EXPECT_EQ(c[i * 7 + j], static_cast<double>(fold)) << i << "," << j;
    }
  }
}

class Fp16GemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(Fp16GemmEquivalence, ScalarVectorBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(979 + m + k + n);
  Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  sprinkle_zeros(a, rng);
  Tensor vec, sc;
  fp16::matmul(a, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    fp16::matmul(a, b, sc);
  }
  expect_bitwise(sc, vec);

  const Tensor at = random_tensor({k, m}, rng);
  fp16::matmul_at(at, b, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    fp16::matmul_at(at, b, sc);
  }
  expect_bitwise(sc, vec);

  const Tensor abt = random_tensor({m, n}, rng);
  const Tensor bbt = random_tensor({k, n}, rng);
  fp16::matmul_bt(abt, bbt, vec);
  {
    IsaGuard guard(SimdIsa::kScalar);
    fp16::matmul_bt(abt, bbt, sc);
  }
  expect_bitwise(sc, vec);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fp16GemmEquivalence,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{3, 9, 17},
                                           GemmShape{7, 5, 9},
                                           GemmShape{64, 64, 64},
                                           GemmShape{2, 257, 8},
                                           GemmShape{0, 5, 4},
                                           GemmShape{5, 0, 4}));

// Values exactly representable in binary16 (small integers) survive the
// round trip untouched, and small-integer dot products are exact in fp32 —
// so fp16 GEMM must equal the full-precision reference on the quantized
// operands, bitwise.
TEST(Fp16Gemm, ExactlyRepresentableValuesRoundTrip) {
  Rng rng(989);
  Tensor a({6, 24}), b({24, 5});
  for (auto& v : a.vec())
    v = static_cast<double>(static_cast<int>(rng.uniform() * 17.0) - 8);
  for (auto& v : b.vec())
    v = static_cast<double>(static_cast<int>(rng.uniform() * 17.0) - 8);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(q16(a[i]), a[i]);
  Tensor c16, cref;
  fp16::matmul(a, b, c16);
  naive::matmul(a, b, cref);
  expect_bitwise(c16, cref);
}

// ---------------------------------------------------------------------------
// Determinism: repeated fast calls are bitwise identical at a fixed thread
// count (the pool is created once per process from CKPTFI_THREADS).

TEST(KernelDeterminism, FastGemmRepeatsBitwise) {
  Rng rng(606);
  const Tensor a = random_tensor({96, 300}, rng);
  const Tensor b = random_tensor({300, 64}, rng);
  Tensor first, again;
  fast::matmul(a, b, first);
  for (int i = 0; i < 3; ++i) {
    fast::matmul(a, b, again);
    expect_bitwise(again, first);
  }
}

TEST(KernelDeterminism, FastConvRepeatsBitwise) {
  Rng rng(707);
  const Tensor x = random_tensor({2, 4, 16, 16}, rng);
  const Tensor w = random_tensor({8, 4, 3, 3}, rng);
  const Tensor b = random_tensor({8}, rng);
  const ConvSpec spec{3, 1, 1};
  Tensor y0, y;
  fast::conv2d_forward(x, w, b, spec, y0);
  Tensor dy = random_tensor(y0.shape(), rng);
  Tensor dx0(x.shape()), dw0(w.shape()), db0({8});
  fast::conv2d_backward(x, w, spec, dy, dx0, dw0, db0);
  for (int i = 0; i < 3; ++i) {
    fast::conv2d_forward(x, w, b, spec, y);
    expect_bitwise(y, y0);
    Tensor dx(x.shape()), dw(w.shape()), db({8});
    fast::conv2d_backward(x, w, spec, dy, dx, dw, db);
    expect_bitwise(dx, dx0);
    expect_bitwise(dw, dw0);
    expect_bitwise(db, db0);
  }
}

TEST(KernelDeterminism, SimdGemmAndConvRepeatBitwise) {
  Rng rng(717);
  const Tensor a = random_tensor({96, 300}, rng);
  const Tensor b = random_tensor({300, 64}, rng);
  Tensor first, again;
  simd::matmul(a, b, first);
  const Tensor x = random_tensor({2, 4, 16, 16}, rng);
  const Tensor w = random_tensor({8, 4, 3, 3}, rng);
  const Tensor bias = random_tensor({8}, rng);
  const ConvSpec spec{3, 1, 1};
  Tensor y0, y;
  simd::conv2d_forward(x, w, bias, spec, y0);
  for (int i = 0; i < 3; ++i) {
    simd::matmul(a, b, again);
    expect_bitwise(again, first);
    simd::conv2d_forward(x, w, bias, spec, y);
    expect_bitwise(y, y0);
  }
}

// ---------------------------------------------------------------------------
// Workspace arena.

TEST(Workspace, ScopeRewindsLifo) {
  Workspace& ws = Workspace::tls();
  ws.reset();
  const std::size_t before = ws.used();
  {
    Workspace::Scope outer(ws);
    double* a = ws.alloc(16);
    a[0] = 1.0;
    {
      Workspace::Scope inner(ws);
      double* b = ws.alloc(32);
      b[31] = 2.0;
      EXPECT_EQ(ws.used(), before + 48);
    }
    EXPECT_EQ(ws.used(), before + 16);  // inner rewound, outer alive
    EXPECT_EQ(a[0], 1.0);               // outer allocation untouched
  }
  EXPECT_EQ(ws.used(), before);
}

TEST(Workspace, OverflowThenQuiescentRegrow) {
  Workspace& ws = Workspace::tls();
  ws.reset();
  const std::size_t want = ws.high_water() / sizeof(double) + 4096;
  {
    Workspace::Scope scope(ws);
    ws.alloc(want);  // beyond capacity: served from an overflow block
  }
  const std::size_t after_learning = ws.allocations();
  // Quiescent now; the next cycle must fit the primary buffer with no new
  // heap allocation beyond the single regrow.
  for (int i = 0; i < 5; ++i) {
    Workspace::Scope scope(ws);
    ws.alloc(want);
  }
  EXPECT_LE(ws.allocations(), after_learning + 1);  // one regrow, then flat
  EXPECT_GE(ws.bytes_reserved(), want * sizeof(double));
}

// After one warm-up cycle, a steady-state conv loop performs zero arena heap
// allocations. The shape is below the pool fan-out threshold so all scratch
// comes from this thread's arena.
TEST(Workspace, ConvSteadyStateAllocFree) {
  Rng rng(808);
  const Tensor x = random_tensor({1, 2, 8, 8}, rng);
  const Tensor w = random_tensor({4, 2, 3, 3}, rng);
  const Tensor b = random_tensor({4}, rng);
  const ConvSpec spec{3, 1, 1};
  Workspace& ws = Workspace::tls();
  Tensor y;
  fast::conv2d_forward(x, w, b, spec, y);  // warm-up: arena learns the size
  ws.reset();                              // batch boundary: coalesce
  const std::size_t warm = ws.allocations();
  for (int i = 0; i < 10; ++i) {
    fast::conv2d_forward(x, w, b, spec, y);
    ws.reset();
  }
  EXPECT_EQ(ws.allocations(), warm);  // zero heap traffic at steady state
}

// The simd driver's scratch (padded images, minibatch panels, dcol slabs,
// offset tables, dw partials) comes from the arena too: after one warm-up
// cycle, forward plus backward allocate nothing on any of its paths. The
// shapes are below the pool fan-out threshold, so all of it is this
// thread's arena.
TEST(Workspace, SimdConvSteadyStateAllocFree) {
  struct Case {
    Shape x, w;
    ConvSpec spec;
  };
  const Case cases[] = {
      {{1, 2, 8, 8}, {4, 2, 3, 3}, {3, 1, 1}},  // padded image
      {{3, 4, 4, 4}, {4, 4, 3, 3}, {3, 1, 1}},  // minibatch panel
      {{2, 2, 8, 8}, {3, 2, 3, 3}, {3, 2, 1}},  // strided panel
      {{1, 4, 5, 5}, {3, 4, 1, 1}, {1, 1, 0}},  // 1x1: col is x
  };
  Rng rng(828);
  Workspace& ws = Workspace::tls();
  for (const Case& c : cases) {
    const Tensor x = random_tensor(c.x, rng);
    const Tensor w = random_tensor(c.w, rng);
    const Tensor b = random_tensor({c.w[0]}, rng);
    Tensor y, dx, dw, db;
    simd::conv2d_forward(x, w, b, c.spec, y);  // warm-up
    const Tensor dy = random_tensor(y.shape(), rng);
    simd::conv2d_backward(x, w, c.spec, dy, dx, dw, db);
    ws.reset();
    const std::size_t warm = ws.allocations();
    for (int i = 0; i < 10; ++i) {
      simd::conv2d_forward(x, w, b, c.spec, y);
      simd::conv2d_backward(x, w, c.spec, dy, dx, dw, db);
      ws.reset();
    }
    EXPECT_EQ(ws.allocations(), warm);
  }
}

// The fp16 path's u16/f32 panels come from the same arena through the typed
// views, so the zero-steady-state-allocation contract extends to
// mixed-precision GEMM. Shape below the pool threshold: all panels live in
// this thread's arena.
TEST(Workspace, Fp16GemmSteadyStateAllocFree) {
  Rng rng(818);
  const Tensor a = random_tensor({8, 16}, rng);
  const Tensor b = random_tensor({16, 8}, rng);
  Workspace& ws = Workspace::tls();
  Tensor c;
  fp16::matmul(a, b, c);  // warm-up: arena learns the panel sizes
  ws.reset();
  const std::size_t warm = ws.allocations();
  for (int i = 0; i < 10; ++i) {
    fp16::matmul(a, b, c);
    ws.reset();
  }
  EXPECT_EQ(ws.allocations(), warm);
}

}  // namespace
}  // namespace ckptfi
