// Internals shared by the naive, fast and simd kernel translation units.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>

#include "obs/registry.hpp"
#include "tensor/ops.hpp"
#include "util/common.hpp"

namespace ckptfi::detail {

struct ConvDims {
  std::size_t n, ci, h, w, co, kh, kw, ho, wo;
};

inline ConvDims conv_dims(const Tensor& x, const Tensor& w,
                          const ConvSpec& spec) {
  require(x.rank() == 4, "conv2d: input must be [N,C,H,W]");
  require(w.rank() == 4, "conv2d: weight must be [Co,Ci,kh,kw]");
  ConvDims d;
  d.n = x.dim(0);
  d.ci = x.dim(1);
  d.h = x.dim(2);
  d.w = x.dim(3);
  d.co = w.dim(0);
  d.kh = w.dim(2);
  d.kw = w.dim(3);
  require(w.dim(1) == d.ci, "conv2d: channel mismatch");
  require(d.kh == spec.kernel && d.kw == spec.kernel,
          "conv2d: weight kernel size disagrees with spec");
  d.ho = spec.out_extent(d.h);
  d.wo = spec.out_extent(d.w);
  return d;
}

/// k-dimension block: one B panel (kKc rows of B) stays cache-hot while the
/// whole row chunk sweeps over it. Blocks are visited in ascending order, so
/// per-element summation order is unchanged by the blocking.
inline constexpr std::size_t kKc = 256;

/// Below this many flops a kernel runs single-threaded: fork/join overhead
/// would dominate. A pure function of the operand shapes, so the
/// serial/parallel decision never depends on runtime state.
inline constexpr std::size_t kPoolMinFlops = std::size_t{1} << 18;

/// Below this many flops the dispatcher routes to the naive kernels even
/// under CKPTFI_KERNELS=fast — at trivial sizes the arena/packing setup is
/// pure overhead. Also a pure function of shape (determinism).
inline constexpr std::size_t kFastMinFlops = std::size_t{1} << 12;

/// Run fn over [0, n): pool fan-out for heavy shapes, inline otherwise.
void run_chunks(std::size_t n, bool parallel,
                const std::function<void(std::size_t, std::size_t)>& fn);

inline std::size_t gemm_flops(std::size_t m, std::size_t k, std::size_t n) {
  return 2 * m * k * n;
}

inline std::size_t conv_flops(const ConvDims& d) {
  return 2 * d.n * d.co * d.ho * d.wo * d.ci * d.kh * d.kw;
}

/// a + b keeping a's NaN when both are NaN, at every optimization level.
/// x86 returns the first source's NaN; gcc -O2 keeps source order for the
/// simd backend's adds this is used in (col2im_rows, the dot lane fold), but
/// -O0 may commute them, so the order is pinned here and the vector kernels
/// pin the same. The asm also stops the compiler vectorizing the loop, so
/// col2im (the fast backend's) keeps its plain `+=`.
inline double add_first(double a, double b) {
#if defined(__x86_64__) || defined(_M_X64)
  asm("addsd %[b], %[a]" : [a] "+x"(a) : [b] "xm"(b));
  return a;
#else
  return a + b;
#endif
}

/// Output positions [lo, hi) along one axis whose input coordinate
/// o*stride + k - pad lands inside [0, in): the in-bounds run of one kernel
/// tap. Empty (lo == hi) when the tap only ever reads padding.
struct TapRun {
  std::size_t lo, hi;
};

inline TapRun tap_run(std::size_t k, std::size_t in, std::size_t out,
                      const ConvSpec& spec) {
  const std::size_t s = spec.stride;
  // o >= ceil((pad - k) / s) keeps the coordinate >= 0.
  const std::size_t lo =
      spec.pad > k ? std::min(out, (spec.pad - k + s - 1) / s) : 0;
  // o < ceil((in + pad - k) / s) keeps it < in.
  const std::size_t end = in + spec.pad;
  const std::size_t hi = end > k ? std::min(out, (end - k + s - 1) / s) : 0;
  return {lo, std::max(lo, hi)};
}

/// Offset in one input map of output position (oy, ox) under kernel tap
/// (ky, kx); both coordinates must lie inside their tap runs.
inline std::size_t tap_offset(std::size_t oy, std::size_t ky, std::size_t ox,
                              std::size_t kx, const ConvDims& d,
                              const ConvSpec& spec) {
  return (oy * spec.stride + ky - spec.pad) * d.w + ox * spec.stride + kx -
         spec.pad;
}

/// x image [ci,h,w] -> col [K = ci*kh*kw, P = ho*wo], row r = (ic,ky,kx) in
/// ascending order (matching the naive accumulation order), padding as
/// explicit zeros. Row r starts at col + r*ld (ld 0 means P; a larger ld
/// packs the image into a column block of a wider minibatch panel). Each
/// (row, kernel tap) is packed as one run: the in-bounds output range is
/// computed per tap, copied (memcpy at stride 1) and its borders
/// zero-filled, with no per-element bounds test.
void im2col(const double* xi, const ConvDims& d, const ConvSpec& spec,
            double* col, std::size_t ld = 0);

/// Scatter-accumulate col [K,P] back into one dx image, visiting rows in the
/// same ascending (ic,ky,kx) order im2col wrote them (so every dx element
/// receives its adds in the same order), one in-bounds run per tap.
void col2im(const double* col, const ConvDims& d, const ConvSpec& spec,
            double* dxi);

/// col2im of rows [r0, r1) only, for the simd conv driver: `col` holds row
/// r0, and row r0 + i starts at col + i*ld. Calls over consecutive row
/// ranges in ascending order add exactly what one col2im over [0, K) adds,
/// in the same order, each add keeping dx's NaN (add_first) as col2im's
/// `+=` does at -O2.
void col2im_rows(const double* col, std::size_t ld, const ConvDims& d,
                 const ConvSpec& spec, std::size_t r0, std::size_t r1,
                 double* dxi);

/// Observes `name` (seconds) on destruction; a single relaxed load and no
/// clock read when metrics are disabled.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(const char* name) : name_(name) {
    if (obs::metrics_enabled()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedHistTimer() {
    if (!armed_) return;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start_;
    obs::histogram_observe(name_, dt.count());
  }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  const char* name_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ckptfi::detail
