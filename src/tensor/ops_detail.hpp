// Internals shared by the naive, fast and simd kernel translation units.
#pragma once

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

/// x image [ci,h,w] -> col [K = ci*kh*kw, P = ho*wo], row r = (ic,ky,kx) in
/// ascending order (matching the naive accumulation order), padding as
/// explicit zeros. Each (row, kernel tap) is packed as one run: the
/// in-bounds output range is computed per tap, copied (memcpy at stride 1)
/// and its borders zero-filled, with no per-element bounds test.
void im2col(const double* xi, const ConvDims& d, const ConvSpec& spec,
            double* col);

/// Scatter-accumulate col [K,P] back into one dx image, visiting rows in the
/// same ascending (ic,ky,kx) order im2col wrote them (so every dx element
/// receives its adds in the same order), one in-bounds run per tap.
void col2im(const double* col, const ConvDims& d, const ConvSpec& spec,
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
