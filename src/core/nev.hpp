// N-EV detection: NaN and extreme values (paper Section V-B).
//
// "Extreme values" are finite values so large that computing with them
// collapses the network; the paper groups them with NaN/Inf as "N-EV".
//
// Classification works on bit patterns, straight from the raw payload bytes.
// For each float width, let `abs` be an element's bits with the sign bit
// cleared and `inf` the exponent-all-ones pattern with a zero mantissa
// (f16 0x7c00, f32 0x7f800000, f64 0x7ff0000000000000):
//
//   NaN      abs >  inf
//   Inf      abs == inf
//   extreme  floor <= abs < inf
//
// where `floor` is the lowest pattern whose value exceeds the threshold,
// found once per width by bisection over the (monotone) non-negative
// patterns. At the default 1e30 threshold that is f32 0x7149f2ca (the f32
// nearest 1e30 lies above it, so it is extreme) and f64
// 0x46293e5939a08ceb (the double after 1e30); no finite f16 exceeds
// 1e30, so the f16 floor is its Inf pattern.
// This is exactly |decoded value| > threshold for every pattern, including
// negative thresholds (every finite value is extreme) and NaN thresholds
// (none is).
#pragma once

#include <cstdint>
#include <functional>

#include "hdf5/file.hpp"
#include "nn/model.hpp"
#include "util/bitops.hpp"

namespace ckptfi::core {

struct NevScan {
  std::uint64_t total = 0;    ///< entries scanned
  std::uint64_t nan = 0;      ///< NaN entries
  std::uint64_t inf = 0;      ///< +/-Inf entries
  std::uint64_t extreme = 0;  ///< finite |v| > kExtremeThreshold

  std::uint64_t nev() const { return nan + inf + extreme; }
  bool any() const { return nev() > 0; }
};

enum class NevClass : std::uint8_t { Nan, Inf, Extreme };

/// The bit-pattern classifier above, for one extreme-value threshold.
class NevClassifier {
 public:
  /// Called for every N-EV element, in ascending index order.
  using HitFn = std::function<void(std::uint64_t index, NevClass cls)>;

  explicit NevClassifier(double extreme_threshold = kExtremeThreshold);

  /// Add the counts of float dataset `ds` to `out`, faulting its payload in;
  /// non-float datasets are skipped without touching their payload. The
  /// payload is only read, so `on_hit` may rewrite the element it is given.
  void scan(const mh5::Dataset& ds, NevScan& out,
            const HitFn& on_hit = {}) const;

  /// Add the counts of `n` doubles to `out`.
  void scan(const double* values, std::size_t n, NevScan& out) const;

 private:
  // The lowest extreme `abs` pattern per width.
  std::uint64_t floor16_;
  std::uint64_t floor32_;
  std::uint64_t floor64_;
};

/// Scan every float dataset in a checkpoint.
NevScan scan_checkpoint(const mh5::File& file);

/// Scan a live model's parameters.
NevScan scan_model(nn::Model& model);

}  // namespace ckptfi::core
