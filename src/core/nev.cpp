#include "core/nev.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace ckptfi::core {
namespace {

/// The three patterns of one width (see nev.hpp), in its own unsigned type
/// so the per-element compares stay width-native.
template <typename U>
struct Patterns {
  static constexpr int kBits = 8 * sizeof(U);
  // numeric_limits<U>::max() is a U; `~U{0} >> 1` would promote a u16 to
  // int first and keep the sign bit, counting every negative f16 as NaN.
  static constexpr U kAbsMask =
      static_cast<U>(std::numeric_limits<U>::max() >> 1);
  U inf;
  U floor;
};

template <typename U>
Patterns<U> make_patterns(std::uint64_t floor) {
  const FloatLayout layout = float_layout(Patterns<U>::kBits);
  const auto inf = static_cast<U>(
      ((std::uint64_t{1} << layout.exponent_bits) - 1) << layout.mantissa_bits);
  return {inf, static_cast<U>(floor)};
}

/// Lowest non-negative pattern whose decoded value exceeds `threshold`, or
/// the Inf pattern when no finite one does. `decode(p) > threshold` is
/// monotone over the non-negative patterns, so bisection finds the edge;
/// decode_float is the decode Dataset::get_double uses.
std::uint64_t find_floor(int bits, double threshold) {
  const FloatLayout layout = float_layout(bits);
  std::uint64_t lo = 0;
  std::uint64_t hi = ((std::uint64_t{1} << layout.exponent_bits) - 1)
                     << layout.mantissa_bits;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (decode_float(mid, bits) > threshold) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

template <typename U>
U load(const unsigned char* p) {
  U v;
  std::memcpy(&v, p, sizeof(U));
  return v;
}

template <typename U>
NevClass classify(U bits, const Patterns<U>& pat) {
  const U a = bits & Patterns<U>::kAbsMask;
  if (a > pat.inf) return NevClass::Nan;
  if (a == pat.inf) return NevClass::Inf;
  return NevClass::Extreme;
}

struct Tally {
  std::uint64_t nan = 0;
  std::uint64_t nonfinite = 0;  ///< abs >= inf
  std::uint64_t over = 0;       ///< abs >= floor: every N-EV element
};

/// Branch-free tally of `m` little-endian elements (m < 65536, so the
/// per-lane counters fit in U). Inlined with a constant m for full blocks,
/// which lets the compiler vectorize it at -O2.
template <typename U>
inline Tally tally(const unsigned char* q, std::size_t m,
                   const Patterns<U>& pat) {
  U nan = 0;
  U nonfinite = 0;
  U over = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const U a = load<U>(q + i * sizeof(U)) & Patterns<U>::kAbsMask;
    nan = static_cast<U>(nan + (a > pat.inf));
    nonfinite = static_cast<U>(nonfinite + (a >= pat.inf));
    over = static_cast<U>(over + (a >= pat.floor));
  }
  return {nan, nonfinite, over};
}

/// Counts over `n` elements; floor <= inf, so the classes fall out of the
/// tally by difference. Only blocks with a hit are walked again, element by
/// element, for `on_hit`.
template <typename U>
void count(const unsigned char* p, std::size_t n, const Patterns<U>& pat,
           NevScan& out, const NevClassifier::HitFn& on_hit) {
  constexpr std::size_t kBlock = 4096;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const unsigned char* q = p + base * sizeof(U);
    const std::size_t m = std::min(kBlock, n - base);
    const Tally t =
        m == kBlock ? tally(q, kBlock, pat) : tally(q, m, pat);
    out.nan += t.nan;
    out.inf += t.nonfinite - t.nan;
    out.extreme += t.over - t.nonfinite;
    if (t.over == 0 || !on_hit) continue;
    for (std::size_t i = 0; i < m; ++i) {
      const U bits = load<U>(q + i * sizeof(U));
      if ((bits & Patterns<U>::kAbsMask) >= pat.floor)
        on_hit(base + i, classify(bits, pat));
    }
  }
  out.total += n;
}

}  // namespace

NevClassifier::NevClassifier(double extreme_threshold)
    : floor16_(find_floor(16, extreme_threshold)),
      floor32_(find_floor(32, extreme_threshold)),
      floor64_(find_floor(64, extreme_threshold)) {}

void NevClassifier::scan(const mh5::Dataset& ds, NevScan& out,
                         const HitFn& on_hit) const {
  if (!mh5::dtype_is_float(ds.dtype())) return;
  const auto* p = ds.raw().data();
  const std::size_t n = ds.num_elements();
  switch (ds.dtype()) {
    case mh5::DType::F16:
      return count(p, n, make_patterns<std::uint16_t>(floor16_), out, on_hit);
    case mh5::DType::F32:
      return count(p, n, make_patterns<std::uint32_t>(floor32_), out, on_hit);
    case mh5::DType::F64:
      return count(p, n, make_patterns<std::uint64_t>(floor64_), out, on_hit);
    default:
      return;
  }
}

void NevClassifier::scan(const double* values, std::size_t n,
                         NevScan& out) const {
  count(reinterpret_cast<const unsigned char*>(values), n,
        make_patterns<std::uint64_t>(floor64_), out, {});
}

NevScan scan_checkpoint(const mh5::File& file) {
  static const NevClassifier classifier;
  NevScan scan;
  file.visit([&](const std::string&, const mh5::Node& node) {
    if (node.is_dataset()) classifier.scan(node.dataset(), scan);
  });
  return scan;
}

NevScan scan_model(nn::Model& model) {
  static const NevClassifier classifier;
  NevScan scan;
  for (const auto& p : model.params()) {
    const auto& v = p.value->vec();
    classifier.scan(v.data(), v.size(), scan);
  }
  return scan;
}

}  // namespace ckptfi::core
