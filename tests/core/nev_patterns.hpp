// Shared fixtures for the N-EV classifier tests: float bit patterns at the
// classification edges, and the per-element get_double scan the bit-pattern
// classifier replaced, kept as the reference.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/nev.hpp"
#include "hdf5/file.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace ckptfi::core::nev_test {

/// Bit patterns of width `bits` covering every class edge, both signs of
/// each: zero, smallest and largest subnormal, smallest normal, one, max
/// finite, Inf, signalling and quiet NaN (smallest and full payload), the
/// patterns one ulp either side of `threshold` and of 1e30, then `random`
/// uniformly random patterns.
inline std::vector<std::uint64_t> edge_patterns(int bits, double threshold,
                                                std::size_t random = 2000) {
  const FloatLayout l = float_layout(bits);
  const std::uint64_t sign = std::uint64_t{1} << l.sign_bit();
  const std::uint64_t mant = (std::uint64_t{1} << l.mantissa_bits) - 1;
  const std::uint64_t inf = ((std::uint64_t{1} << l.exponent_bits) - 1)
                            << l.mantissa_bits;
  const std::uint64_t quiet = std::uint64_t{1} << (l.mantissa_bits - 1);
  std::vector<std::uint64_t> mags = {0, 1, mant, mant + 1,
                                     encode_float(1.0, bits), inf - 1, inf,
                                     inf + 1, inf | quiet, inf | mant};
  for (const double t : {threshold, 1e30}) {
    if (std::isnan(t) || t < 0) continue;
    const std::uint64_t near = encode_float(t, bits);
    for (const std::uint64_t m : {near - 1, near, near + 1}) {
      if (m <= (inf | mant)) mags.push_back(m);
    }
  }
  std::vector<std::uint64_t> out;
  for (const std::uint64_t m : mags) {
    out.push_back(m);
    out.push_back(m | sign);
  }
  Rng rng(static_cast<std::uint64_t>(bits) * 1009);
  const std::uint64_t width_mask = bits == 64 ? ~std::uint64_t{0}
                                              : (std::uint64_t{1} << bits) - 1;
  for (std::size_t i = 0; i < random; ++i) {
    out.push_back(rng.next_u64() & width_mask);
  }
  return out;
}

/// A float dataset holding `patterns` verbatim.
inline mh5::Dataset& add_patterns(mh5::File& f, const std::string& path,
                                  int bits,
                                  const std::vector<std::uint64_t>& patterns) {
  auto& ds = f.create_dataset(path, mh5::float_dtype_for_bits(bits),
                              {patterns.size()});
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    ds.set_element_bits(i, patterns[i]);
  }
  return ds;
}

/// The scan as it was: decode every element through get_double.
inline NevScan reference_scan(const mh5::File& file, double threshold) {
  NevScan c;
  file.visit([&](const std::string&, const mh5::Node& node) {
    if (!node.is_dataset()) return;
    const mh5::Dataset& ds = node.dataset();
    if (!mh5::dtype_is_float(ds.dtype())) return;
    for (std::uint64_t i = 0; i < ds.num_elements(); ++i) {
      const double v = ds.get_double(i);
      ++c.total;
      if (std::isnan(v)) {
        ++c.nan;
      } else if (std::isinf(v)) {
        ++c.inf;
      } else if (std::fabs(v) > threshold) {
        ++c.extreme;
      }
    }
  });
  return c;
}

}  // namespace ckptfi::core::nev_test
