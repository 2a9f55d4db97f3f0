#include "core/nev.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "nev_patterns.hpp"
#include "models/models.hpp"

namespace ckptfi::core {
namespace {

TEST(NevScan, CleanFileHasNone) {
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F64, {4});
  ds.write_doubles({0.1, -0.2, 1e20, 0.0});
  const NevScan scan = scan_checkpoint(f);
  EXPECT_EQ(scan.total, 4u);
  EXPECT_EQ(scan.nev(), 0u);
  EXPECT_FALSE(scan.any());
}

TEST(NevScan, ClassifiesNanInfExtreme) {
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F64, {5});
  ds.set_double(0, std::nan(""));
  ds.set_double(1, INFINITY);
  ds.set_double(2, -INFINITY);
  ds.set_double(3, 1e31);  // beyond kExtremeThreshold
  ds.set_double(4, 0.5);
  const NevScan scan = scan_checkpoint(f);
  EXPECT_EQ(scan.nan, 1u);
  EXPECT_EQ(scan.inf, 2u);
  EXPECT_EQ(scan.extreme, 1u);
  EXPECT_EQ(scan.nev(), 4u);
  EXPECT_TRUE(scan.any());
}

TEST(NevScan, IgnoresIntegerDatasets) {
  mh5::File f;
  f.create_dataset("ints", mh5::DType::I64, {3});
  const NevScan scan = scan_checkpoint(f);
  EXPECT_EQ(scan.total, 0u);
}

TEST(NevScan, F16InfinityDetected) {
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F16, {1});
  ds.set_element_bits(0, 0x7c00u);  // +inf in half
  EXPECT_EQ(scan_checkpoint(f).inf, 1u);
}

TEST(NevScan, ModelScan) {
  models::ModelConfig cfg;
  cfg.width = 2;
  auto model = models::make_mini_alexnet(cfg);
  model->init(1);
  EXPECT_FALSE(scan_model(*model).any());
  (*model->find_param("conv1/W")->value)[0] = std::nan("");
  (*model->find_param("fc8/b")->value)[0] = 1e31;
  const NevScan scan = scan_model(*model);
  EXPECT_EQ(scan.nan, 1u);
  EXPECT_EQ(scan.extreme, 1u);
}

// --- bit-pattern classifier vs the per-element get_double scan ------------

using nev_test::add_patterns;
using nev_test::edge_patterns;
using nev_test::reference_scan;

void expect_same_counts(const NevScan& got, const NevScan& want) {
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.nan, want.nan);
  EXPECT_EQ(got.inf, want.inf);
  EXPECT_EQ(got.extreme, want.extreme);
}

NevScan classify_file(const mh5::File& f, double threshold) {
  const NevClassifier classifier(threshold);
  NevScan scan;
  f.visit([&](const std::string&, const mh5::Node& node) {
    if (node.is_dataset()) classifier.scan(node.dataset(), scan);
  });
  return scan;
}

const double kThresholds[] = {kExtremeThreshold,
                              1e4,
                              65504.0,
                              1.0,
                              0.0,
                              -1.0,
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()};

TEST(NevClassifier, EveryF16PatternMatchesGetDouble) {
  // All 65536 half patterns, so every negative f16 is in (a u16 abs mask
  // built as `~uint16_t{0} >> 1` keeps the sign bit and calls them NaN).
  std::vector<std::uint64_t> all(1u << 16);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  mh5::File f;
  add_patterns(f, "w", 16, all);
  for (const double t : kThresholds) {
    SCOPED_TRACE(t);
    expect_same_counts(classify_file(f, t), reference_scan(f, t));
  }
}

TEST(NevClassifier, EdgePatternsMatchGetDoubleAtEveryWidth) {
  for (const int bits : {16, 32, 64}) {
    for (const double t : kThresholds) {
      SCOPED_TRACE(std::to_string(bits) + " bits, threshold " +
                   std::to_string(t));
      mh5::File f;
      add_patterns(f, "w", bits, edge_patterns(bits, t));
      expect_same_counts(classify_file(f, t), reference_scan(f, t));
    }
  }
}

TEST(NevClassifier, NegativeF16ValuesAreFiniteUnlessNev) {
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F16, {5});
  ds.write_doubles({-1.0, -0.5, -65504.0, -0.0, -1e-7});
  const NevScan scan = scan_checkpoint(f);
  EXPECT_EQ(scan.total, 5u);
  EXPECT_EQ(scan.nev(), 0u);
  ds.set_element_bits(1, 0xfc00u);  // -Inf
  ds.set_element_bits(2, 0xfc01u);  // signalling NaN, sign set
  ds.set_element_bits(3, 0xfe00u);  // quiet NaN, sign set
  const NevScan dirty = scan_checkpoint(f);
  EXPECT_EQ(dirty.inf, 1u);
  EXPECT_EQ(dirty.nan, 2u);
  EXPECT_EQ(dirty.extreme, 0u);
}

TEST(NevClassifier, OneUlpEitherSideOf1e30) {
  // f32: the nearest float to 1e30 lies above it, so it is already extreme
  // and the float one ulp below is the largest non-extreme one.
  const float above = static_cast<float>(1e30);
  ASSERT_GT(static_cast<double>(above), 1e30);
  const float below = std::nextafter(above, 0.0f);
  mh5::File f;
  auto& w32 = f.create_dataset("w32", mh5::DType::F32, {4});
  w32.set_element_bits(0, f32_to_bits(above));
  w32.set_element_bits(1, f32_to_bits(-above));
  w32.set_element_bits(2, f32_to_bits(below));
  w32.set_element_bits(3, f32_to_bits(-below));
  auto& w64 = f.create_dataset("w64", mh5::DType::F64, {4});
  w64.write_doubles({1e30, -1e30, std::nextafter(1e30, 2e30),
                     -std::nextafter(1e30, 2e30)});
  const NevScan scan = scan_checkpoint(f);
  EXPECT_EQ(scan.extreme, 4u);  // +-above (f32), +-nextafter(1e30) (f64)
  EXPECT_EQ(scan.nan + scan.inf, 0u);
}

TEST(NevClassifier, HitsArriveInIndexOrderWithTheirClass) {
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F32, {10000});
  ds.set_element_bits(7, 0xff800001u);  // NaN, sign set
  ds.set_element_bits(4100, 0x7f800000u);  // +Inf, past the first block
  ds.set_double(9999, -1e31);
  std::vector<std::pair<std::uint64_t, NevClass>> hits;
  NevScan scan;
  NevClassifier().scan(ds, scan, [&](std::uint64_t i, NevClass c) {
    hits.emplace_back(i, c);
  });
  const std::vector<std::pair<std::uint64_t, NevClass>> want = {
      {7, NevClass::Nan}, {4100, NevClass::Inf}, {9999, NevClass::Extreme}};
  EXPECT_EQ(hits, want);
  EXPECT_EQ(scan.total, 10000u);
  EXPECT_EQ(scan.nev(), 3u);
}

TEST(NevClassifier, IntegerDatasetsAreNeverFaultedIn) {
  const auto path =
      (std::filesystem::temp_directory_path() / "nev_lazy_ints.mh5").string();
  {
    mh5::File f;
    f.create_dataset("ints", mh5::DType::I64, {3}).set_int(0, -1);
    f.create_dataset("bytes", mh5::DType::U8, {3});
    f.create_dataset("w", mh5::DType::F32, {2}).set_double(0, INFINITY);
    f.save(path);
  }
  const mh5::File lazy = mh5::File::load_lazy(path);
  const NevScan scan = scan_checkpoint(lazy);
  EXPECT_EQ(scan.total, 2u);
  EXPECT_EQ(scan.inf, 1u);
  EXPECT_FALSE(lazy.dataset("ints").is_materialized());
  EXPECT_FALSE(lazy.dataset("bytes").is_materialized());
  EXPECT_TRUE(lazy.dataset("w").is_materialized());
  std::filesystem::remove(path);
}

TEST(NevClassifier, ModelScanMatchesElementwiseClassification) {
  models::ModelConfig cfg;
  cfg.width = 2;
  auto model = models::make_mini_alexnet(cfg);
  model->init(1);
  auto& w = *model->find_param("conv1/W")->value;
  const auto specials = edge_patterns(64, kExtremeThreshold, 0);
  ASSERT_LE(specials.size(), w.vec().size());
  for (std::size_t i = 0; i < specials.size(); ++i) {
    w[i] = bits_to_f64(specials[i]);
  }
  NevScan want;
  for (const auto& p : model->params()) {
    for (const double v : p.value->vec()) {
      ++want.total;
      if (std::isnan(v)) {
        ++want.nan;
      } else if (std::isinf(v)) {
        ++want.inf;
      } else if (std::fabs(v) > kExtremeThreshold) {
        ++want.extreme;
      }
    }
  }
  const NevScan got = scan_model(*model);
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.nan, want.nan);
  EXPECT_EQ(got.inf, want.inf);
  EXPECT_EQ(got.extreme, want.extreme);
  EXPECT_GT(got.nev(), 0u);
}

}  // namespace
}  // namespace ckptfi::core
