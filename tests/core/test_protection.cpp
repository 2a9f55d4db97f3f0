#include "core/protection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/corrupter.hpp"
#include "core/nev.hpp"
#include "nev_patterns.hpp"

namespace ckptfi::core {
namespace {

mh5::File damaged_file() {
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F64, {6});
  ds.set_double(0, 0.5);
  ds.set_double(1, std::nan(""));
  ds.set_double(2, INFINITY);
  ds.set_double(3, -INFINITY);
  ds.set_double(4, 1e31);
  ds.set_double(5, -2.0);
  return f;
}

TEST(Guard, ZeroRepairsAllNev) {
  mh5::File f = damaged_file();
  const GuardReport rep = guard_checkpoint(f, {1e30, RepairAction::Zero});
  EXPECT_EQ(rep.nan_found, 1u);
  EXPECT_EQ(rep.inf_found, 2u);
  EXPECT_EQ(rep.extreme_found, 1u);
  EXPECT_EQ(rep.repaired, 4u);
  EXPECT_FALSE(rep.rejected);
  const auto& ds = f.dataset("w");
  EXPECT_DOUBLE_EQ(ds.get_double(0), 0.5);
  EXPECT_DOUBLE_EQ(ds.get_double(1), 0.0);
  EXPECT_DOUBLE_EQ(ds.get_double(2), 0.0);
  EXPECT_DOUBLE_EQ(ds.get_double(4), 0.0);
  EXPECT_DOUBLE_EQ(ds.get_double(5), -2.0);
  EXPECT_FALSE(scan_checkpoint(f).any());
}

TEST(Guard, ClampPreservesSign) {
  mh5::File f = damaged_file();
  guard_checkpoint(f, {1e30, RepairAction::Clamp});
  const auto& ds = f.dataset("w");
  EXPECT_DOUBLE_EQ(ds.get_double(1), 0.0);  // NaN has no usable sign
  EXPECT_DOUBLE_EQ(ds.get_double(2), 1e30);
  EXPECT_DOUBLE_EQ(ds.get_double(3), -1e30);
  EXPECT_DOUBLE_EQ(ds.get_double(4), 1e30);
}

TEST(Guard, RejectReportsWithoutMutating) {
  mh5::File f = damaged_file();
  const auto before = f.serialize();
  const GuardReport rep = guard_checkpoint(f, {1e30, RepairAction::Reject});
  EXPECT_TRUE(rep.rejected);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_EQ(f.serialize(), before);
}

TEST(Guard, CleanFileIsUntouched) {
  mh5::File f;
  f.create_dataset("w", mh5::DType::F64, {2}).write_doubles({1.0, -1.0});
  const auto before = f.serialize();
  const GuardReport rep = guard_checkpoint(f);
  EXPECT_EQ(rep.found(), 0u);
  EXPECT_FALSE(rep.rejected);
  EXPECT_EQ(f.serialize(), before);
}

TEST(Guard, ThresholdIsConfigurable) {
  mh5::File f;
  f.create_dataset("w", mh5::DType::F64, {1}).set_double(0, 1e6);
  GuardReport rep = guard_checkpoint(f, {1e5, RepairAction::Zero});
  EXPECT_EQ(rep.extreme_found, 1u);
  EXPECT_DOUBLE_EQ(f.dataset("w").get_double(0), 0.0);
}

TEST(Guard, IgnoresIntegerDatasets) {
  mh5::File f;
  f.create_dataset("ints", mh5::DType::I64, {1}).set_int(0, 1 << 30);
  const GuardReport rep = guard_checkpoint(f);
  EXPECT_EQ(rep.scanned, 0u);
}

// The paper's Discussion VI.1 claim, end to end: critical-bit corruption
// that would otherwise collapse the file is fully disarmed by the guard.
TEST(Guard, DisarmsCriticalBitCorruption) {
  mh5::File f;
  auto& ds = f.create_dataset("model/w", mh5::DType::F64, {64});
  for (std::uint64_t i = 0; i < 64; ++i) ds.set_double(i, 0.5);
  CorrupterConfig cc;
  cc.injection_attempts = 64;
  cc.corruption_mode = CorruptionMode::BitRange;
  cc.first_bit = 62;
  cc.last_bit = 62;  // critical bit only
  cc.seed = 1;
  Corrupter corrupter(cc);
  corrupter.corrupt(f);
  EXPECT_TRUE(scan_checkpoint(f).any());

  guard_checkpoint(f, {1e30, RepairAction::Zero});
  EXPECT_FALSE(scan_checkpoint(f).any());
}

// --- the bit-pattern guard vs the per-element loop it replaced -----------

/// guard_checkpoint as it was: get_double per element, repairs in place.
GuardReport reference_guard(mh5::File& file, const GuardConfig& cfg) {
  GuardReport report;
  const auto repair = [&](mh5::Dataset& ds, std::uint64_t i, double v) {
    if (cfg.action == RepairAction::Reject) return;
    double fixed;
    if (std::isnan(v)) {
      fixed = 0.0;
    } else if (cfg.action == RepairAction::Zero) {
      fixed = 0.0;
    } else {
      fixed = std::copysign(cfg.extreme_threshold, v);
    }
    ds.set_double(i, fixed);
    ++report.repaired;
  };
  file.visit([&](const std::string&, const mh5::Node& node) {
    if (!node.is_dataset()) return;
    auto& ds = const_cast<mh5::Dataset&>(node.dataset());
    if (!mh5::dtype_is_float(ds.dtype())) return;
    for (std::uint64_t i = 0; i < ds.num_elements(); ++i) {
      const double v = ds.get_double(i);
      ++report.scanned;
      if (std::isnan(v)) {
        ++report.nan_found;
        repair(ds, i, v);
      } else if (std::isinf(v)) {
        ++report.inf_found;
        repair(ds, i, v);
      } else if (std::fabs(v) > cfg.extreme_threshold) {
        ++report.extreme_found;
        repair(ds, i, v);
      }
    }
  });
  report.rejected = cfg.action == RepairAction::Reject && report.found() > 0;
  return report;
}

void expect_same_report(const GuardReport& got, const GuardReport& want) {
  EXPECT_EQ(got.scanned, want.scanned);
  EXPECT_EQ(got.nan_found, want.nan_found);
  EXPECT_EQ(got.inf_found, want.inf_found);
  EXPECT_EQ(got.extreme_found, want.extreme_found);
  EXPECT_EQ(got.repaired, want.repaired);
  EXPECT_EQ(got.rejected, want.rejected);
}

TEST(Guard, MatchesElementwiseLoopBitForBit) {
  const auto path =
      (std::filesystem::temp_directory_path() / "guard_reference.mh5")
          .string();
  for (const double t : {1e30, 1e4, 0.5}) {
    {
      mh5::File f;
      for (const int bits : {16, 32, 64}) {
        nev_test::add_patterns(f, "w" + std::to_string(bits), bits,
                              nev_test::edge_patterns(bits, t));
      }
      // A clean dataset: a repairing guard must leave it clean.
      f.create_dataset("clean", mh5::DType::F32, {3})
          .write_doubles({0.25, -0.25, 0.0});
      f.create_dataset("ints", mh5::DType::I32, {2}).set_int(1, -7);
      f.save(path);
    }
    for (const RepairAction action :
         {RepairAction::Reject, RepairAction::Zero, RepairAction::Clamp}) {
      SCOPED_TRACE("threshold " + std::to_string(t) + ", action " +
                   std::to_string(static_cast<int>(action)));
      const GuardConfig cfg{t, action};
      mh5::File got = mh5::File::load_lazy(path);
      mh5::File want = mh5::File::load_lazy(path);
      expect_same_report(guard_checkpoint(got, cfg),
                         reference_guard(want, cfg));
      EXPECT_EQ(got.serialize(), want.serialize());
      for (const auto& p : got.dataset_paths()) {
        EXPECT_EQ(got.dataset(p).is_dirty(), want.dataset(p).is_dirty()) << p;
      }
      EXPECT_FALSE(got.dataset("ints").is_materialized());
    }
  }
  std::filesystem::remove(path);
}

TEST(Guard, F16ThresholdBelowHalfMax) {
  // 1e4 sits inside the f16 range: 10000 itself stays, the next half
  // (10008) and everything above it up to 65504 is extreme.
  mh5::File f;
  auto& ds = f.create_dataset("w", mh5::DType::F16, {5});
  ds.write_doubles({1e4, 10008.0, -65504.0, -1e4, 0.5});
  mh5::File ref = mh5::File::deserialize(f.serialize());
  const GuardConfig cfg{1e4, RepairAction::Clamp};
  const GuardReport rep = guard_checkpoint(f, cfg);
  expect_same_report(rep, reference_guard(ref, cfg));
  EXPECT_EQ(rep.extreme_found, 2u);
  EXPECT_EQ(f.serialize(), ref.serialize());
  EXPECT_DOUBLE_EQ(f.dataset("w").get_double(2), -1e4);
}

}  // namespace
}  // namespace ckptfi::core
