// Numeric-health probes: stat blocks, layout freezing, thread-local scopes
// and divergence tracing (obs/probes.hpp).
#include "obs/probes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/common.hpp"

namespace ckptfi::obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TensorStats, OnePassCountsAndNorms) {
  const std::vector<double> x = {0.0, 3.0, -4.0, kNan, kInf, 0.0};
  const TensorStats s = tensor_stats(x.data(), x.size());
  EXPECT_EQ(s.numel, 6u);
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_EQ(s.inf_count, 1u);
  EXPECT_EQ(s.zero_count, 2u);
  EXPECT_DOUBLE_EQ(s.l2, 5.0);  // sqrt(9 + 16), finite values only
  EXPECT_DOUBLE_EQ(s.max_abs, 4.0);
  EXPECT_DOUBLE_EQ(s.zero_fraction(), 2.0 / 6.0);
  EXPECT_TRUE(s.non_finite());
}

TEST(TensorStats, EmptyAndExactEquality) {
  const TensorStats empty = tensor_stats(nullptr, 0);
  EXPECT_EQ(empty.numel, 0u);
  EXPECT_DOUBLE_EQ(empty.l2, 0.0);
  EXPECT_FALSE(empty.non_finite());

  const std::vector<double> x = {1.0, 2.0};
  EXPECT_TRUE(tensor_stats(x.data(), 2) == tensor_stats(x.data(), 2));
  // One-ulp-scale perturbation: exact equality must catch it.
  const std::vector<double> y = {1.0, 2.0 + 1e-15};
  EXPECT_TRUE(tensor_stats(x.data(), 2) != tensor_stats(y.data(), 2));
}

void record_step(Probes& p, std::uint64_t id, double a, double b) {
  p.begin_step(id);
  const double fwd[2] = {a, a};
  const double bwd[3] = {b, b, b};
  p.record("dense1", ProbePhase::kForward, fwd, 2);
  p.record("dense1", ProbePhase::kBackward, bwd, 3);
}

/// The serial branchy loop tensor_stats replaced: the bitwise reference.
TensorStats tensor_stats_reference(const double* x, std::size_t n) {
  TensorStats s;
  s.numel = n;
  double sumsq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    if (std::isnan(v)) {
      ++s.nan_count;
      continue;
    }
    if (std::isinf(v)) {
      ++s.inf_count;
      continue;
    }
    if (v == 0.0) ++s.zero_count;
    const double a = std::fabs(v);
    if (a > s.max_abs) s.max_abs = a;
    sumsq += v * v;
  }
  s.l2 = std::sqrt(sumsq);
  return s;
}

void expect_same_bits(const TensorStats& got, const TensorStats& want) {
  EXPECT_EQ(std::memcmp(&got.l2, &want.l2, sizeof(double)), 0)
      << got.l2 << " vs " << want.l2;
  EXPECT_EQ(std::memcmp(&got.max_abs, &want.max_abs, sizeof(double)), 0)
      << got.max_abs << " vs " << want.max_abs;
  EXPECT_EQ(got.nan_count, want.nan_count);
  EXPECT_EQ(got.inf_count, want.inf_count);
  EXPECT_EQ(got.zero_count, want.zero_count);
  EXPECT_EQ(got.numel, want.numel);
}

TEST(TensorStats, MatchesSerialReferenceBitwise) {
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<std::vector<double>> cases = {
      {},
      {kNan},
      {-0.0},
      {kInf, -kInf},
      {0.0, -0.0, kNan},
      {1e-300, -kSub, 3 * kSub, -1e-310},      // squares underflow to zero
      {1e200, -1e200, 1.0, 2.0, 1e155},        // sum of squares overflows
      {kMax, kNan, -kInf, -kMax, 0.5, -0.0, 7.0},
      {-kNan, 1.0, -1.0, 1e-160, 2.0, -3.0, kInf, 0.0, 5.0},
  };
  for (const std::vector<double>& x : cases) {
    expect_same_bits(tensor_stats(x.data(), x.size()),
                     tensor_stats_reference(x.data(), x.size()));
  }
  // Every length 0..33 over a mixed stream, so each vector-body/tail split
  // is covered at every offset of the special values.
  std::vector<double> mixed;
  const double pattern[] = {1.5,  kNan, -0.0, 2e-310, -kInf, 0.0,  -4.25,
                            1e300, kInf, -1e-5, 3.0,   kSub,  -1e300};
  for (int rep = 0; rep < 3; ++rep)
    for (const double v : pattern) mixed.push_back(v * (rep + 1));
  for (std::size_t off = 0; off < 2; ++off) {
    for (std::size_t n = 0; n + off <= 34 && n + off <= mixed.size(); ++n) {
      expect_same_bits(tensor_stats(mixed.data() + off, n),
                       tensor_stats_reference(mixed.data() + off, n));
    }
  }
}

TEST(Probes, LayoutLearnedOnStepZeroThenFrozen) {
  Probes p;
  EXPECT_TRUE(p.empty());
  record_step(p, 0, 1.0, 2.0);
  record_step(p, 1, 3.0, 4.0);
  EXPECT_EQ(p.num_steps(), 2u);
  EXPECT_EQ(p.points_per_step(), 2u);
  EXPECT_EQ(p.layout()[0].layer, "dense1");
  EXPECT_EQ(p.layout()[0].phase, ProbePhase::kForward);
  EXPECT_EQ(p.layout()[1].phase, ProbePhase::kBackward);
  EXPECT_EQ(p.step_id(1), 1u);
  EXPECT_DOUBLE_EQ(p.at(1, 0).l2, std::sqrt(2.0 * 9.0));
  EXPECT_EQ(p.at(1, 1).numel, 3u);
}

TEST(Probes, ScheduleDriftIsRejected) {
  Probes p;
  record_step(p, 0, 1.0, 1.0);
  p.begin_step(1);
  const double v[1] = {1.0};
  p.record("dense1", ProbePhase::kForward, v, 1);
  // Same slot, different layer name: the frozen schedule must reject it.
  EXPECT_THROW(p.record("dense2", ProbePhase::kForward, v, 1), Error);

  Probes q;
  record_step(q, 0, 1.0, 1.0);
  q.begin_step(1);
  q.record("dense1", ProbePhase::kForward, v, 1);
  q.record("dense1", ProbePhase::kBackward, v, 1);
  // A third point exceeds the step-0 layout.
  EXPECT_THROW(q.record("dense1", ProbePhase::kBackward, v, 1), Error);
}

TEST(Probes, ScopeInstallsPerThreadAndNests) {
  EXPECT_EQ(Probes::current(), nullptr);
  Probes outer_p, inner_p;
  {
    Probes::Scope outer(outer_p);
    EXPECT_EQ(Probes::current(), &outer_p);
    {
      Probes::Scope inner(inner_p);
      EXPECT_EQ(Probes::current(), &inner_p);
    }
    EXPECT_EQ(Probes::current(), &outer_p);
  }
  EXPECT_EQ(Probes::current(), nullptr);
}

TEST(Diverge, IdenticalTimelinesDoNotDiverge) {
  Probes clean, trial;
  for (std::uint64_t s = 0; s < 3; ++s) {
    record_step(clean, s, 1.0 + static_cast<double>(s), 2.0);
    record_step(trial, s, 1.0 + static_cast<double>(s), 2.0);
  }
  const DivergenceTrace t = diverge(clean, trial);
  EXPECT_FALSE(t.diverged);
  EXPECT_EQ(t.first_step, -1);
  EXPECT_EQ(t.depth, 0u);
  EXPECT_EQ(t.steps_compared, 3u);
  EXPECT_FALSE(t.truncated);
  EXPECT_TRUE(t.per_point.empty());
  EXPECT_LT(t.nan_onset.step, 0);
}

TEST(Diverge, FirstDeviationCoordinatesAndDepth) {
  Probes clean, trial;
  record_step(clean, 10, 1.0, 2.0);
  record_step(clean, 11, 1.0, 2.0);
  record_step(trial, 10, 1.0, 2.0);
  record_step(trial, 11, 1.0, 2.5);  // backward point deviates at step 11
  const DivergenceTrace t = diverge(clean, trial);
  EXPECT_TRUE(t.diverged);
  EXPECT_EQ(t.first_step, 11);
  EXPECT_EQ(t.first_point, 1);
  EXPECT_EQ(t.first_layer, "dense1");
  EXPECT_EQ(t.first_phase, ProbePhase::kBackward);
  EXPECT_GT(t.first_rel_dev, 0.0);
  EXPECT_EQ(t.depth, 1u);  // one distinct layer
  EXPECT_EQ(t.points_diverged, 1u);
  ASSERT_EQ(t.per_point.size(), 1u);
  EXPECT_EQ(t.per_point[0].point, 1u);
  EXPECT_EQ(t.per_point[0].first_step, 11);
}

TEST(Diverge, NanOnsetAndTruncation) {
  Probes clean, trial;
  for (std::uint64_t s = 0; s < 3; ++s) record_step(clean, s, 1.0, 2.0);
  record_step(trial, 0, 1.0, 2.0);
  record_step(trial, 1, kNan, 2.0);  // forward point goes NaN at step 1
  const DivergenceTrace t = diverge(clean, trial);
  EXPECT_TRUE(t.diverged);
  EXPECT_TRUE(t.truncated);  // trial stopped a step early (N-EV style)
  EXPECT_EQ(t.steps_compared, 2u);
  EXPECT_EQ(t.nan_onset.step, 1);
  EXPECT_EQ(t.nan_onset.point, 0);
  EXPECT_EQ(t.nan_onset.layer, "dense1");
  EXPECT_LT(t.inf_onset.step, 0);

  const Json j = t.to_json();
  EXPECT_TRUE(j.at("diverged").as_bool());
  EXPECT_EQ(j.at("nan_onset").at("step").as_int(), 1);
  EXPECT_TRUE(j.at("inf_onset").is_null());
  EXPECT_EQ(j.at("per_point").size(), t.per_point.size());
}

TEST(Diverge, LayoutMismatchThrows) {
  Probes clean, trial;
  record_step(clean, 0, 1.0, 2.0);
  trial.begin_step(0);
  const double v[1] = {1.0};
  trial.record("other", ProbePhase::kForward, v, 1);
  EXPECT_THROW(diverge(clean, trial), Error);
}

}  // namespace
}  // namespace ckptfi::obs
