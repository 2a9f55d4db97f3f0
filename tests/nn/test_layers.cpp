#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/rng.hpp"

namespace ckptfi::nn {
namespace {

TEST(Conv2DLayer, ShapesAndParams) {
  Conv2D conv("conv1", 3, 8, 3, 1, 1);
  Rng rng(1);
  conv.init_params(rng);
  Tensor x({2, 3, 8, 8});
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));

  std::vector<ParamRef> params;
  conv.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "conv1/W");
  EXPECT_EQ(params[0].value->shape(), (Shape{8, 3, 3, 3}));
  EXPECT_EQ(params[1].name, "conv1/b");
  EXPECT_TRUE(params[0].trainable);
}

TEST(Conv2DLayer, StrideReducesSpatial) {
  Conv2D conv("c", 2, 4, 3, 2, 1);
  Rng rng(2);
  conv.init_params(rng);
  Tensor x({1, 2, 8, 8});
  EXPECT_EQ(conv.forward(x, true).shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2DLayer, HeInitScalesWithFanIn) {
  Conv2D narrow("n", 1, 4, 3, 1, 1), wide("w", 64, 4, 3, 1, 1);
  Rng r1(3), r2(3);
  narrow.init_params(r1);
  wide.init_params(r2);
  auto spread = [](const Tensor& t) {
    double sq = 0;
    for (double v : t.vec()) sq += v * v;
    return std::sqrt(sq / static_cast<double>(t.numel()));
  };
  EXPECT_GT(spread(narrow.weight()), 3 * spread(wide.weight()));
}

TEST(DenseLayer, ForwardMatchesManual) {
  Dense fc("fc", 2, 3);
  std::vector<ParamRef> params;
  fc.collect_params(params);
  // W [in=2, out=3], b [3]
  params[0].value->vec() = {1, 2, 3, 4, 5, 6};
  params[1].value->vec() = {10, 20, 30};
  Tensor x({1, 2});
  x[0] = 1;
  x[1] = 2;
  const Tensor y = fc.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 1 * 1 + 2 * 4 + 10);
  EXPECT_DOUBLE_EQ(y[1], 1 * 2 + 2 * 5 + 20);
  EXPECT_DOUBLE_EQ(y[2], 1 * 3 + 2 * 6 + 30);
}

TEST(DenseLayer, BadInputShapeThrows) {
  Dense fc("fc", 4, 2);
  Tensor x({1, 3});
  EXPECT_THROW(fc.forward(x, true), InvalidArgument);
}

TEST(ReLULayer, ForwardZeroesNegatives) {
  ReLU relu("r");
  Tensor x = Tensor::from({-1, 0, 2, -3});
  const Tensor y = relu.forward(x.reshaped({1, 4}), true);
  EXPECT_DOUBLE_EQ(y[0], 0);
  EXPECT_DOUBLE_EQ(y[1], 0);
  EXPECT_DOUBLE_EQ(y[2], 2);
  EXPECT_DOUBLE_EQ(y[3], 0);
}

TEST(ReLULayer, BackwardMasks) {
  ReLU relu("r");
  Tensor x = Tensor::from({-1, 2, 3, -4}).reshaped({1, 4});
  relu.forward(x, true);
  Tensor dy = Tensor::from({10, 10, 10, 10}).reshaped({1, 4});
  const Tensor dx = relu.backward(dy);
  EXPECT_DOUBLE_EQ(dx[0], 0);
  EXPECT_DOUBLE_EQ(dx[1], 10);
  EXPECT_DOUBLE_EQ(dx[2], 10);
  EXPECT_DOUBLE_EQ(dx[3], 0);
}

TEST(ReLULayer, PropagatesNaN) {
  ReLU relu("r");
  Tensor x({1, 2});
  x[0] = std::nan("");
  x[1] = -1;
  const Tensor y = relu.forward(x, true);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

bool is_positive_zero(double v) { return v == 0.0 && !std::signbit(v); }

// The keep test is !(v <= 0): NaN (either sign, any payload) passes through
// unchanged, every other non-positive value becomes +0.0 — -0.0 included —
// and backward zeroes exactly the dropped elements.
TEST(ReLULayer, NaNPassesAndNegativeZeroBecomesPositiveZero) {
  const double nan_neg = -std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Tensor x({1, 9});
  x.vec() = {std::nan(""), nan_neg, -0.0, 0.0, -inf, inf, -1e-320, 2.5, -3.0};
  ReLU relu("r");
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(std::memcmp(y.data(), x.data(), sizeof(double)), 0);  // payload
  EXPECT_EQ(std::memcmp(y.data() + 1, x.data() + 1, sizeof(double)), 0);
  EXPECT_TRUE(is_positive_zero(y[2]));
  EXPECT_TRUE(is_positive_zero(y[3]));
  EXPECT_TRUE(is_positive_zero(y[4]));
  EXPECT_EQ(y[5], inf);
  EXPECT_TRUE(is_positive_zero(y[6]));
  EXPECT_EQ(y[7], 2.5);
  EXPECT_TRUE(is_positive_zero(y[8]));

  Tensor dy({1, 9});
  dy.vec() = {1.0, 2.0, -0.0, 4.0, 5.0, -6.0, 7.0, std::nan(""), 9.0};
  const Tensor dx = relu.backward(dy);
  EXPECT_EQ(dx[0], 1.0);
  EXPECT_EQ(dx[1], 2.0);
  EXPECT_TRUE(is_positive_zero(dx[2]));
  EXPECT_TRUE(is_positive_zero(dx[3]));
  EXPECT_TRUE(is_positive_zero(dx[4]));
  EXPECT_EQ(dx[5], -6.0);
  EXPECT_TRUE(is_positive_zero(dx[6]));
  EXPECT_TRUE(std::isnan(dx[7]));  // kept gradient, NaN or not
  EXPECT_TRUE(is_positive_zero(dx[8]));
}

// The ReLU mask is prefix state: capture then restore into a fresh layer
// must reproduce the forward's backward bitwise.
TEST(ReLULayer, MaskRoundTripsThroughPrefixState) {
  Tensor x({2, 5});
  x.vec() = {1.0, -1.0, std::nan(""), -0.0, 0.0, 3.0, -2.0, 4.0, 1e-300, -5.0};
  ReLU relu("r");
  relu.forward(x, true);
  PrefixState state;
  relu.capture_forward_state(state);
  ASSERT_EQ(state.block_count(), 1u);
  EXPECT_EQ(state.blocks()[0].tag, PrefixState::Tag::kMask);
  EXPECT_EQ(state.byte_size(), x.numel());  // one byte per element

  ReLU restored("r");
  PrefixStateReader reader(state);
  restored.restore_forward_state(reader);
  EXPECT_TRUE(reader.exhausted());
  Tensor dy({2, 5});
  for (std::size_t i = 0; i < dy.numel(); ++i) dy[i] = 1.0 + i;
  const Tensor want = relu.backward(dy);
  const Tensor got = restored.backward(dy);
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.numel() * sizeof(double)),
            0);
}

TEST(PrefixStateMask, StoresBytesAndRestoresZeroOrOne) {
  PrefixState state;
  state.put_mask({1, 0, 1, 1, 0});
  PrefixState::Block tampered = state.blocks()[0];
  tampered.u8[2] = 0xff;  // any nonzero byte restores as 1
  PrefixState copy;
  copy.append_block(tampered);
  std::vector<std::uint8_t> m;
  PrefixStateReader reader(copy);
  reader.take_mask(m);
  EXPECT_EQ(m, (std::vector<std::uint8_t>{1, 0, 1, 1, 0}));
  EXPECT_TRUE(state.blocks()[0].u64.empty());
  EXPECT_EQ(state.byte_size(), 5u);
}

TEST(FlattenLayer, RoundTrips) {
  Flatten fl("f");
  Tensor x({2, 3, 4, 5});
  const Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor dx = fl.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(BatchNormLayer, NormalisesBatchStatistics) {
  BatchNorm2D bn("bn", 2);
  Rng rng(5);
  bn.init_params(rng);
  Tensor x({4, 2, 3, 3});
  Rng data_rng(6);
  for (auto& v : x.vec()) v = data_rng.normal(5.0, 2.0);
  const Tensor y = bn.forward(x, /*training=*/true);
  // Per-channel mean ~0 and variance ~1 after normalisation.
  const std::size_t hw = 9;
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0, sq = 0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < hw; ++i) {
        const double v = y[(n * 2 + c) * hw + i];
        sum += v;
        sq += v * v;
        ++count;
      }
    }
    const double m = sum / static_cast<double>(count);
    EXPECT_NEAR(m, 0.0, 1e-10);
    EXPECT_NEAR(sq / static_cast<double>(count) - m * m, 1.0, 1e-3);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStats) {
  BatchNorm2D bn("bn", 1);
  Rng rng(7);
  bn.init_params(rng);
  // Before any training step, running stats are (0, 1): eval is identity.
  Tensor x({1, 1, 2, 2});
  x.vec() = {1, 2, 3, 4};
  const Tensor y = bn.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(y[i], x[i], 1e-4);
}

TEST(BatchNormLayer, RunningStatsUpdateInTraining) {
  BatchNorm2D bn("bn", 1, /*momentum=*/0.0);  // running = batch exactly
  Rng rng(8);
  bn.init_params(rng);
  Tensor x({2, 1, 1, 2});
  x.vec() = {2, 4, 6, 8};  // mean 5, var 5
  bn.forward(x, true);
  std::vector<ParamRef> params;
  bn.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[2].name, "bn/running_mean");
  EXPECT_FALSE(params[2].trainable);
  EXPECT_NEAR((*params[2].value)[0], 5.0, 1e-12);
  EXPECT_NEAR((*params[3].value)[0], 5.0, 1e-12);
}

TEST(BatchNormLayer, ParamNames) {
  BatchNorm2D bn("stage1_block1_bn1", 4);
  std::vector<ParamRef> params;
  bn.collect_params(params);
  EXPECT_EQ(params[0].name, "stage1_block1_bn1/gamma");
  EXPECT_EQ(params[1].name, "stage1_block1_bn1/beta");
  EXPECT_EQ(params[3].name, "stage1_block1_bn1/running_var");
}

// BatchNorm2D's forward interleaves four channels' mean and variance chains
// (batch_stats), and any later change to its backward sums must keep each
// channel's chain order. One-channel loops are the reference: dx, dgamma
// and dbeta must equal them bit for bit at every channel count, clean and
// with Inf/NaN/±0/1e300 in x and dy.
// NaN payloads are exempt: which NaN operand survives a commutative mul or
// add is the compiler's choice in each translation unit.
void bn_reference(const Tensor& x, const Tensor& dy, double eps, Tensor& dx,
                  std::vector<double>& dgamma, std::vector<double>& dbeta) {
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * hw);
  dx = Tensor(x.shape());
  dgamma.assign(c, 0.0);
  dbeta.assign(c, 0.0);
  for (std::size_t ch = 0; ch < c; ++ch) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < hw; ++j) s += x[(i * c + ch) * hw + j];
    const double m = s / count;
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < hw; ++j) {
        const double p = x[(i * c + ch) * hw + j];
        v += (p - m) * (p - m);
      }
    const double inv_std = 1.0 / std::sqrt(v / count + eps);
    std::vector<double> xh(n * hw);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < hw; ++j)
        xh[i * hw + j] = (x[(i * c + ch) * hw + j] - m) * inv_std;
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < hw; ++j) {
        sum_dy += dy[(i * c + ch) * hw + j];
        sum_dy_xhat += dy[(i * c + ch) * hw + j] * xh[i * hw + j];
      }
    dgamma[ch] = sum_dy_xhat;
    dbeta[ch] = sum_dy;
    const double g = 1.0 * inv_std;  // gamma is 1 after init_params
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < hw; ++j)
        dx[(i * c + ch) * hw + j] =
            g * (dy[(i * c + ch) * hw + j] - sum_dy / count -
                 xh[i * hw + j] * sum_dy_xhat / count);
  }
}

bool same_bits_or_nan(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BatchNormLayer, BackwardMatchesOneChannelLoops) {
  const double poison[] = {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           0.0, -0.0, 1e300, -1e300};
  for (const std::size_t c : {1, 2, 3, 4, 5, 8}) {
    for (const bool poisoned : {false, true}) {
      SCOPED_TRACE("channels " + std::to_string(c) +
                   (poisoned ? " poisoned" : " clean"));
      Rng rng(40 + c);
      Tensor x({3, c, 2, 3}), dy({3, c, 2, 3});
      for (auto& v : x.vec()) v = rng.normal(1.0, 2.0);
      for (auto& v : dy.vec()) v = rng.normal();
      if (poisoned) {
        // Poison one channel of x per value, and dy sparsely everywhere.
        for (std::size_t k = 0; k < 7; ++k) {
          x[(k * 5) % x.numel()] = poison[k];
          dy[(k * 11 + 3) % dy.numel()] = poison[(k + 3) % 7];
        }
      }
      BatchNorm2D bn("bn", c);
      Rng init(1);
      bn.init_params(init);
      bn.forward(x, /*training=*/true);
      const Tensor dx = bn.backward(dy);
      std::vector<ParamRef> params;
      bn.collect_params(params);
      Tensor dx_ref;
      std::vector<double> dgamma_ref, dbeta_ref;
      bn_reference(x, dy, 1e-5, dx_ref, dgamma_ref, dbeta_ref);
      for (std::size_t i = 0; i < dx.numel(); ++i)
        EXPECT_TRUE(same_bits_or_nan(dx[i], dx_ref[i])) << "dx " << i;
      for (std::size_t ch = 0; ch < c; ++ch) {
        EXPECT_TRUE(same_bits_or_nan((*params[0].grad)[ch], dgamma_ref[ch]))
            << "dgamma " << ch;
        EXPECT_TRUE(same_bits_or_nan((*params[1].grad)[ch], dbeta_ref[ch]))
            << "dbeta " << ch;
      }
    }
  }
}

TEST(MaxPoolLayer, ForwardBackwardShapes) {
  MaxPool2D pool("p", 2, 2);
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<double>(i);
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2, 2}));
  const Tensor dx = pool.backward(Tensor(y.shape(), 1.0));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(GlobalAvgPoolLayer, Shapes) {
  GlobalAvgPool gap("g");
  Tensor x({3, 5, 4, 4}, 2.0);
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  const Tensor dx = gap.backward(Tensor({3, 5}, 16.0));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_DOUBLE_EQ(dx[0], 1.0);
}

}  // namespace
}  // namespace ckptfi::nn
