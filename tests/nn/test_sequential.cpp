#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "util/common.hpp"

namespace ckptfi::nn {
namespace {

/// Probe layer that records call order and applies y = x + bias.
class Probe : public Layer {
 public:
  Probe(std::string name, std::vector<std::string>* trace, double bias)
      : Layer(std::move(name)), trace_(trace), bias_(bias) {}

  Tensor forward(const Tensor& x, bool) override {
    trace_->push_back("fwd:" + name());
    Tensor y = x;
    for (auto& v : y.vec()) v += bias_;
    return y;
  }
  Tensor backward(const Tensor& dy) override {
    trace_->push_back("bwd:" + name());
    return dy;
  }

 private:
  std::vector<std::string>* trace_;
  double bias_;
};

TEST(Sequential, ForwardInOrderBackwardReversed) {
  std::vector<std::string> trace;
  Sequential seq("s");
  seq.add(std::make_unique<Probe>("a", &trace, 1.0));
  seq.add(std::make_unique<Probe>("b", &trace, 2.0));
  seq.add(std::make_unique<Probe>("c", &trace, 3.0));

  Tensor x({1, 2}, 0.0);
  const Tensor y = seq.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  seq.backward(Tensor({1, 2}, 1.0));
  EXPECT_EQ(trace, (std::vector<std::string>{"fwd:a", "fwd:b", "fwd:c",
                                             "bwd:c", "bwd:b", "bwd:a"}));
}

TEST(Sequential, RejectsNullLayer) {
  Sequential seq("s");
  EXPECT_THROW(seq.add(nullptr), InvalidArgument);
}

TEST(Sequential, SizeAndLayerAccess) {
  Sequential seq("s");
  seq.emplace<ReLU>("r1");
  seq.emplace<ReLU>("r2");
  EXPECT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq.layer(1).name(), "r2");
}

TEST(Sequential, CollectsParamsInOrder) {
  Sequential seq("s");
  seq.emplace<Conv2D>("c1", 1, 2, 3, 1, 1);
  seq.emplace<Dense>("d1", 4, 2);
  std::vector<ParamRef> params;
  seq.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "c1/W");
  EXPECT_EQ(params[2].name, "d1/W");
}

TEST(Residual, IdentitySkipAddsInput) {
  // main path outputs zero (conv with zero weights) -> y = relu(x).
  auto main = std::make_unique<Sequential>("m");
  main->emplace<Conv2D>("c", 1, 1, 3, 1, 1);
  Residual res("res", std::move(main));
  // Leave conv weights at zero (constructor default): main(x) == 0.
  Tensor x({1, 1, 2, 2});
  x.vec() = {1.0, -2.0, 3.0, -4.0};
  const Tensor y = res.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);  // relu clamps the negative skip value
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(Residual, BackwardSplitsGradientAcrossBranches) {
  auto main = std::make_unique<Sequential>("m");
  main->emplace<Conv2D>("c", 1, 1, 1, 1, 0);
  auto* conv_raw = dynamic_cast<Conv2D*>(&main->layer(0));
  ASSERT_NE(conv_raw, nullptr);
  std::vector<ParamRef> params;
  conv_raw->collect_params(params);
  params[0].value->vec() = {2.0};  // main(x) = 2x, so y = relu(3x)
  Residual res("res", std::move(main));

  Tensor x({1, 1, 1, 1});
  x.vec() = {5.0};
  const Tensor y = res.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 15.0);
  const Tensor dx = res.backward(Tensor({1, 1, 1, 1}, 1.0));
  // dy/dx = d(3x)/dx = 3 through the active relu.
  EXPECT_DOUBLE_EQ(dx[0], 3.0);
}

// The join ReLU follows the ReLU layer's contract: relu(m + s) keeps NaN,
// maps -0.0 (and every non-positive sum) to +0.0, and backward routes the
// masked gradient to both branches (identity shortcut: dx = dmain + g).
TEST(Residual, JoinKeepsNaNAndMapsNegativeZeroToPositiveZero) {
  auto main = std::make_unique<Sequential>("m");
  main->emplace<Conv2D>("c", 1, 1, 1, 1, 0);  // zero weights: main(x) = 0
  Residual res("res", std::move(main));
  Tensor x({1, 1, 1, 5});
  x.vec() = {std::nan(""), -0.0, -2.0, 3.0, 0.0};
  const Tensor y = res.forward(x, true);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_TRUE(y[1] == 0.0 && !std::signbit(y[1]));  // (+0) + (-0) = +0
  EXPECT_TRUE(y[2] == 0.0 && !std::signbit(y[2]));
  EXPECT_EQ(y[3], 3.0);
  EXPECT_TRUE(y[4] == 0.0 && !std::signbit(y[4]));
  EXPECT_EQ(x[1], 0.0);  // the identity shortcut's input is left alone
  EXPECT_TRUE(std::signbit(x[1]));

  Tensor dy({1, 1, 1, 5});
  dy.vec() = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Tensor dx = res.backward(dy);
  // main's dx is W^T g = 0 everywhere; the shortcut passes g through.
  EXPECT_EQ(dx[0], 1.0);
  EXPECT_EQ(dx[1], 0.0);
  EXPECT_EQ(dx[2], 0.0);
  EXPECT_EQ(dx[3], 4.0);
  EXPECT_EQ(dx[4], 0.0);
}

TEST(Residual, JoinMaskRoundTripsThroughPrefixState) {
  auto make = [] {
    auto main = std::make_unique<Sequential>("m");
    main->emplace<Conv2D>("c", 1, 1, 1, 1, 0);
    return std::make_unique<Residual>("res", std::move(main));
  };
  auto res = make();
  Tensor x({1, 1, 2, 3});
  x.vec() = {1.0, -1.0, std::nan(""), -0.0, 2.0, -3.0};
  res->forward(x, true);
  PrefixState state;
  res->capture_forward_state(state);
  EXPECT_EQ(state.blocks()[0].tag, PrefixState::Tag::kMask);
  EXPECT_EQ(state.blocks()[0].u8,
            (std::vector<std::uint8_t>{1, 0, 1, 0, 1, 0}));

  auto restored = make();
  PrefixStateReader reader(state);
  restored->restore_forward_state(reader);
  EXPECT_TRUE(reader.exhausted());
  Tensor dy({1, 1, 2, 3});
  dy.vec() = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const Tensor want = res->backward(dy);
  const Tensor got = restored->backward(dy);
  EXPECT_EQ(want.vec(), got.vec());
}

TEST(Residual, ShapeMismatchThrows) {
  auto main = std::make_unique<Sequential>("m");
  main->emplace<Conv2D>("c", 1, 2, 3, 1, 1);  // channel change, no shortcut
  Residual res("res", std::move(main));
  Tensor x({1, 1, 4, 4});
  EXPECT_THROW(res.forward(x, true), InvalidArgument);
}

TEST(Residual, NullMainRejected) {
  EXPECT_THROW(Residual("res", nullptr), InvalidArgument);
}

TEST(Residual, CollectsShortcutParams) {
  auto main = std::make_unique<Sequential>("m");
  main->emplace<Conv2D>("c1", 2, 4, 3, 1, 1);
  auto sc = std::make_unique<Sequential>("s");
  sc->emplace<Conv2D>("down", 2, 4, 1, 1, 0);
  Residual res("res", std::move(main), std::move(sc));
  std::vector<ParamRef> params;
  res.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[2].name, "down/W");
}

}  // namespace
}  // namespace ckptfi::nn
