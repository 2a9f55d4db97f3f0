// Training goldens: the exact bits one probed training epoch produces.
//
// Each case trains alexnet, vgg16 or resnet50 at the campaign widths
// (core::campaign_model_width of the default width 4) for one epoch with a
// probe timeline attached, then folds into one crc32:
//   - every parameter value and gradient,
//   - every probe point's TensorStats of every step,
//   - the eval-mode logits of the test batches.
// The constants were recorded before any of the simd conv-driver, microkernel
// or layer-loop optimisations landed, so they pin that those optimisations
// kept every output bit. The scalar-vs-vector tests cannot catch a change of
// the shared conv driver, because both ISAs run it; these goldens do.
//
// The poisoned case writes Inf, -Inf, NaN, +0, -0, 1e300 and -1e300 into the
// second weight layer (for resnet50 a 1x1 stride-1 convolution) and -0.0
// into a bias, so the zero-skip, NaN propagation and signed-zero handling of
// every kernel and layer loop are part of the pinned bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "data/synthetic_cifar.hpp"
#include "models/models.hpp"
#include "nn/trainer.hpp"
#include "obs/probes.hpp"
#include "tensor/kernels.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"

namespace ckptfi {
namespace {

class IsaGuard {
 public:
  explicit IsaGuard(SimdIsa isa) : prev_(simd_isa()) { set_simd_isa(isa); }
  ~IsaGuard() { set_simd_isa(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  SimdIsa prev_;
};

class PrecisionGuard {
 public:
  explicit PrecisionGuard(GemmPrecision p) : prev_(gemm_precision()) {
    set_gemm_precision(p);
  }
  ~PrecisionGuard() { set_gemm_precision(prev_); }
  PrecisionGuard(const PrecisionGuard&) = delete;
  PrecisionGuard& operator=(const PrecisionGuard&) = delete;

 private:
  GemmPrecision prev_;
};

class BackendGuard {
 public:
  explicit BackendGuard(KernelBackend b) : prev_(kernel_backend()) {
    set_kernel_backend(b);
  }
  ~BackendGuard() { set_kernel_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  KernelBackend prev_;
};

void fold_doubles(std::uint32_t& crc, const double* p, std::size_t n) {
  crc = crc32(p, n * sizeof(double), crc);
}

void fold_u64(std::uint32_t& crc, std::uint64_t v) {
  crc = crc32(&v, sizeof v, crc);
}

void poison(nn::Model& model) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {kInf, -kInf, kNaN, 0.0, -0.0, 1e300, -1e300};
  std::vector<const nn::ParamRef*> weights;
  for (const nn::ParamRef& p : model.params()) {
    if (p.name.size() > 2 && p.name.compare(p.name.size() - 2, 2, "/W") == 0)
      weights.push_back(&p);
  }
  ASSERT_GE(weights.size(), 2u);
  Tensor& w = *weights[1]->value;
  const std::size_t stride = w.numel() / std::size(values);
  for (std::size_t i = 0; i < std::size(values); ++i) w[i * stride] = values[i];

  const std::string bias =
      weights[0]->name.substr(0, weights[0]->name.size() - 2) + "/b";
  nn::ParamRef* b = model.find_param(bias);
  ASSERT_NE(b, nullptr) << bias;
  (*b->value)[0] = -0.0;
}

/// crc32 of one probed epoch of `model_name`, see the file comment.
std::uint32_t training_digest(const std::string& model_name, bool poisoned) {
  models::ModelConfig mc;
  mc.width = core::campaign_model_width(4, model_name);
  auto model = models::make_model(model_name, mc);
  model->init(2021);
  if (poisoned) poison(*model);

  data::SyntheticCifarConfig dc;
  dc.num_train = 16;
  dc.num_test = 8;
  dc.seed = 77;
  const data::TrainTestSplit split = data::make_synthetic_cifar10(dc);
  const data::DataLoader train(split.train, 8, 5);
  const data::DataLoader test(split.test, 8, 5);

  nn::TrainConfig tc;
  tc.epochs = 1;
  nn::Trainer trainer(*model, tc);
  obs::Probes probes;
  trainer.set_probes(&probes);
  trainer.train_epoch(train.batches(0));
  trainer.set_probes(nullptr);

  std::uint32_t crc = 0;
  for (const nn::ParamRef& p : model->params()) {
    fold_doubles(crc, p.value->data(), p.value->numel());
    if (p.trainable) fold_doubles(crc, p.grad->data(), p.grad->numel());
  }
  for (std::size_t s = 0; s < probes.num_steps(); ++s) {
    for (std::size_t pt = 0; pt < probes.points_per_step(); ++pt) {
      const obs::TensorStats& st = probes.at(s, pt);
      fold_doubles(crc, &st.l2, 1);
      fold_doubles(crc, &st.max_abs, 1);
      fold_u64(crc, st.nan_count);
      fold_u64(crc, st.inf_count);
      fold_u64(crc, st.zero_count);
      fold_u64(crc, st.numel);
    }
  }
  for (const nn::Batch& b : test.sequential_batches()) {
    const Tensor logits = model->forward(b.x, /*training=*/false);
    fold_doubles(crc, logits.data(), logits.numel());
  }
  return crc;
}

struct Golden {
  const char* model;
  bool poisoned;
  std::uint32_t vector_crc;  ///< AVX2 (or NEON)
  std::uint32_t scalar_crc;  ///< CKPTFI_SIMD=off
};

// Recorded under the simd backend with the default Release build (gcc 12,
// -O2). The ISAs agree except on alexnet poisoned: there one NaN (conv1's
// bias after the update) carries the opposite sign bit. Its source is the
// conv bias gradient's row sums. When two NaNs meet in one add, x86 keeps
// the first operand's, and the compiler ordered one commutative add of
// row_sums_avx2 differently from the scalar fallback. An -O0 build follows
// source order in both and gets the scalar value. Both bit patterns are
// pinned as recorded.
constexpr Golden kGoldens[] = {
    {"alexnet", false, 0x5bf6d13fu, 0x5bf6d13fu},
    {"alexnet", true, 0xb1ac3ca9u, 0x7766531bu},
    {"vgg16", false, 0xe2119688u, 0xe2119688u},
    {"vgg16", true, 0xea4b42e4u, 0xea4b42e4u},
    {"resnet50", false, 0xc0a8a307u, 0xc0a8a307u},
    {"resnet50", true, 0xefae814au, 0xefae814au},
};

#if defined(__aarch64__)
constexpr SimdIsa kVectorIsa = SimdIsa::kNeon;
#else
constexpr SimdIsa kVectorIsa = SimdIsa::kAvx2;
#endif

// The poisoned constants carry x86's default NaN (Inf - Inf, 0 * Inf), which
// has the sign bit set; aarch64's default NaN has it clear. They were
// recorded on x86-64 only.
#if defined(__x86_64__)
constexpr bool kPoisonedRecordedHere = true;
#else
constexpr bool kPoisonedRecordedHere = false;
#endif

bool vector_isa_available() {
  try {
    IsaGuard probe(kVectorIsa);
    return true;
  } catch (const InvalidArgument&) {
    return false;
  }
}

void check_goldens(SimdIsa isa) {
  BackendGuard backend(KernelBackend::kSimd);
  PrecisionGuard precision(GemmPrecision::kFp64);
  IsaGuard guard(isa);
  for (const Golden& g : kGoldens) {
    if (g.poisoned && !kPoisonedRecordedHere) continue;
    const std::uint32_t got = training_digest(g.model, g.poisoned);
    const std::uint32_t want =
        isa == SimdIsa::kScalar ? g.scalar_crc : g.vector_crc;
    EXPECT_EQ(got, want) << g.model << (g.poisoned ? " poisoned" : " clean")
                          << " under " << simd_isa_name() << ": got 0x"
                          << std::hex << got;
  }
}

TEST(TrainingGoldens, ScalarFallbackMatchesRecordedBits) {
  check_goldens(SimdIsa::kScalar);
}

TEST(TrainingGoldens, VectorIsaMatchesRecordedBits) {
  if (!vector_isa_available()) GTEST_SKIP() << "no vector ISA on this host";
  check_goldens(kVectorIsa);
}

}  // namespace
}  // namespace ckptfi
