#include "layer_probes.hpp"

#include <map>
#include <memory>
#include <vector>

#include "core/campaign.hpp"
#include "data/synthetic_cifar.hpp"
#include "frameworks/framework.hpp"
#include "models/models.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

// The per-segment and per-conv probes need the layer tree a model owns, which
// nn::Model and nn::Residual keep private. An explicit instantiation may name
// a private member, so these taps read the tree without changing the library.
template <typename Tag, typename Tag::type Member>
struct Tap {
  friend typename Tag::type member_of(Tag) { return Member; }
};
struct ModelNet {
  using type = std::unique_ptr<ckptfi::nn::Sequential> ckptfi::nn::Model::*;
  friend type member_of(ModelNet);
};
struct ResidualMain {
  using type = ckptfi::nn::LayerPtr ckptfi::nn::Residual::*;
  friend type member_of(ResidualMain);
};
struct ResidualShortcut {
  using type = ckptfi::nn::LayerPtr ckptfi::nn::Residual::*;
  friend type member_of(ResidualShortcut);
};
template struct Tap<ModelNet, &ckptfi::nn::Model::net_>;
template struct Tap<ResidualMain, &ckptfi::nn::Residual::main_>;
template struct Tap<ResidualShortcut, &ckptfi::nn::Residual::shortcut_>;

namespace {

using namespace ckptfi;

const std::vector<std::string>& probe_models() {
  static const std::vector<std::string> names = {"alexnet", "vgg16",
                                                 "resnet50"};
  return names;
}

/// Top-level segment kind, as BENCHMARK.json names it.
std::string kind_of(nn::Layer& layer) {
  if (dynamic_cast<nn::Conv2D*>(&layer) != nullptr) return "conv";
  if (dynamic_cast<nn::Dense*>(&layer) != nullptr) return "dense";
  if (dynamic_cast<nn::BatchNorm2D*>(&layer) != nullptr) return "bn";
  if (dynamic_cast<nn::MaxPool2D*>(&layer) != nullptr ||
      dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
    return "pool";
  }
  if (dynamic_cast<nn::Residual*>(&layer) != nullptr) return "residual";
  return "other";
}

struct ConvShape {
  Shape x;
  Tensor w;
  ConvSpec spec;
};

/// Walks the layer tree in evaluation mode, recording every convolution's
/// input shape. A residual block's output has its main path's shape, which
/// is all the walk needs downstream.
Tensor collect_convs(nn::Layer& layer, const Tensor& x,
                     std::vector<ConvShape>& out) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    Tensor cur = x;
    for (std::size_t i = 0; i < seq->size(); ++i) {
      cur = collect_convs(seq->layer(i), cur, out);
    }
    return cur;
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&layer)) {
    Tensor y = collect_convs(*(res->*member_of(ResidualMain{})), x, out);
    if (const nn::LayerPtr& sc = res->*member_of(ResidualShortcut{})) {
      collect_convs(*sc, x, out);
    }
    return y;
  }
  if (auto* conv = dynamic_cast<nn::Conv2D*>(&layer)) {
    out.push_back({x.shape(), conv->weight(), conv->spec()});
  }
  return layer.forward(x, false);
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.uniform(-1.0, 1.0);
  }
  return t;
}

/// Median over `reps` timings of fn, in ms.
template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

void tensor_probe(const std::string& m, nn::Model& model, const Tensor& batch,
                  std::size_t reps, Rng& rng, Metrics& out) {
  std::vector<ConvShape> convs;
  collect_convs(*(model.*member_of(ModelNet{})), batch, convs);
  double fwd_ms = 0.0, bwd_ms = 0.0, gemm_ms = 0.0, flop = 0.0;
  for (const ConvShape& c : convs) {
    const std::size_t n = c.x[0], ci = c.x[1];
    const std::size_t ho = c.spec.out_extent(c.x[2]);
    const std::size_t wo = c.spec.out_extent(c.x[3]);
    const std::size_t co = c.w.shape()[0];
    const std::size_t k = ci * c.spec.kernel * c.spec.kernel;
    const Tensor x = random_tensor(c.x, rng);
    const Tensor b(Shape{co});
    Tensor y(Shape{n, co, ho, wo});
    const Tensor dy = random_tensor(y.shape(), rng);
    Tensor dx(c.x), dw(c.w.shape()), db(Shape{co});
    fwd_ms += time_ms(reps, [&] { conv2d_forward(x, c.w, b, c.spec, y); });
    bwd_ms += time_ms(reps, [&] {
      conv2d_backward(x, c.w, c.spec, dy, dx, dw, db);
    });
    // The forward convolution's GEMM on its own: W[co,k] x col[k, n*ho*wo].
    const Tensor a = random_tensor(Shape{co, k}, rng);
    const Tensor col = random_tensor(Shape{k, n * ho * wo}, rng);
    Tensor prod(Shape{co, n * ho * wo});
    gemm_ms += time_ms(reps, [&] { matmul(a, col, prod); });
    flop += 2.0 * static_cast<double>(co * k * n * ho * wo);
  }
  // Backward runs two GEMMs of the forward's size (dx and dw).
  const double gflop = 3.0 * flop * 1e-9;
  const std::string p = "tensor." + m + ".";
  out.set(p + "gemm_ms", gemm_ms, "ms");
  out.set(p + "conv_fwd_ms", fwd_ms, "ms");
  out.set(p + "conv_bwd_ms", bwd_ms, "ms");
  out.set(p + "im2col_share", fwd_ms > 0 ? (fwd_ms - gemm_ms) / fwd_ms : 0.0,
          "ratio");
  out.set(p + "gflop", gflop, "GFLOP");
  out.set(p + "gflop_per_s", gflop / ((fwd_ms + bwd_ms) * 1e-3), "GFLOP/s");
}

void nn_probe(const std::string& m, nn::Model& model,
              const std::vector<nn::Batch>& batches, std::size_t reps,
              Metrics& out) {
  nn::Sequential& net = *(model.*member_of(ModelNet{}));
  nn::Sgd sgd(nn::SgdConfig{0.02, 0.9, 5e-4});
  std::vector<double> fwd, bwd, sgd_ms, attributed;
  std::map<std::string, std::vector<double>> kind_fwd, kind_bwd;
  std::vector<std::string> kinds;
  for (std::size_t i = 0; i < net.size(); ++i) {
    kinds.push_back(kind_of(net.layer(i)));
  }
  for (std::size_t r = 0; r < reps; ++r) {
    for (const nn::Batch& batch : batches) {
      std::map<std::string, double> kf, kb;
      double f = 0.0, b = 0.0;
      Tensor cur = batch.x;
      for (std::size_t i = 0; i < net.size(); ++i) {
        const auto t0 = Clock::now();
        cur = net.layer(i).forward(cur, true);
        const double ms = seconds_since(t0) * 1e3;
        f += ms;
        kf[kinds[i]] += ms;
      }
      Tensor grad = nn::softmax_cross_entropy(cur, batch.y).dlogits;
      for (std::size_t i = net.size(); i-- > 0;) {
        const auto t0 = Clock::now();
        grad = net.layer(i).backward(grad);
        const double ms = seconds_since(t0) * 1e3;
        b += ms;
        kb[kinds[i]] += ms;
      }
      const auto ts = Clock::now();
      sgd.step(model.params());
      const double s = seconds_since(ts) * 1e3;

      // The same step through the model's own entry points, untimed inside.
      const auto tw = Clock::now();
      const Tensor logits = model.forward(batch.x, true);
      model.backward(nn::softmax_cross_entropy(logits, batch.y).dlogits);
      sgd.step(model.params());
      const double whole = seconds_since(tw) * 1e3;

      fwd.push_back(f);
      bwd.push_back(b);
      sgd_ms.push_back(s);
      attributed.push_back((f + b + s) / whole);
      for (const auto& [k, v] : kf) kind_fwd[k].push_back(v);
      for (const auto& [k, v] : kb) kind_bwd[k].push_back(v);
    }
  }
  const std::string p = "nn." + m + ".";
  out.set(p + "fwd_ms", median(fwd), "ms");
  out.set(p + "bwd_ms", median(bwd), "ms");
  out.set(p + "sgd_ms", median(sgd_ms), "ms");
  out.set(p + "attributed_ratio", median(attributed), "ratio");
  for (const auto& [k, v] : kind_fwd) {
    out.set(p + k + ".fwd_ms", median(v), "ms");
    out.set(p + k + ".bwd_ms", median(kind_bwd[k]), "ms");
  }
}

void frameworks_probe(const std::string& m, nn::Model& model,
                      std::size_t reps, Metrics& out) {
  const auto adapter = fw::make_adapter("chainer");
  const mh5::File ckpt = adapter->checkpoint_to_file(model, 64, 1);
  out.set("frameworks." + m + ".load_ms",
          time_ms(reps * 3, [&] { adapter->load_from_file(model, ckpt); }),
          "ms");
}

}  // namespace

void run_layer_probes(const ProbeConfig& cfg, Metrics& out) {
  data::SyntheticCifarConfig dc;
  dc.num_train = cfg.train_images;
  dc.num_test = cfg.batch_size;
  dc.seed = cfg.seed;
  const data::TrainTestSplit split = data::make_synthetic_cifar10(dc);
  const data::DataLoader loader(split.train, cfg.batch_size, cfg.seed);
  const std::vector<nn::Batch> batches = loader.batches(0);
  Rng rng(cfg.seed);
  for (const std::string& m : probe_models()) {
    models::ModelConfig mc;
    mc.width = core::campaign_model_width(cfg.width, m);
    const std::unique_ptr<nn::Model> model = models::make_model(m, mc);
    model->init(cfg.seed);
    frameworks_probe(m, *model, cfg.reps, out);
    tensor_probe(m, *model, batches.front().x, cfg.reps, rng, out);
    nn_probe(m, *model, batches, cfg.reps, out);
  }
}

}  // namespace perfbench
