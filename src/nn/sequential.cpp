#include "nn/sequential.hpp"

#include "nn/layers.hpp"
#include "obs/probes.hpp"
#include "util/common.hpp"

namespace ckptfi::nn {

Sequential& Sequential::add(LayerPtr layer) {
  require(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool training) {
  return forward_span(0, layers_.size(), x, training);
}

Tensor Sequential::forward_span(std::size_t from, std::size_t to,
                                const Tensor& x, bool training) {
  require(from <= to && to <= layers_.size(),
          "Sequential::forward_span: bad range");
  Tensor h = x;
  // Numeric-health probes observe each layer's output when a trial has a
  // probe scope installed on this thread (obs/probes.hpp). Observation-only:
  // the probed and unprobed paths run the same layer calls in the same
  // order, so checkpoints stay bit-identical either way. A partial span
  // records only the layers it runs; prefix-reuse trials splice the cached
  // stats of the skipped layers so stitched timelines keep the full layout.
  obs::Probes* probes = training ? obs::Probes::current() : nullptr;
  for (std::size_t i = from; i < to; ++i) {
    h = layers_[i]->forward(h, training);
    if (probes != nullptr) {
      probes->record(layers_[i]->name(), obs::ProbePhase::kForward, h.data(),
                     h.numel());
    }
  }
  return h;
}

bool Sequential::prefix_safe_upto(std::size_t end, bool training) const {
  require(end <= layers_.size(), "Sequential::prefix_safe_upto: bad end");
  for (std::size_t i = 0; i < end; ++i) {
    if (!layers_[i]->prefix_safe(training)) return false;
  }
  return true;
}

void Sequential::capture_state_upto(std::size_t end, PrefixState& out) const {
  require(end <= layers_.size(), "Sequential::capture_state_upto: bad end");
  for (std::size_t i = 0; i < end; ++i) {
    layers_[i]->capture_forward_state(out);
  }
}

void Sequential::restore_state_upto(std::size_t end, PrefixStateReader& in) {
  require(end <= layers_.size(), "Sequential::restore_state_upto: bad end");
  for (std::size_t i = 0; i < end; ++i) {
    layers_[i]->restore_forward_state(in);
  }
}

bool Sequential::prefix_safe(bool training) const {
  return prefix_safe_upto(layers_.size(), training);
}

void Sequential::capture_forward_state(PrefixState& out) const {
  capture_state_upto(layers_.size(), out);
}

void Sequential::restore_forward_state(PrefixStateReader& in) {
  restore_state_upto(layers_.size(), in);
}

Tensor Sequential::backward(const Tensor& dy) {
  Tensor g = dy;
  obs::Probes* probes = obs::Probes::current();
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
    if (probes != nullptr) {
      probes->record((*it)->name(), obs::ProbePhase::kBackward, g.data(),
                     g.numel());
    }
  }
  return g;
}

void Sequential::collect_params(std::vector<ParamRef>& out) {
  for (auto& l : layers_) l->collect_params(out);
}

void Sequential::init_params(Rng& rng) {
  for (auto& l : layers_) l->init_params(rng);
}

Residual::Residual(std::string name, LayerPtr main_path, LayerPtr shortcut)
    : Layer(std::move(name)),
      main_(std::move(main_path)),
      shortcut_(std::move(shortcut)) {
  require(main_ != nullptr, "Residual: null main path");
}

Tensor Residual::forward(const Tensor& x, bool training) {
  // The join is written into the main branch's output; an identity
  // shortcut reads x in place.
  Tensor y = main_->forward(x, training);
  Tensor projected;
  if (shortcut_) projected = shortcut_->forward(x, training);
  const Tensor& s = shortcut_ ? projected : x;
  require(y.shape() == s.shape(),
          "Residual '" + name() + "': branch shape mismatch " +
              shape_to_string(y.shape()) + " vs " + shape_to_string(s.shape()));
  relu_mask_.resize(y.numel());
  relu_inplace(y.data(), s.data(), relu_mask_.data(), y.numel());
  return y;
}

Tensor Residual::backward(const Tensor& dy) {
  Tensor g = dy;
  apply_mask(g.data(), relu_mask_.data(), g.numel());
  Tensor dx = main_->backward(g);
  if (shortcut_) {
    dx += shortcut_->backward(g);
  } else {
    dx += g;
  }
  return dx;
}

void Residual::collect_params(std::vector<ParamRef>& out) {
  main_->collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

void Residual::init_params(Rng& rng) {
  main_->init_params(rng);
  if (shortcut_) shortcut_->init_params(rng);
}

bool Residual::prefix_safe(bool training) const {
  return main_->prefix_safe(training) &&
         (shortcut_ == nullptr || shortcut_->prefix_safe(training));
}

void Residual::capture_forward_state(PrefixState& out) const {
  out.put_mask(relu_mask_);
  main_->capture_forward_state(out);
  if (shortcut_) shortcut_->capture_forward_state(out);
}

void Residual::restore_forward_state(PrefixStateReader& in) {
  in.take_mask(relu_mask_);
  main_->restore_forward_state(in);
  if (shortcut_) shortcut_->restore_forward_state(in);
}

}  // namespace ckptfi::nn
