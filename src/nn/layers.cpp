#include "nn/layers.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/common.hpp"

namespace ckptfi::nn {

// --- byte-mask loops ---------------------------------------------------------
//
// Branch-free: the keep test `!(v <= 0)` is a compare, and zeroing is an AND
// of the value's bits with 0 or all-ones. +0.0 is the all-zero pattern, so a
// dropped element becomes +0.0 whatever its sign was.

namespace {

inline double keep_or_zero(double v, std::uint8_t keep) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) &
                               (std::uint64_t{0} - keep));
}

inline double relu_one(double v, std::uint8_t& mask) {
  mask = !(v <= 0.0);
  return keep_or_zero(v, mask);
}

}  // namespace

void relu_inplace(double* x, const double* addend, std::uint8_t* mask,
                  std::size_t n) {
  if (addend == nullptr) {
    for (std::size_t i = 0; i < n; ++i) x[i] = relu_one(x[i], mask[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = relu_one(x[i] + addend[i], mask[i]);
  }
}

void apply_mask(double* g, const std::uint8_t* mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) g[i] = keep_or_zero(g[i], mask[i]);
}

// --- Conv2D -----------------------------------------------------------------

Conv2D::Conv2D(std::string name, std::size_t in_ch, std::size_t out_ch,
               std::size_t kernel, std::size_t stride, std::size_t pad)
    : Layer(std::move(name)),
      in_ch_(in_ch),
      out_ch_(out_ch),
      spec_{kernel, stride, pad},
      w_({out_ch, in_ch, kernel, kernel}),
      b_({out_ch}),
      dw_({out_ch, in_ch, kernel, kernel}),
      db_({out_ch}) {}

void Conv2D::init_params(Rng& rng) {
  // He initialisation for ReLU networks.
  const double fan_in =
      static_cast<double>(in_ch_ * spec_.kernel * spec_.kernel);
  const double s = std::sqrt(2.0 / fan_in);
  for (auto& v : w_.vec()) v = rng.normal(0.0, s);
  b_.fill(0.0);
}

Tensor Conv2D::forward(const Tensor& x, bool) {
  x_cache_ = x;
  Tensor y;
  conv2d_forward(x, w_, b_, spec_, y);
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) {
  Tensor dx;
  conv2d_backward(x_cache_, w_, spec_, dy, dx, dw_, db_);
  return dx;
}

void Conv2D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + "/W", &w_, &dw_, true});
  out.push_back({name() + "/b", &b_, &db_, true});
}

// --- Dense -------------------------------------------------------------------

Dense::Dense(std::string name, std::size_t in_dim, std::size_t out_dim)
    : Layer(std::move(name)),
      in_dim_(in_dim),
      out_dim_(out_dim),
      w_({in_dim, out_dim}),
      b_({out_dim}),
      dw_({in_dim, out_dim}),
      db_({out_dim}) {}

void Dense::init_params(Rng& rng) {
  const double s = std::sqrt(2.0 / static_cast<double>(in_dim_));
  for (auto& v : w_.vec()) v = rng.normal(0.0, s);
  b_.fill(0.0);
}

Tensor Dense::forward(const Tensor& x, bool) {
  require(x.rank() == 2 && x.dim(1) == in_dim_,
          "Dense '" + name() + "': bad input shape " +
              shape_to_string(x.shape()));
  x_cache_ = x;
  Tensor y;
  matmul(x, w_, y);
  const std::size_t n = y.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_dim_; ++j) y[i * out_dim_ + j] += b_[j];
  }
  return y;
}

Tensor Dense::backward(const Tensor& dy) {
  matmul_at(x_cache_, dy, dw_);
  db_.fill(0.0);
  const std::size_t n = dy.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_dim_; ++j) db_[j] += dy[i * out_dim_ + j];
  }
  Tensor dx;
  matmul_bt(dy, w_, dx);
  return dx;
}

void Dense::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + "/W", &w_, &dw_, true});
  out.push_back({name() + "/b", &b_, &db_, true});
}

// --- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool) {
  Tensor y = x;
  mask_.resize(y.numel());
  relu_inplace(y.data(), nullptr, mask_.data(), y.numel());
  return y;
}

Tensor ReLU::backward(const Tensor& dy) {
  Tensor dx = dy;
  apply_mask(dx.data(), mask_.data(), dx.numel());
  return dx;
}

// --- MaxPool2D -----------------------------------------------------------------

MaxPool2D::MaxPool2D(std::string name, std::size_t kernel, std::size_t stride,
                     std::size_t pad)
    : Layer(std::move(name)), spec_{kernel, stride, pad} {}

Tensor MaxPool2D::forward(const Tensor& x, bool) {
  x_shape_ = x.shape();
  Tensor y;
  maxpool2d_forward(x, spec_, y, argmax_);
  return y;
}

Tensor MaxPool2D::backward(const Tensor& dy) {
  Tensor dx(x_shape_);
  maxpool2d_backward(dy, argmax_, dx);
  return dx;
}

// --- GlobalAvgPool -----------------------------------------------------------

Tensor GlobalAvgPool::forward(const Tensor& x, bool) {
  x_shape_ = x.shape();
  Tensor y;
  global_avgpool_forward(x, y);
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& dy) {
  Tensor dx;
  global_avgpool_backward(dy, x_shape_, dx);
  return dx;
}

// --- Flatten -------------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool) {
  x_shape_ = x.shape();
  require(x.rank() >= 2, "Flatten: rank >= 2 required");
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshaped(x_shape_); }

// --- BatchNorm2D ----------------------------------------------------------------

BatchNorm2D::BatchNorm2D(std::string name, std::size_t channels,
                         double momentum, double eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}, 1.0),
      beta_({channels}),
      dgamma_({channels}),
      dbeta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0),
      unused_grad_({channels}) {}

void BatchNorm2D::init_params(Rng&) {
  gamma_.fill(1.0);
  beta_.fill(0.0);
  running_mean_.fill(0.0);
  running_var_.fill(1.0);
}

namespace {

/// Batch mean and biased variance of channels [ch, ch + group), group 1 or
/// 4. Each channel's two sums are serial chains in ascending (image,
/// position) order, exactly as a one-channel loop adds them; with group 4
/// the four channels' chains interleave so they overlap in the FP pipeline.
void batch_stats(const double* x, std::size_t n, std::size_t c,
                 std::size_t hw, std::size_t ch, std::size_t group,
                 double count, double* mean, double* var) {
  if (group == 1) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = x + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) s += p[j];
    }
    const double m = s / count;
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = x + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) v += (p[j] - m) * (p[j] - m);
    }
    mean[0] = m;
    var[0] = v / count;
    return;
  }
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = x + (i * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) {
      s0 += p[j];
      s1 += p[hw + j];
      s2 += p[2 * hw + j];
      s3 += p[3 * hw + j];
    }
  }
  const double m0 = s0 / count, m1 = s1 / count, m2 = s2 / count,
               m3 = s3 / count;
  double v0 = 0.0, v1 = 0.0, v2 = 0.0, v3 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = x + (i * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) {
      v0 += (p[j] - m0) * (p[j] - m0);
      v1 += (p[hw + j] - m1) * (p[hw + j] - m1);
      v2 += (p[2 * hw + j] - m2) * (p[2 * hw + j] - m2);
      v3 += (p[3 * hw + j] - m3) * (p[3 * hw + j] - m3);
    }
  }
  mean[0] = m0;
  mean[1] = m1;
  mean[2] = m2;
  mean[3] = m3;
  var[0] = v0 / count;
  var[1] = v1 / count;
  var[2] = v2 / count;
  var[3] = v3 / count;
}

}  // namespace

Tensor BatchNorm2D::forward(const Tensor& x, bool training) {
  require(x.rank() == 4 && x.dim(1) == channels_,
          "BatchNorm2D '" + name() + "': bad input shape");
  x_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = channels_, hw = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * hw);

  batch_mean_.assign(c, 0.0);
  batch_inv_std_.assign(c, 0.0);
  Tensor y(x.shape());
  x_hat_.resize(x.shape());

  for (std::size_t ch0 = 0; ch0 < c;) {
    const std::size_t group = training && ch0 + 4 <= c ? 4 : 1;
    double mean[4], var[4];
    if (training) batch_stats(x.data(), n, c, hw, ch0, group, count, mean, var);
    for (std::size_t g = 0; g < group; ++g) {
      const std::size_t ch = ch0 + g;
      double m, v;
      if (training) {
        m = mean[g];
        v = var[g];
        running_mean_[ch] = momentum_ * running_mean_[ch] + (1 - momentum_) * m;
        running_var_[ch] = momentum_ * running_var_[ch] + (1 - momentum_) * v;
      } else {
        m = running_mean_[ch];
        v = running_var_[ch];
      }
      const double inv_std = 1.0 / std::sqrt(v + eps_);
      batch_mean_[ch] = m;
      batch_inv_std_[ch] = inv_std;
      const double gamma = gamma_[ch], beta = beta_[ch];
      for (std::size_t i = 0; i < n; ++i) {
        const double* p = x.data() + (i * c + ch) * hw;
        double* ph = x_hat_.data() + (i * c + ch) * hw;
        double* py = y.data() + (i * c + ch) * hw;
        for (std::size_t j = 0; j < hw; ++j) {
          ph[j] = (p[j] - m) * inv_std;
          py[j] = gamma * ph[j] + beta;
        }
      }
    }
    ch0 += group;
  }
  return y;
}

Tensor BatchNorm2D::backward(const Tensor& dy) {
  const std::size_t n = x_shape_[0], c = channels_,
                    hw = x_shape_[2] * x_shape_[3];
  const double count = static_cast<double>(n * hw);
  Tensor dx(x_shape_);

  for (std::size_t ch = 0; ch < c; ++ch) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* pdy = dy.data() + (i * c + ch) * hw;
      const double* ph = x_hat_.data() + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        sum_dy += pdy[j];
        sum_dy_xhat += pdy[j] * ph[j];
      }
    }
    dgamma_[ch] = sum_dy_xhat;
    dbeta_[ch] = sum_dy;
    const double g = gamma_[ch] * batch_inv_std_[ch];
    for (std::size_t i = 0; i < n; ++i) {
      const double* pdy = dy.data() + (i * c + ch) * hw;
      const double* ph = x_hat_.data() + (i * c + ch) * hw;
      double* pdx = dx.data() + (i * c + ch) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        pdx[j] =
            g * (pdy[j] - sum_dy / count - ph[j] * sum_dy_xhat / count);
      }
    }
  }
  return dx;
}

void BatchNorm2D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + "/gamma", &gamma_, &dgamma_, true});
  out.push_back({name() + "/beta", &beta_, &dbeta_, true});
  out.push_back(
      {name() + "/running_mean", &running_mean_, &unused_grad_, false});
  out.push_back(
      {name() + "/running_var", &running_var_, &unused_grad_, false});
}

// --- prefix-reuse capture/restore -----------------------------------------
//
// Each layer snapshots exactly the state its forward pass wrote: what
// backward reads (input caches, masks, argmaxes, batch statistics) plus any
// persistent mutation (BatchNorm running stats). Capture happens once on the
// clean baseline's entry batch; restore happens per trial, making a skipped
// prefix forward bitwise-indistinguishable from having run it.

bool Conv2D::prefix_safe(bool) const { return true; }

void Conv2D::capture_forward_state(PrefixState& out) const {
  out.put_tensor(x_cache_);
}

void Conv2D::restore_forward_state(PrefixStateReader& in) {
  in.take_tensor(x_cache_);
}

bool Dense::prefix_safe(bool) const { return true; }

void Dense::capture_forward_state(PrefixState& out) const {
  out.put_tensor(x_cache_);
}

void Dense::restore_forward_state(PrefixStateReader& in) {
  in.take_tensor(x_cache_);
}

bool ReLU::prefix_safe(bool) const { return true; }

void ReLU::capture_forward_state(PrefixState& out) const {
  out.put_mask(mask_);
}

void ReLU::restore_forward_state(PrefixStateReader& in) {
  in.take_mask(mask_);
}

bool MaxPool2D::prefix_safe(bool) const { return true; }

void MaxPool2D::capture_forward_state(PrefixState& out) const {
  out.put_shape(x_shape_);
  out.put_indices(argmax_);
}

void MaxPool2D::restore_forward_state(PrefixStateReader& in) {
  in.take_shape(x_shape_);
  in.take_indices(argmax_);
}

bool GlobalAvgPool::prefix_safe(bool) const { return true; }

void GlobalAvgPool::capture_forward_state(PrefixState& out) const {
  out.put_shape(x_shape_);
}

void GlobalAvgPool::restore_forward_state(PrefixStateReader& in) {
  in.take_shape(x_shape_);
}

bool Flatten::prefix_safe(bool) const { return true; }

void Flatten::capture_forward_state(PrefixState& out) const {
  out.put_shape(x_shape_);
}

void Flatten::restore_forward_state(PrefixStateReader& in) {
  in.take_shape(x_shape_);
}

bool BatchNorm2D::prefix_safe(bool) const { return true; }

void BatchNorm2D::capture_forward_state(PrefixState& out) const {
  // Post-forward running stats: the training forward's EMA update is the
  // prefix hazard named in the contract — restoring it here is what lets a
  // skipped BatchNorm forward stay bitwise-equivalent to having run.
  out.put_tensor(running_mean_);
  out.put_tensor(running_var_);
  out.put_tensor(x_hat_);
  out.put_scalars(batch_mean_);
  out.put_scalars(batch_inv_std_);
  out.put_shape(x_shape_);
}

void BatchNorm2D::restore_forward_state(PrefixStateReader& in) {
  in.take_tensor(running_mean_);
  in.take_tensor(running_var_);
  in.take_tensor(x_hat_);
  in.take_scalars(batch_mean_);
  in.take_scalars(batch_inv_std_);
  in.take_shape(x_shape_);
}

}  // namespace ckptfi::nn
