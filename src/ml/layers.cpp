#include "ml/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "ml/sequential.hpp"
#include "util/binio.hpp"

namespace autolearn::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      // He initialization: good default for the ReLU stacks used here.
      w_(Tensor::randn({out_features, in_features}, rng,
                       std::sqrt(2.0 / static_cast<double>(in_features)))),
      b_(Tensor({out_features}, 0.0f)) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Dense: zero features");
  }
}

Tensor Dense::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Dense: bad input shape " + x.shape_str());
  }
  last_input_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_features_});
  forward_into(x.data(), n, y.data(), /*relu=*/false);
  return y;
}

void Dense::forward_into(const float* x, std::size_t n, float* y,
                         bool relu) const {
  const float* b = b_.value.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* yi = y + i * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) yi[o] = b[o];
  }
  // y += x @ W^T on top of the broadcast bias.
  sgemm(false, true, n, out_features_, in_features_, 1.0f, x, in_features_,
        w_.value.data(), in_features_, 1.0f, y, out_features_);
  if (relu) {
    const std::size_t total = n * out_features_;
    for (std::size_t i = 0; i < total; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
  }
}

Tensor Dense::backward(const Tensor& grad_out) {
  const std::size_t n = last_input_.dim(0);
  if (grad_out.rank() != 2 || grad_out.dim(0) != n ||
      grad_out.dim(1) != out_features_) {
    throw std::invalid_argument("Dense: bad grad shape");
  }
  // dW = g^T @ x, db[o] = sum_i g[i,o], dx = g @ W — the batch reduction
  // for dW runs inside the GEMM k-loop, so the parallel backward is
  // deterministic for any worker count.
  Tensor grad_in({n, in_features_});
  sgemm(false, false, n, in_features_, out_features_, 1.0f, grad_out.data(),
        out_features_, w_.value.data(), in_features_, 0.0f, grad_in.data(),
        in_features_);
  sgemm(true, false, out_features_, in_features_, n, 1.0f, grad_out.data(),
        out_features_, last_input_.data(), in_features_, 1.0f,
        w_.grad.data(), in_features_);
  Tensor& db = b_.grad;
  for (std::size_t o = 0; o < out_features_; ++o) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      acc += grad_out.data()[i * out_features_ + o];
    }
    db[o] += acc;
  }
  return grad_in;
}

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  float* yd = y.data();
  const std::size_t n = y.size();
  mask_.resize(n);
  mask_size_ = n;
  // Branchless select: activation signs are data-dependent, so an `if`
  // here mispredicts about half the time and costs ~10x the arithmetic.
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = yd[i] > 0.0f;
    mask_[i] = static_cast<std::uint8_t>(on);
    yd[i] = on ? yd[i] : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (grad_out.size() != mask_size_) {
    throw std::invalid_argument("relu backward: grad size mismatch");
  }
  Tensor g = grad_out;
  float* gd = g.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    gd[i] = mask_[i] ? gd[i] : 0.0f;
  }
  return g;
}

Tensor Tanh::forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::tanh(y[i]);
  last_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  grad_out.check_same_shape(last_output_, "tanh backward");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= 1.0f - last_output_[i] * last_output_[i];
  }
  return g;
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  last_shape_ = x.shape();
  std::size_t rest = 1;
  for (std::size_t i = 1; i < x.rank(); ++i) rest *= x.dim(i);
  return x.reshaped({x.dim(0), rest});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(last_shape_);
}

Dropout::Dropout(double p, util::Rng rng) : p_(p), rng_(rng) {
  if (!(p >= 0 && p < 1)) throw std::invalid_argument("Dropout: p in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || p_ == 0) {
    mask_valid_ = false;
    return x;
  }
  mask_ = Tensor(x.shape());
  const float keep = static_cast<float>(1.0 - p_);
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const bool on = !rng_.chance(p_);
    mask_[i] = on ? 1.0f / keep : 0.0f;
    y[i] *= mask_[i];
  }
  mask_valid_ = true;
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!mask_valid_) return grad_out;
  grad_out.check_same_shape(mask_, "dropout backward");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= mask_[i];
  return g;
}

void Dropout::save_state(std::ostream& os) const {
  util::write_rng_state(os, rng_.state());
}

void Dropout::load_state(std::istream& is) {
  util::BinReader<ModelLoadError> r(is, "Dropout");
  rng_.set_state(r.rng_state("RNG state"));
}

}  // namespace autolearn::ml
