// Basic layers: Dense, ReLU, Tanh, Flatten, Dropout.
#pragma once

#include <cstdint>

#include "ml/layer.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {

/// Fully connected layer: y = x W^T + b, x [N, in], W [out, in], b [out].
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string name() const override { return "dense"; }

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  /// The one Dense forward kernel: y [n, out] = x [n, in] W^T + b, then
  /// max(0, .) when `relu`, into the caller's y. forward() and the
  /// compiled plan's dense step both run it.
  void forward_into(const float* x, std::size_t n, float* y, bool relu) const;

 private:
  std::size_t in_features_, out_features_;
  Param w_, b_;
  Tensor last_input_;
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "relu"; }

 private:
  // Backward only needs the sign of each input, so forward records a byte
  // mask instead of copying the whole activation tensor.
  std::vector<std::uint8_t> mask_;
  std::size_t mask_size_ = 0;
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "tanh"; }

 private:
  Tensor last_output_;
};

/// Flattens all but the batch dimension.
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<std::size_t> last_shape_;
};

/// Inverted dropout: scales surviving activations by 1/(1-p) at train time,
/// identity at inference.
class Dropout : public Layer {
 public:
  Dropout(double p, util::Rng rng);
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "dropout"; }
  /// The mask RNG is training state: a checkpoint must resume the stream
  /// exactly or a restored fit would draw different masks.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  double p_;
  util::Rng rng_;
  Tensor mask_;
  bool mask_valid_ = false;
};

}  // namespace autolearn::ml
