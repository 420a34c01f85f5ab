// Layer abstraction: forward caches whatever backward needs; backward
// accumulates parameter gradients and returns the gradient w.r.t. the
// layer input. Layers are single-owner objects composed by Sequential or
// by the model classes directly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"

namespace autolearn::ml {

/// A trainable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(Tensor::zeros_like(value)) {}
  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes outputs for a batch; train enables dropout noise etc.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backpropagates: takes dLoss/dOutput, accumulates parameter grads,
  /// returns dLoss/dInput. Must be called after forward on the same batch.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Checkpoint hooks for non-parameter state that affects training
  /// (Dropout's RNG stream). Parameters travel separately through
  /// Sequential::save_params; layers without such state keep the no-op.
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void load_state(std::istream& is) { (void)is; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace autolearn::ml
