// Optimizers over a flat parameter list.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "ml/layer.hpp"

namespace autolearn::ml {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update using the accumulated gradients, then zeroes them.
  virtual void step(const std::vector<Param*>& params) = 0;
  virtual std::string name() const = 0;

  /// Checkpoint hooks: slot tensors (momentum / Adam moments) and step
  /// counters are training state — without them a restored fit diverges
  /// from the uninterrupted run on the first update. load_state throws
  /// ModelLoadError (ShapeMismatch when the slots do not fit `params`).
  virtual void save_state(std::ostream& os) const = 0;
  virtual void load_state(std::istream& is,
                          const std::vector<Param*>& params) = 0;
};

/// SGD with classical momentum.
class SGD : public Optimizer {
 public:
  explicit SGD(double lr, double momentum = 0.9);
  void step(const std::vector<Param*>& params) override;
  std::string name() const override { return "sgd"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is,
                  const std::vector<Param*>& params) override;

 private:
  double lr_, momentum_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction — the DonkeyCar default.
class Adam : public Optimizer {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(const std::vector<Param*>& params) override;
  std::string name() const override { return "adam"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is,
                  const std::vector<Param*>& params) override;

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace autolearn::ml
