// Ordered layer container with serialization.
#pragma once

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ml/layer.hpp"

namespace autolearn::ml {

/// Typed load failure: the stream did not match the receiving model.
/// load_params is transactional — on throw, the model is untouched (no
/// silent partial misload).
class ModelLoadError : public std::runtime_error {
 public:
  enum class Code {
    BadHeader,           // missing/unknown magic
    Truncated,           // stream ended mid-checkpoint
    LayerCountMismatch,  // parameter-tensor count differs
    ShapeMismatch,       // a tensor's shape differs from the receiver's
  };

  ModelLoadError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  Code code() const { return code_; }

 private:
  Code code_;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& x, bool train);
  /// Full backward chain; returns grad w.r.t. the network input.
  Tensor backward(const Tensor& grad_out);

  std::vector<Param*> params();
  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  /// False while slot i transiently holds null mid-swap (see swap_layer).
  /// Plan compilation (ml/plan.hpp) checks this instead of crashing on a
  /// null dereference in layer().
  bool has_layer(std::size_t i) const { return layers_.at(i) != nullptr; }

  /// Replaces layer i and returns the previous layer — the hook
  /// post-training transforms (ml::quantize_model) use to swap trained
  /// layers for inference twins in place. The slot may hold null
  /// transiently between paired swap calls while a replacement is being
  /// built from the old layer, but the Sequential must not run until a
  /// real layer is back.
  LayerPtr swap_layer(std::size_t i, LayerPtr layer) {
    std::swap(layers_.at(i), layer);
    return layer;
  }

  /// Total trainable scalar count.
  std::size_t num_parameters();

  /// Writes / reads all parameter tensors in order (binary). The format is
  /// self-describing (magic + per-tensor shapes); load_params validates
  /// tensor count and every shape against this model and throws
  /// ModelLoadError — after staging the whole stream, so a failed load
  /// never leaves the model half-overwritten.
  void save_params(std::ostream& os);
  void load_params(std::istream& is);

  /// Non-parameter training state (layer RNG streams): see Layer::
  /// save_state. Paired with save_params by DrivingModel::save_full.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace autolearn::ml
