// Loss functions. Each returns the mean loss over the batch and writes the
// gradient w.r.t. the predictions (already divided by batch size, so the
// optimizer sees per-sample-mean gradients).
#pragma once

#include <cstddef>
#include <utility>

#include "ml/tensor.hpp"

namespace autolearn::ml {

/// Mean squared error over all elements: L = mean((pred - target)^2).
/// Returns {loss, grad} with grad shaped like pred.
std::pair<double, Tensor> mse_loss(const Tensor& pred, const Tensor& target);

/// Softmax cross-entropy over a slice of columns [begin, end) of `logits`,
/// with integer class targets. Used twice by the categorical model (one
/// softmax per head sharing a single logits tensor). Adds its gradient into
/// `grad_accum` (same shape as logits) and returns the mean loss.
double softmax_xent_slice(const Tensor& logits, std::size_t begin,
                          std::size_t end,
                          const std::vector<std::size_t>& targets,
                          Tensor& grad_accum);

/// Softmax probabilities of `classes` logits into out[0..classes)
/// (inference helper; writes no heap memory, so the compiled predict path
/// can decode with it).
void softmax_row(const float* logits, std::size_t classes, float* out);

}  // namespace autolearn::ml
