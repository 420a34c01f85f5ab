// Test-side FLOP count of a net, apart from the plan compiler's shape
// walk: a one-row forward through each layer in turn gives the shape the
// layer sees and makes, and the layer's weight shapes give its arithmetic.
// A conv costs 2 * OC * (C * KD * K * K) per output position, a dense layer
// 2 * in * out, an LSTM 2 * (4H * D + 4H * H) per time step, fp32 and int8
// alike; ReLU, Tanh, Flatten and Dropout cost nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ml/conv.hpp"
#include "ml/lstm.hpp"
#include "ml/quant_layers.hpp"
#include "ml/sequential.hpp"

namespace autolearn::reference {

/// Forward FLOPs of one row of shape `row_shape` through `net`. Runs each
/// layer's inference forward on a zero row, so read a model's own count
/// before calling it when the count must predate any forward.
inline std::uint64_t net_flops(ml::Sequential& net,
                               std::vector<std::size_t> row_shape) {
  row_shape.insert(row_shape.begin(), 1);
  ml::Tensor x(row_shape);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    ml::Layer& layer = net.layer(i);
    ml::Tensor y = layer.forward(x, /*train=*/false);
    const std::vector<ml::Param*> params = layer.params();
    if (dynamic_cast<ml::LSTM*>(&layer) != nullptr) {
      // wx [4H, D] and wh [4H, H], once per time step of x [1, T, D].
      total += 2ull * x.dim(1) *
               (params[0]->value.size() + params[1]->value.size());
    } else if (dynamic_cast<ml::Conv*>(&layer) != nullptr ||
               dynamic_cast<ml::QuantConv*>(&layer) != nullptr) {
      // w [OC, C, (KD,) K, K] at each output position of y [1, OC, ...].
      total += 2ull * params[0]->value.size() * (y.size() / y.dim(1));
    } else if (!params.empty()) {
      total += 2ull * params[0]->value.size();  // dense: w [out, in]
    }
    x = std::move(y);
  }
  return total;
}

}  // namespace autolearn::reference
