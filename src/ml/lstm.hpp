// Single-layer LSTM returning the final hidden state.
//
// Used by the RNN driving model: a shared conv encoder produces a feature
// vector per frame, the LSTM consumes the short sequence (default 3
// frames) and its final hidden state feeds the output head. Input shape
// [N, T, D]; output [N, H]. Backward performs truncated BPTT over the
// full (short) sequence.
#pragma once

#include "ml/layer.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {

class LSTM : public Layer {
 public:
  LSTM(std::size_t input_size, std::size_t hidden_size, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&wx_, &wh_, &b_}; }
  std::string name() const override { return "lstm"; }
  std::uint64_t flops_per_sample() const override { return flops_; }

  std::size_t hidden_size() const { return h_; }
  std::size_t input_size() const { return d_; }

  /// Plan-compile hook; see Conv::prime_flops.
  void prime_flops(std::size_t t_len) const {
    flops_ = 2ull * t_len * 4 * h_ * (d_ + h_);
  }

 private:
  std::size_t d_, h_;
  // Gate order within the 4H rows: input, forget, cell(g), output.
  Param wx_;  // [4H, D]
  Param wh_;  // [4H, H]
  Param b_;   // [4H]

  // Per-step caches from the last forward (batch-major, step-indexed).
  struct StepCache {
    Tensor x;      // [N, D]
    Tensor h_prev; // [N, H]
    Tensor c_prev; // [N, H]
    Tensor gates;  // [N, 4H] post-activation (i, f, g, o)
    Tensor c;      // [N, H]
    Tensor tanh_c; // [N, H]
  };
  std::vector<StepCache> cache_;
  std::size_t last_n_ = 0, last_t_ = 0;
  mutable std::uint64_t flops_ = 0;
};

}  // namespace autolearn::ml
