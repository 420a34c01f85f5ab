// Single-layer LSTM returning the final hidden state.
//
// Used by the RNN driving model: a shared conv encoder produces a feature
// vector per frame, the LSTM consumes the short sequence (default 3
// frames) and its final hidden state feeds the output head. Input shape
// [N, T, D]; output [N, H]. Backward performs truncated BPTT over the
// full (short) sequence. One time step is one kernel, step_into, which
// forward runs once per step and the compiled plan's LSTM step runs too.
#pragma once

#include <vector>

#include "ml/layer.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {

class LSTM : public Layer {
 public:
  LSTM(std::size_t input_size, std::size_t hidden_size, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  /// Throws std::logic_error when no forward ran before it.
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&wx_, &wh_, &b_}; }
  std::string name() const override { return "lstm"; }

  std::size_t hidden_size() const { return h_; }
  std::size_t input_size() const { return d_; }

  /// The one LSTM time step, for n rows: gates [n, 4H] = b + x_t Wx^T +
  /// h_prev Wh^T, stored back post-activation (i, f, g, o); then
  /// c = f * c_prev + i * g and h = o * tanh(c), each [n, H]. Row i of x_t
  /// starts at x_t + i * ldx, so one step of an [N, T, D] input is read in
  /// place with ldx = T * D. h may alias h_prev and c may alias c_prev:
  /// the second gate GEMM reads all of h_prev before the elementwise loop
  /// writes h, and that loop reads each c_prev element before it writes
  /// the same element of c. forward() and the compiled plan's LSTM step
  /// both run it.
  void step_into(const float* x_t, std::size_t ldx, std::size_t n,
                 const float* h_prev, const float* c_prev, float* gates,
                 float* c, float* h) const;

 private:
  std::size_t d_, h_;
  // Gate order within the 4H rows: input, forget, cell(g), output.
  Param wx_;  // [4H, D]
  Param wh_;  // [4H, H]
  Param b_;   // [4H]

  // The last forward, which backward reads: its input [N, T, D], the
  // post-activation gates of every step [T][N, 4H], and the cell and
  // hidden states [T + 1][N, H], whose slot 0 is the zero initial state.
  // The buffers only grow, so steady-state batches reuse them.
  Tensor last_input_;
  std::vector<float> gates_, cell_, hidden_;
};

}  // namespace autolearn::ml
