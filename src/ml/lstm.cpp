#include "ml/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/gemm.hpp"

namespace autolearn::ml {
namespace {

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

LSTM::LSTM(std::size_t input_size, std::size_t hidden_size, util::Rng& rng)
    : d_(input_size),
      h_(hidden_size),
      wx_(Tensor::randn({4 * hidden_size, input_size}, rng,
                        std::sqrt(1.0 / static_cast<double>(input_size)))),
      wh_(Tensor::randn({4 * hidden_size, hidden_size}, rng,
                        std::sqrt(1.0 / static_cast<double>(hidden_size)))),
      b_(Tensor({4 * hidden_size}, 0.0f)) {
  if (input_size == 0 || hidden_size == 0) {
    throw std::invalid_argument("LSTM: zero size");
  }
  // Forget-gate bias starts at 1 so early training does not erase memory.
  for (std::size_t j = 0; j < h_; ++j) b_.value[h_ + j] = 1.0f;
}

Tensor LSTM::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() != 3 || x.dim(2) != d_) {
    throw std::invalid_argument("LSTM: bad input shape " + x.shape_str());
  }
  const std::size_t n = x.dim(0), t_len = x.dim(1), nh = n * h_;
  last_input_ = x;
  gates_.resize(t_len * n * 4 * h_);
  cell_.resize((t_len + 1) * nh);
  hidden_.resize((t_len + 1) * nh);
  std::fill_n(cell_.begin(), nh, 0.0f);
  std::fill_n(hidden_.begin(), nh, 0.0f);
  for (std::size_t t = 0; t < t_len; ++t) {
    step_into(x.data() + t * d_, t_len * d_, n, hidden_.data() + t * nh,
              cell_.data() + t * nh, gates_.data() + t * n * 4 * h_,
              cell_.data() + (t + 1) * nh, hidden_.data() + (t + 1) * nh);
  }
  Tensor h({n, h_});
  std::copy_n(hidden_.data() + t_len * nh, nh, h.data());
  return h;
}

void LSTM::step_into(const float* x_t, std::size_t ldx, std::size_t n,
                     const float* h_prev, const float* c_prev, float* gates,
                     float* c, float* h) const {
  const std::size_t g4 = 4 * h_;
  // Pre-activation gates = b + x_t @ Wx^T + h_prev @ Wh^T.
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(b_.value.data(), g4, gates + i * g4);
  }
  sgemm(false, true, n, g4, d_, 1.0f, x_t, ldx, wx_.value.data(), d_, 1.0f,
        gates, g4);
  sgemm(false, true, n, g4, h_, 1.0f, h_prev, h_, wh_.value.data(), h_, 1.0f,
        gates, g4);
  for (std::size_t i = 0; i < n; ++i) {
    float* g = gates + i * g4;
    for (std::size_t j = 0; j < h_; ++j) {
      const float gi = sigmoid(g[j]);
      const float gf = sigmoid(g[h_ + j]);
      const float gg = std::tanh(g[2 * h_ + j]);
      const float go = sigmoid(g[3 * h_ + j]);
      g[j] = gi;
      g[h_ + j] = gf;
      g[2 * h_ + j] = gg;
      g[3 * h_ + j] = go;
      const float cv = gf * c_prev[i * h_ + j] + gi * gg;
      c[i * h_ + j] = cv;
      h[i * h_ + j] = go * std::tanh(cv);
    }
  }
}

Tensor LSTM::backward(const Tensor& grad_out) {
  if (last_input_.rank() == 0) {
    throw std::logic_error("LSTM: backward before forward");
  }
  const std::size_t n = last_input_.dim(0), t_len = last_input_.dim(1);
  const std::size_t nh = n * h_;
  if (grad_out.rank() != 2 || grad_out.dim(0) != n || grad_out.dim(1) != h_) {
    throw std::invalid_argument("LSTM: bad grad shape");
  }
  Tensor grad_x({n, t_len, d_});
  Tensor dh = grad_out;   // dLoss/dh_t
  Tensor dc({n, h_});     // dLoss/dc_t (from future steps)

  for (std::size_t t = t_len; t-- > 0;) {
    const float* gates = gates_.data() + t * n * 4 * h_;
    const float* c_prev = cell_.data() + t * nh;
    const float* c = c_prev + nh;
    const float* h_prev = hidden_.data() + t * nh;
    Tensor dgates({n, 4 * h_});  // pre-activation gradients
    Tensor dh_prev({n, h_});
    Tensor dc_prev({n, h_});
    for (std::size_t i = 0; i < n; ++i) {
      const float* g = gates + i * 4 * h_;
      for (std::size_t j = 0; j < h_; ++j) {
        const float gi = g[j];
        const float gf = g[h_ + j];
        const float gg = g[2 * h_ + j];
        const float go = g[3 * h_ + j];
        // The same float step_into multiplied into h.
        const float tc = std::tanh(c[i * h_ + j]);
        const float dht = dh.at(i, j);
        float dct = dc.at(i, j) + dht * go * (1 - tc * tc);
        const float dgo = dht * tc;
        const float dgi = dct * gg;
        const float dgg = dct * gi;
        const float dgf = dct * c_prev[i * h_ + j];
        dc_prev.at(i, j) = dct * gf;
        // Back through the activations (sigmoid / tanh).
        dgates.at(i, j) = dgi * gi * (1 - gi);
        dgates.at(i, h_ + j) = dgf * gf * (1 - gf);
        dgates.at(i, 2 * h_ + j) = dgg * (1 - gg * gg);
        dgates.at(i, 3 * h_ + j) = dgo * go * (1 - go);
      }
    }
    // Parameter and input/hidden grads as GEMMs; the batch reduction for
    // dWx/dWh runs inside the GEMM k-loop (deterministic in parallel).
    for (std::size_t r = 0; r < 4 * h_; ++r) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += dgates.at(i, r);
      b_.grad[r] += acc;
    }
    // x_t and the grad_x time-step slice are strided [N, D] views of
    // [N, T, D].
    sgemm(true, false, 4 * h_, d_, n, 1.0f, dgates.data(), 4 * h_,
          last_input_.data() + t * d_, t_len * d_, 1.0f, wx_.grad.data(), d_);
    sgemm(true, false, 4 * h_, h_, n, 1.0f, dgates.data(), 4 * h_, h_prev, h_,
          1.0f, wh_.grad.data(), h_);
    sgemm(false, false, n, d_, 4 * h_, 1.0f, dgates.data(), 4 * h_,
          wx_.value.data(), d_, 0.0f, grad_x.data() + t * d_, t_len * d_);
    sgemm(false, false, n, h_, 4 * h_, 1.0f, dgates.data(), 4 * h_,
          wh_.value.data(), h_, 0.0f, dh_prev.data(), h_);
    dh = dh_prev;
    dc = dc_prev;
  }
  return grad_x;
}

}  // namespace autolearn::ml
