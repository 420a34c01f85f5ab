#include "ml/quant_layers.hpp"

#include <stdexcept>

namespace autolearn::ml {
namespace {

// ScratchArena slots of QuantConv::forward.
constexpr std::size_t kSlotCol = 0;  // float patch matrix  [CKK, N*P]
constexpr std::size_t kSlotOut = 1;  // batched GEMM output [OC, N*P]

[[noreturn]] void frozen(const char* layer) {
  throw std::logic_error(std::string(layer) +
                         ": quantized layers are inference-only");
}

}  // namespace

QuantDense::QuantDense(const Tensor& w, const Tensor& b, ActQuant xq)
    : in_(w.dim(1)),
      out_(w.dim(0)),
      w_(w),
      b_(b),
      qw_(quantize_weights(w.data(), w.dim(0), w.dim(1))),
      xq_(xq) {
  if (w.rank() != 2 || b.rank() != 1 || b.dim(0) != out_) {
    throw std::invalid_argument("QuantDense: bad weight/bias shape");
  }
}

Tensor QuantDense::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("QuantDense: bad input shape " +
                                x.shape_str());
  }
  const std::size_t n = x.dim(0);
  if (qx_.size() < in_ * n) qx_.resize(in_ * n);
  if (yt_.size() < out_ * n) yt_.resize(out_ * n);
  Tensor y({n, out_});
  forward_into(x.data(), n, qx_.data(), yt_.data(), y.data(), /*relu=*/false);
  return y;
}

void QuantDense::forward_into(const float* x, std::size_t n, std::uint8_t* qx,
                              float* yt, float* y, bool relu) const {
  // qgemm wants activations as [k, n] columns: quantize and transpose in
  // one pass. Per-element math matches quantize_activations exactly.
  for (std::size_t i = 0; i < n; ++i) {
    const float* xr = x + i * in_;
    for (std::size_t p = 0; p < in_; ++p) {
      qx[p * n + i] = quantize_activation(xr[p], xq_);
    }
  }
  qgemm(qw_, qx, n, xq_, yt, n);
  const float* b = b_.value.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* yr = y + i * out_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float t = yt[o * n + i] + b[o];
      yr[o] = relu ? (t > 0.0f ? t : 0.0f) : t;
    }
  }
}

Tensor QuantDense::backward(const Tensor& /*grad_out*/) { frozen("QuantDense"); }

QuantConv::QuantConv(const Conv& conv, ActQuant xq)
    : g_(conv.geometry()),
      w_(conv.weights()),
      b_(conv.bias()),
      qw_(quantize_weights(conv.weights().data(), g_.out_channels,
                           g_.patch_rows())),
      xq_(xq) {}

Tensor QuantConv::forward(const Tensor& x, bool /*train*/) {
  const ConvGeometry::Volumes v = g_.volumes(x.shape());
  const std::size_t n = x.dim(0), ckk = g_.patch_rows();
  const std::size_t np = n * v.positions();
  float* col = scratch_.get(kSlotCol, ckk * np);
  if (qcol_.size() < ckk * np) qcol_.resize(ckk * np);
  float* yall = scratch_.get(kSlotOut, g_.out_channels * np);
  Tensor y(g_.out_shape(n, v));
  forward_into(x.data(), n, v, col, qcol_.data(), yall, y.data(),
               /*relu=*/false);
  return y;
}

void QuantConv::forward_into(const float* x, std::size_t n,
                             const ConvGeometry::Volumes& v, float* col,
                             std::uint8_t* qcol, float* yall, float* y,
                             bool relu) const {
  const std::size_t np = n * v.positions();
  g_.gather(x, n, v, col);
  quantize_activations(col, g_.patch_rows() * np, xq_, qcol);
  qgemm(qw_, qcol, np, xq_, yall, np);
  g_.scatter(yall, b_.value.data(), n, v, y, relu);
}

Tensor QuantConv::backward(const Tensor& /*grad_out*/) { frozen("QuantConv"); }

}  // namespace autolearn::ml
