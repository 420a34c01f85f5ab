// Inference-only int8 twins of Dense and Conv. quantize_model()
// builds them from a calibrated fp32 model and swaps them into the same
// Sequential slots, so predict/predict_batch run unchanged while every
// GEMM goes through the packed int8 kernels (quant.hpp).
//
// Each layer keeps the original fp32 parameters as its Param set: the
// tensor count and shapes seen by Sequential::save_params are identical
// to the fp32 layer it replaced, so a quantized model serializes like its
// source. backward() throws — quantized models are frozen artifacts.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/conv.hpp"
#include "ml/gemm.hpp"
#include "ml/layer.hpp"
#include "ml/quant.hpp"

namespace autolearn::ml {

/// y = x W^T + b with W per-channel int8 and x quantized by the
/// calibrated `xq`. w is the trained fp32 weight [out, in], b [out].
class QuantDense : public Layer {
 public:
  QuantDense(const Tensor& w, const Tensor& b, ActQuant xq);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string name() const override { return "qdense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  /// The one QuantDense forward kernel, into the caller's buffers: x
  /// [n, in] is quantized and transposed into qx [in, n] bytes, qgemm
  /// writes yt [out, n], and y [n, out] = yt^T + b, then max(0, .) when
  /// `relu`. forward() and the compiled plan's int8 dense step both run it.
  void forward_into(const float* x, std::size_t n, std::uint8_t* qx,
                    float* yt, float* y, bool relu) const;

 private:
  std::size_t in_, out_;
  Param w_, b_;
  QuantizedWeights qw_;
  ActQuant xq_;
  // Grow-only forward scratch: transposed quantized input [in, N] and
  // transposed GEMM output [out, N].
  std::vector<std::uint8_t> qx_;
  std::vector<float> yt_;
};

/// Int8 twin of a Conv (Conv2D or Conv3D): the same vol2col lowering,
/// with the patch matrix quantized and multiplied by packed int8 weights.
class QuantConv : public Layer {
 public:
  /// Takes the geometry and trained parameters of `conv`.
  QuantConv(const Conv& conv, ActQuant xq);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string name() const override {
    return g_.depth_axis ? "qconv3d" : "qconv2d";
  }

  const ConvGeometry& geometry() const { return g_; }

  /// The one QuantConv forward kernel, into the caller's buffers, for n
  /// samples of volume `v`: gather x into the patch matrix col [CKK, N*P],
  /// quantize it into qcol (CKK*N*P bytes), qgemm into yall [OC, N*P], and
  /// scatter with the bias (and max(0, .) when `relu`) into y [N, OC, P].
  /// forward() and the compiled plan's int8 conv step both run it.
  void forward_into(const float* x, std::size_t n,
                    const ConvGeometry::Volumes& v, float* col,
                    std::uint8_t* qcol, float* yall, float* y,
                    bool relu) const;

 private:
  ConvGeometry g_;
  Param w_, b_;
  QuantizedWeights qw_;
  ActQuant xq_;
  ScratchArena scratch_;            // float col + batched output
  std::vector<std::uint8_t> qcol_;  // quantized patch matrix
};

}  // namespace autolearn::ml
