// Convolution and pooling layers (valid padding, square spatial kernels).
//
// These mirror the DonkeyCar Keras models' conv stacks at reduced
// resolution. Layout is channels-first. One Conv layer convolves each
// sample's [C, D, H, W] volume, where D is the frame (time) axis of the
// "3D" model: Conv3D takes [N, C, D, H, W]. A 2-D conv is the depth-1 case:
// Conv2D takes [N, C, H, W] and runs the same code with D = kernel_d =
// stride_d = 1, so there is one forward kernel and one backward.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/gemm.hpp"
#include "ml/layer.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {

/// Everything about a convolution but its weights. A Conv owns one; its
/// int8 twin (QuantConv) copies it.
struct ConvGeometry {
  std::size_t in_channels = 0, out_channels = 0;
  std::size_t kernel_d = 1, kernel = 0;  // depth extent, square spatial side
  std::size_t stride_d = 1, stride = 0;
  bool depth_axis = false;  // tensors carry D (Conv3D); else D == 1 (Conv2D)

  /// One sample's input volume {d, h, w} and output volume {od, oh, ow}.
  struct Volumes {
    std::size_t d, h, w, od, oh, ow;
    std::size_t positions() const { return od * oh * ow; }
  };

  /// Volumes of a batch shaped [N, C, (D,) H, W]. Throws
  /// std::invalid_argument on a rank or channel mismatch or an input
  /// smaller than the kernel.
  Volumes volumes(const std::vector<std::size_t>& shape) const;
  /// Output shape [N, OC, (OD,) OH, OW] of an n-sample batch.
  std::vector<std::size_t> out_shape(std::size_t n, const Volumes& v) const;
  /// Rows of the patch matrix: C * KD * K * K.
  std::size_t patch_rows() const {
    return in_channels * kernel_d * kernel * kernel;
  }
  /// Forward FLOPs of one sample of volume v: 2 * OC * P * CKK.
  std::uint64_t flops(const Volumes& v) const {
    return 2ull * out_channels * v.positions() * patch_rows();
  }

  /// Batched vol2col of x [N, C, (D,) H, W] into col [CKK, N*P]: sample i
  /// owns columns [i*P, (i+1)*P), so one GEMM covers the whole batch.
  void gather(const float* x, std::size_t n, const Volumes& v,
              float* col) const;
  /// y [N, OC, P] = the GEMM output yall [OC, N*P] regrouped per sample,
  /// plus the bias, then max(0, .) when `relu` (t = yall + b; t > 0 ? t : 0,
  /// the arithmetic of a separate ReLU layer).
  void scatter(const float* yall, const float* bias, std::size_t n,
               const Volumes& v, float* y, bool relu) const;
};

/// Valid convolution with an [OC, C, (KD,) K, K] kernel. The forward is
/// one implicit GEMM (conv_implicit_gemm), which writes no patch matrix;
/// backward gathers the patch matrix from the kept input and runs the two
/// adjoint GEMMs. Conv2D and Conv3D only construct it.
class Conv : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  /// Throws std::logic_error when no forward ran before it.
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string name() const override;

  static std::size_t out_dim(std::size_t in, std::size_t kernel,
                             std::size_t stride) {
    if (in < kernel) {
      throw std::invalid_argument("conv: input smaller than kernel");
    }
    return (in - kernel) / stride + 1;
  }

  const ConvGeometry& geometry() const { return g_; }
  const Tensor& weights() const { return w_.value; }
  const Tensor& bias() const { return b_.value; }

  /// The one Conv forward kernel: y [n, OC, P] = W @ patches(x) + b, then
  /// max(0, .) when `relu`, for n samples x [n, C, (D,) H, W] of volume
  /// `v`, into the caller's y. One conv_implicit_gemm call, so no patch
  /// matrix is written. forward() and the compiled plan's fp32 conv step
  /// both run it.
  void forward_into(const float* x, std::size_t n,
                    const ConvGeometry::Volumes& v, float* y,
                    bool relu) const;

 protected:
  /// He-initialised weights; throws std::invalid_argument when any size
  /// or stride of `g` is zero.
  Conv(const ConvGeometry& g, util::Rng& rng);

 private:
  ConvGeometry g_;
  Param w_, b_;
  // The last forward's input: backward gathers its patch matrix from it.
  Tensor last_input_;
  // Patch matrix, gathered gradient and gradient patch matrix — reused
  // across batches so backward's scratch never reallocates.
  ScratchArena scratch_;
};

/// 2-D convolution of [N, C, H, W]: weights [OC, C, K, K].
class Conv2D : public Conv {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, util::Rng& rng)
      : Conv({in_channels, out_channels, 1, kernel, 1, stride, false}, rng) {}
};

/// 3-D convolution of [N, C, D, H, W]: weights [OC, C, KD, K, K].
class Conv3D : public Conv {
 public:
  /// kernel_d along the frame axis; spatial kernel is square.
  Conv3D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_d, std::size_t kernel, std::size_t stride_d,
         std::size_t stride, util::Rng& rng)
      : Conv({in_channels, out_channels, kernel_d, kernel, stride_d, stride,
              true},
             rng) {}
};

/// 2x2 max pooling with stride 2.
class MaxPool2D : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "maxpool2d"; }

 private:
  std::vector<std::size_t> in_shape_;  // backward only needs the shape
  std::vector<std::size_t> argmax_;
};

}  // namespace autolearn::ml
