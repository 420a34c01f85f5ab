#include "ml/conv.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

// ScratchArena slot ids of the backward pass. The whole batch shares one
// [CKK, N*P] patch matrix (sample i owns columns [i*P, (i+1)*P)), so the
// backward pass is the two adjoint GEMMs of the forward's W[oc, CKK] @ col
// — the batch reduction for dW happens inside the GEMM k-loop, which is
// what keeps it deterministic under parallelism.
constexpr std::size_t kSlotCol = 0;   // patch matrix          [CKK, N*P]
constexpr std::size_t kSlotGrad = 1;  // gathered grad_out     [OC, N*P]
constexpr std::size_t kSlotDcol = 2;  // grad patch matrix     [CKK, N*P]

const char* conv_name(const ConvGeometry& g) {
  return g.depth_axis ? "conv3d" : "conv2d";
}

const ConvGeometry& checked(const ConvGeometry& g) {
  if (g.in_channels == 0 || g.out_channels == 0 || g.kernel_d == 0 ||
      g.kernel == 0 || g.stride_d == 0 || g.stride == 0) {
    throw std::invalid_argument(std::string(conv_name(g)) +
                                ": zero parameter");
  }
  return g;
}

std::vector<std::size_t> weight_shape(const ConvGeometry& g) {
  if (g.depth_axis) {
    return {g.out_channels, g.in_channels, g.kernel_d, g.kernel, g.kernel};
  }
  return {g.out_channels, g.in_channels, g.kernel, g.kernel};
}

}  // namespace

ConvGeometry::Volumes ConvGeometry::volumes(
    const std::vector<std::size_t>& shape) const {
  const std::size_t rank = depth_axis ? 5 : 4;
  if (shape.size() != rank || shape[1] != in_channels) {
    throw std::invalid_argument(
        std::string(conv_name(*this)) + ": expected a rank-" +
        std::to_string(rank) + " input with " + std::to_string(in_channels) +
        " channels");
  }
  const std::size_t d = depth_axis ? shape[2] : 1;
  const std::size_t h = shape[rank - 2], w = shape[rank - 1];
  return {d,
          h,
          w,
          Conv::out_dim(d, kernel_d, stride_d),
          Conv::out_dim(h, kernel, stride),
          Conv::out_dim(w, kernel, stride)};
}

std::vector<std::size_t> ConvGeometry::out_shape(std::size_t n,
                                                 const Volumes& v) const {
  if (depth_axis) return {n, out_channels, v.od, v.oh, v.ow};
  return {n, out_channels, v.oh, v.ow};
}

void ConvGeometry::gather(const float* x, std::size_t n, const Volumes& v,
                          float* col) const {
  const std::size_t sample = in_channels * v.d * v.h * v.w;
  const std::size_t p = v.positions(), np = n * p;
  util::ThreadPool::shared().parallel_for_chunks(
      0, n, [&](std::size_t n0, std::size_t n1) {
        for (std::size_t i = n0; i < n1; ++i) {
          vol2col(x + i * sample, in_channels, v.d, v.h, v.w, kernel_d,
                  kernel, kernel, stride_d, stride, stride, col + i * p, np);
        }
      });
}

void ConvGeometry::scatter(const float* yall, const float* bias,
                           std::size_t n, const Volumes& v, float* y,
                           bool relu) const {
  const std::size_t p = v.positions(), np = n * p;
  util::ThreadPool::shared().parallel_for_chunks(
      0, n, [&](std::size_t n0, std::size_t n1) {
        for (std::size_t i = n0; i < n1; ++i) {
          for (std::size_t oc = 0; oc < out_channels; ++oc) {
            const float* src = yall + oc * np + i * p;
            float* dst = y + (i * out_channels + oc) * p;
            const float b = bias[oc];
            if (relu) {
              for (std::size_t q = 0; q < p; ++q) {
                const float t = src[q] + b;
                dst[q] = t > 0.0f ? t : 0.0f;
              }
            } else {
              for (std::size_t q = 0; q < p; ++q) dst[q] = src[q] + b;
            }
          }
        }
      });
}

Conv::Conv(const ConvGeometry& g, util::Rng& rng)
    : g_(checked(g)),
      w_(Tensor::randn(weight_shape(g), rng,
                       std::sqrt(2.0 /
                                 static_cast<double>(g.patch_rows())))),
      b_(Tensor({g.out_channels}, 0.0f)) {}

std::string Conv::name() const { return conv_name(g_); }

Tensor Conv::forward(const Tensor& x, bool /*train*/) {
  const ConvGeometry::Volumes v = g_.volumes(x.shape());
  last_input_ = x;
  const std::size_t n = x.dim(0);
  Tensor y(g_.out_shape(n, v));
  forward_into(x.data(), n, v, y.data(), /*relu=*/false);
  return y;
}

void Conv::forward_into(const float* x, std::size_t n,
                        const ConvGeometry::Volumes& v, float* y,
                        bool relu) const {
  conv_implicit_gemm(x, n, g_.in_channels, v.d, v.h, v.w, g_.kernel_d,
                     g_.kernel, g_.kernel, g_.stride_d, g_.stride, g_.stride,
                     w_.value.data(), g_.out_channels, b_.value.data(), relu,
                     y);
}

Tensor Conv::backward(const Tensor& grad_out) {
  if (last_input_.rank() == 0) {
    throw std::logic_error(name() + ": backward before forward");
  }
  const ConvGeometry::Volumes v = g_.volumes(last_input_.shape());
  const std::size_t n = last_input_.dim(0), oc = g_.out_channels;
  if (grad_out.shape() != g_.out_shape(n, v)) {
    throw std::invalid_argument(name() + ": bad grad shape " +
                                grad_out.shape_str());
  }
  const std::size_t p = v.positions(), ckk = g_.patch_rows(), np = n * p;
  auto& pool = util::ThreadPool::shared();
  // Gather grad_out into the batched [OC, N*P] layout matching col.
  float* gall = scratch_.get(kSlotGrad, oc * np);
  pool.parallel_for_chunks(0, n, [&](std::size_t n0, std::size_t n1) {
    for (std::size_t i = n0; i < n1; ++i) {
      for (std::size_t o = 0; o < oc; ++o) {
        std::memcpy(gall + o * np + i * p, grad_out.data() + (i * oc + o) * p,
                    p * sizeof(float));
      }
    }
  });
  Tensor& db = b_.grad;
  for (std::size_t o = 0; o < oc; ++o) {
    const float* row = gall + o * np;
    float acc = 0.0f;
    for (std::size_t q = 0; q < np; ++q) acc += row[q];
    db[o] += acc;
  }
  // dW[oc, CKK] += G[oc, N*P] @ col[CKK, N*P]^T — the batch+position
  // reduction runs inside the GEMM k-loop.
  float* col = scratch_.get(kSlotCol, ckk * np);
  g_.gather(last_input_.data(), n, v, col);
  sgemm(false, true, oc, ckk, np, 1.0f, gall, np, col, np, 1.0f,
        w_.grad.data(), ckk);
  // dcol[CKK, N*P] = W[oc, CKK]^T @ G[oc, N*P], scattered back per sample.
  float* dcol = scratch_.get(kSlotDcol, ckk * np);
  sgemm(true, false, ckk, np, oc, 1.0f, w_.value.data(), ckk, gall, np, 0.0f,
        dcol, np);
  Tensor grad_in(last_input_.shape());
  const std::size_t sample = g_.in_channels * v.d * v.h * v.w;
  pool.parallel_for_chunks(0, n, [&](std::size_t n0, std::size_t n1) {
    for (std::size_t i = n0; i < n1; ++i) {
      col2vol(dcol + i * p, np, g_.in_channels, v.d, v.h, v.w, g_.kernel_d,
              g_.kernel, g_.kernel, g_.stride_d, g_.stride, g_.stride,
              grad_in.data() + i * sample);
    }
  });
  return grad_in;
}

Tensor MaxPool2D::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2D: rank != 4");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / 2, ow = w / 2;
  if (oh == 0 || ow == 0) {
    throw std::invalid_argument("MaxPool2D: input too small");
  }
  Tensor y({n, c, oh, ow});
  argmax_.assign(y.size(), 0);
  std::size_t out_idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const std::size_t iy = oy * 2 + dy, ix = ox * 2 + dx;
              const float v = x.at(i, ch, iy, ix);
              if (v > best) {
                best = v;
                best_idx = ((i * c + ch) * h + iy) * w + ix;
              }
            }
          }
          y[out_idx] = best;
          argmax_[out_idx] = best_idx;
          ++out_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  if (grad_out.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2D: bad grad size");
  }
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

}  // namespace autolearn::ml
