// Test-side copy of the Conv and LSTM lowerings as they stood before each
// layer ran one forward kernel: Conv's forward through the patch matrix
// (vol2col -> sgemm -> bias scatter) and its backward (regroup -> db -> dW
// -> dcol -> col2vol), and the LSTM's forward with a per-step StepCache and
// the BPTT backward over it. ml_layer_reference_test holds the layers, and
// the compiled plan steps that call the same kernels, to it bit for bit.
#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "ml/conv.hpp"
#include "ml/gemm.hpp"
#include "ml/tensor.hpp"

namespace autolearn::reference {

/// The batched patch matrix [CKK, N*P] of x: sample i owns columns
/// [i*P, (i+1)*P).
inline std::vector<float> patch_matrix(const ml::ConvGeometry& g,
                                       const ml::ConvGeometry::Volumes& v,
                                       const ml::Tensor& x) {
  const std::size_t n = x.dim(0), p = v.positions(), np = n * p;
  const std::size_t sample = g.in_channels * v.d * v.h * v.w;
  std::vector<float> col(g.patch_rows() * np);
  for (std::size_t i = 0; i < n; ++i) {
    ml::vol2col(x.data() + i * sample, g.in_channels, v.d, v.h, v.w,
                g.kernel_d, g.kernel, g.kernel, g.stride_d, g.stride,
                g.stride, col.data() + i * p, np);
  }
  return col;
}

/// y [N, OC, (OD,) OH, OW] of a valid convolution, lowered to one batched
/// patch matrix and one GEMM, then a bias pass.
inline ml::Tensor conv_forward(const ml::ConvGeometry& g,
                               const ml::Tensor& w, const ml::Tensor& b,
                               const ml::Tensor& x) {
  const ml::ConvGeometry::Volumes v = g.volumes(x.shape());
  const std::size_t n = x.dim(0), oc = g.out_channels;
  const std::size_t ckk = g.patch_rows(), p = v.positions(), np = n * p;
  const std::vector<float> col = patch_matrix(g, v, x);
  // Y[oc, N*P] = W[oc, CKK] @ col[CKK, N*P].
  std::vector<float> yall(oc * np);
  ml::sgemm(false, false, oc, np, ckk, 1.0f, w.data(), ckk, col.data(), np,
            0.0f, yall.data(), np);
  ml::Tensor y(g.out_shape(n, v));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t q = 0; q < p; ++q) {
        y[(i * oc + o) * p + q] = yall[o * np + i * p + q] + b[o];
      }
    }
  }
  return y;
}

/// The adjoint of conv_forward at input x: accumulates dW into dw and db
/// into db, and returns dX.
inline ml::Tensor conv_backward(const ml::ConvGeometry& g,
                                const ml::Tensor& w, const ml::Tensor& x,
                                const ml::Tensor& grad_out, ml::Tensor& dw,
                                ml::Tensor& db) {
  const ml::ConvGeometry::Volumes v = g.volumes(x.shape());
  const std::size_t n = x.dim(0), oc = g.out_channels;
  const std::size_t ckk = g.patch_rows(), p = v.positions(), np = n * p;
  const std::size_t sample = g.in_channels * v.d * v.h * v.w;
  // Regroup grad_out into the batched [OC, N*P] layout of the patch matrix.
  std::vector<float> gall(oc * np);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < oc; ++o) {
      std::memcpy(gall.data() + o * np + i * p,
                  grad_out.data() + (i * oc + o) * p, p * sizeof(float));
    }
  }
  for (std::size_t o = 0; o < oc; ++o) {
    float acc = 0.0f;
    for (std::size_t q = 0; q < np; ++q) acc += gall[o * np + q];
    db[o] += acc;
  }
  const std::vector<float> col = patch_matrix(g, v, x);
  // dW[oc, CKK] += G[oc, N*P] @ col[CKK, N*P]^T.
  ml::sgemm(false, true, oc, ckk, np, 1.0f, gall.data(), np, col.data(), np,
            1.0f, dw.data(), ckk);
  // dcol[CKK, N*P] = W[oc, CKK]^T @ G[oc, N*P], summed back per sample.
  std::vector<float> dcol(ckk * np);
  ml::sgemm(true, false, ckk, np, oc, 1.0f, w.data(), ckk, gall.data(), np,
            0.0f, dcol.data(), np);
  ml::Tensor dx(x.shape());
  for (std::size_t i = 0; i < n; ++i) {
    ml::col2vol(dcol.data() + i * p, np, g.in_channels, v.d, v.h, v.w,
                g.kernel_d, g.kernel, g.kernel, g.stride_d, g.stride,
                g.stride, dx.data() + i * sample);
  }
  return dx;
}

/// An LSTM over the weights wx [4H, D], wh [4H, H] and b [4H] (gate order
/// i, f, g, o) that caches every step's operands as its own tensors.
class Lstm {
 public:
  Lstm(const ml::Tensor& wx, const ml::Tensor& wh, const ml::Tensor& b)
      : wx_(wx), wh_(wh), b_(b), d_(wx.dim(1)), h_(wh.dim(1)) {}

  /// The final hidden state [N, H] of x [N, T, D].
  ml::Tensor forward(const ml::Tensor& x) {
    const std::size_t n = x.dim(0), t_len = x.dim(1);
    cache_.assign(t_len, StepCache{});
    ml::Tensor h({n, h_});
    ml::Tensor c({n, h_});
    for (std::size_t t = 0; t < t_len; ++t) {
      StepCache& sc = cache_[t];
      sc.h_prev = h;
      sc.c_prev = c;
      sc.x = ml::Tensor({n, d_});
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < d_; ++k) sc.x.at(i, k) = x.at(i, t, k);
      }
      sc.gates = ml::Tensor({n, 4 * h_});
      sc.c = ml::Tensor({n, h_});
      sc.tanh_c = ml::Tensor({n, h_});
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < 4 * h_; ++r) sc.gates.at(i, r) = b_[r];
      }
      ml::sgemm(false, true, n, 4 * h_, d_, 1.0f, sc.x.data(), d_,
                wx_.data(), d_, 1.0f, sc.gates.data(), 4 * h_);
      ml::sgemm(false, true, n, 4 * h_, h_, 1.0f, sc.h_prev.data(), h_,
                wh_.data(), h_, 1.0f, sc.gates.data(), 4 * h_);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < h_; ++j) {
          const float gi = sigmoid(sc.gates.at(i, j));
          const float gf = sigmoid(sc.gates.at(i, h_ + j));
          const float gg = std::tanh(sc.gates.at(i, 2 * h_ + j));
          const float go = sigmoid(sc.gates.at(i, 3 * h_ + j));
          sc.gates.at(i, j) = gi;
          sc.gates.at(i, h_ + j) = gf;
          sc.gates.at(i, 2 * h_ + j) = gg;
          sc.gates.at(i, 3 * h_ + j) = go;
          const float cv = gf * sc.c_prev.at(i, j) + gi * gg;
          sc.c.at(i, j) = cv;
          sc.tanh_c.at(i, j) = std::tanh(cv);
          h.at(i, j) = go * sc.tanh_c.at(i, j);
          c.at(i, j) = cv;
        }
      }
    }
    return h;
  }

  /// BPTT over the last forward: accumulates into dwx, dwh and db and
  /// returns dX [N, T, D].
  ml::Tensor backward(const ml::Tensor& grad_out, ml::Tensor& dwx,
                      ml::Tensor& dwh, ml::Tensor& db) const {
    const std::size_t n = grad_out.dim(0), t_len = cache_.size();
    ml::Tensor grad_x({n, t_len, d_});
    ml::Tensor dh = grad_out;
    ml::Tensor dc({n, h_});
    for (std::size_t t = t_len; t-- > 0;) {
      const StepCache& sc = cache_[t];
      ml::Tensor dgates({n, 4 * h_});
      ml::Tensor dh_prev({n, h_});
      ml::Tensor dc_prev({n, h_});
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < h_; ++j) {
          const float gi = sc.gates.at(i, j);
          const float gf = sc.gates.at(i, h_ + j);
          const float gg = sc.gates.at(i, 2 * h_ + j);
          const float go = sc.gates.at(i, 3 * h_ + j);
          const float tc = sc.tanh_c.at(i, j);
          const float dht = dh.at(i, j);
          const float dct = dc.at(i, j) + dht * go * (1 - tc * tc);
          const float dgo = dht * tc;
          const float dgi = dct * gg;
          const float dgg = dct * gi;
          const float dgf = dct * sc.c_prev.at(i, j);
          dc_prev.at(i, j) = dct * gf;
          dgates.at(i, j) = dgi * gi * (1 - gi);
          dgates.at(i, h_ + j) = dgf * gf * (1 - gf);
          dgates.at(i, 2 * h_ + j) = dgg * (1 - gg * gg);
          dgates.at(i, 3 * h_ + j) = dgo * go * (1 - go);
        }
      }
      for (std::size_t r = 0; r < 4 * h_; ++r) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; ++i) acc += dgates.at(i, r);
        db[r] += acc;
      }
      ml::sgemm(true, false, 4 * h_, d_, n, 1.0f, dgates.data(), 4 * h_,
                sc.x.data(), d_, 1.0f, dwx.data(), d_);
      ml::sgemm(true, false, 4 * h_, h_, n, 1.0f, dgates.data(), 4 * h_,
                sc.h_prev.data(), h_, 1.0f, dwh.data(), h_);
      ml::sgemm(false, false, n, d_, 4 * h_, 1.0f, dgates.data(), 4 * h_,
                wx_.data(), d_, 0.0f, grad_x.data() + t * d_, t_len * d_);
      ml::sgemm(false, false, n, h_, 4 * h_, 1.0f, dgates.data(), 4 * h_,
                wh_.data(), h_, 0.0f, dh_prev.data(), h_);
      dh = dh_prev;
      dc = dc_prev;
    }
    return grad_x;
  }

 private:
  struct StepCache {
    ml::Tensor x;       // [N, D]
    ml::Tensor h_prev;  // [N, H]
    ml::Tensor c_prev;  // [N, H]
    ml::Tensor gates;   // [N, 4H] post-activation (i, f, g, o)
    ml::Tensor c;       // [N, H]
    ml::Tensor tanh_c;  // [N, H]
  };

  static float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

  const ml::Tensor& wx_;
  const ml::Tensor& wh_;
  const ml::Tensor& b_;
  std::size_t d_, h_;
  std::vector<StepCache> cache_;
};

}  // namespace autolearn::reference
