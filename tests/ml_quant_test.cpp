// Int8 kernel tests (ctest -L quant): the quantize/dequantize round-trip
// property, the qgemm oracle against the fp32 reference under the
// analytic error bound from docs/performance.md, scalar-vs-AVX2 bitwise
// agreement, and the same output/parallelism contracts sgemm holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ml/layers.hpp"
#include "ml/quant.hpp"
#include "ml/quant_layers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

std::vector<float> random_vec(std::size_t n, util::Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Double-precision fp32 reference: C[m,n] = W[m,k] @ X[k,n].
std::vector<float> ref_gemm(const std::vector<float>& w,
                            const std::vector<float>& x, std::size_t m,
                            std::size_t n, std::size_t k) {
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(w[i * k + p]) *
               static_cast<double>(x[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

ActQuant quant_from_range(const std::vector<float>& x) {
  float lo = 0.0f, hi = 0.0f;
  for (float v : x) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return choose_act_quant(lo, hi);
}

/// The per-row analytic bound (derivation in docs/performance.md): with
/// ŵ, x̂ the dequantized values, |ŵ-w| <= s_w/2 and |x̂-x| <= s_x/2, so
/// |Σ(ŵx̂ - wx)| <= k (max|w_row| s_x/2 + (max|x| + s_x/2) s_w_row/2).
float row_error_bound(const std::vector<float>& w, std::size_t row,
                      std::size_t k, float s_w, const ActQuant& xq,
                      float max_abs_x) {
  float max_abs_w = 0.0f;
  for (std::size_t p = 0; p < k; ++p) {
    max_abs_w = std::max(max_abs_w, std::fabs(w[row * k + p]));
  }
  const float half_sx = 0.5f * xq.scale, half_sw = 0.5f * s_w;
  return static_cast<float>(k) *
         (max_abs_w * half_sx + (max_abs_x + half_sx) * half_sw);
}

// --- quantize/dequantize round-trip properties ----------------------------

TEST(QuantizeWeights, RoundTripWithinHalfScalePerChannel) {
  // Every channel — including an all-zero one and one dominated by a
  // single outlier — must recover each weight within 0.5 * its own scale;
  // per-channel scaling means the outlier cannot degrade other channels.
  const std::size_t rows = 6, cols = 37;
  util::Rng rng(411);
  auto w = random_vec(rows * cols, rng);
  for (std::size_t p = 0; p < cols; ++p) w[1 * cols + p] = 0.0f;  // all-zero
  for (std::size_t p = 0; p < cols; ++p) w[2 * cols + p] *= 1e-3f;
  w[2 * cols + 5] = 50.0f;  // single outlier stretches only channel 2
  const QuantizedWeights qw = quantize_weights(w.data(), rows, cols);
  ASSERT_EQ(qw.scales.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const float s = qw.scales[i];
    ASSERT_GT(s, 0.0f) << "row " << i;
    std::int32_t sum = 0;
    for (std::size_t p = 0; p < cols; ++p) {
      const float back = s * static_cast<float>(qw.q[i * cols + p]);
      // 0.5 "ULP of scale" plus float division slack on the outlier row.
      EXPECT_LE(std::fabs(back - w[i * cols + p]), 0.5f * s * 1.0001f)
          << "row " << i << " col " << p;
      sum += qw.q[i * cols + p];
    }
    EXPECT_EQ(sum, qw.row_sums[i]) << "row " << i;
  }
  // All-zero channel: exact, with the defaulted scale.
  for (std::size_t p = 0; p < cols; ++p) EXPECT_EQ(qw.q[1 * cols + p], 0);
  EXPECT_EQ(qw.scales[1], 1.0f);
  // The outlier saturates its own channel's small values to 0, but the
  // neighbouring channels' scales stay small (per-channel isolation).
  EXPECT_GT(qw.scales[2], 0.1f);
  EXPECT_LT(qw.scales[0], 0.01f);
}

TEST(ActQuant, RoundTripWithinHalfScaleAndZeroIsExact) {
  util::Rng rng(412);
  for (int trial = 0; trial < 50; ++trial) {
    const float a = static_cast<float>(rng.uniform(-4.0, 4.0));
    const float b = static_cast<float>(rng.uniform(-4.0, 4.0));
    const float lo = std::min(a, b), hi = std::max(a, b);
    const ActQuant q = choose_act_quant(lo, hi);
    ASSERT_GT(q.scale, 0.0f);
    ASSERT_GE(q.zero_point, 0);
    ASSERT_LE(q.zero_point, kActMax);
    // Zero is always representable exactly (the range is widened to
    // include it), so ReLU floors and zero padding survive quantization.
    EXPECT_EQ(dequantize_activation(quantize_activation(0.0f, q), q), 0.0f);
    for (int i = 0; i < 100; ++i) {
      const float x = static_cast<float>(rng.uniform(lo, hi));
      const float back = dequantize_activation(quantize_activation(x, q), q);
      EXPECT_LE(std::fabs(back - x), 0.5f * q.scale * 1.0001f)
          << "x=" << x << " range [" << lo << "," << hi << "]";
    }
  }
}

TEST(ActQuant, DegenerateRangeIsIdentityQuantizer) {
  const ActQuant q = choose_act_quant(0.0f, 0.0f);
  EXPECT_EQ(q.scale, 1.0f);
  EXPECT_EQ(q.zero_point, 0);
  EXPECT_EQ(quantize_activation(0.0f, q), 0);
}

// --- qgemm vs fp32 oracle -------------------------------------------------

struct Shape {
  std::size_t m, n, k;
};

// Mirrors the sgemm edge matrix (k == 1, single-row/column, ragged tiles,
// multi-tile n) plus the batch-1 strided-conv im2col shapes of the zoo
// encoder ({8, 165, 9} is conv1 at 32x24 k3 s2, {32, 48, 144} is conv3).
const Shape kShapes[] = {{1, 1, 1},    {4, 8, 1},      {1, 19, 4},
                         {5, 1, 13},   {3, 5, 7},      {17, 33, 9},
                         {8, 165, 9},  {32, 48, 144},  {130, 100, 37},
                         {64, 300, 96}};

TEST(QGemm, MatchesFp32OracleWithinAnalyticBound) {
  util::Rng rng(413);
  for (const Shape& s : kShapes) {
    const auto w = random_vec(s.m * s.k, rng);
    const auto x = random_vec(s.k * s.n, rng, -2.0, 2.0);
    const QuantizedWeights qw = quantize_weights(w.data(), s.m, s.k);
    const ActQuant xq = quant_from_range(x);
    std::vector<std::uint8_t> qx(x.size());
    quantize_activations(x.data(), x.size(), xq, qx.data());
    float max_abs_x = 0.0f;
    for (float v : x) max_abs_x = std::max(max_abs_x, std::fabs(v));

    const auto want = ref_gemm(w, x, s.m, s.n, s.k);
    std::vector<float> got(s.m * s.n, 0.0f);
    qgemm(qw, qx.data(), s.n, xq, got.data(), s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      const float bound =
          row_error_bound(w, i, s.k, qw.scales[i], xq, max_abs_x) * 1.0001f +
          1e-5f;
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_LE(std::fabs(got[i * s.n + j] - want[i * s.n + j]), bound)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at (" << i
            << "," << j << ")";
      }
    }
  }
}

TEST(QGemm, ScalarAndAvx2AreBitwiseIdentical) {
  if (!qgemm_isa_supported(QGemmIsa::Avx2)) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  util::Rng rng(414);
  for (const Shape& s : kShapes) {
    const auto w = random_vec(s.m * s.k, rng);
    const auto x = random_vec(s.k * s.n, rng, -1.5, 3.0);
    const QuantizedWeights qw = quantize_weights(w.data(), s.m, s.k);
    const ActQuant xq = quant_from_range(x);
    std::vector<std::uint8_t> qx(x.size());
    quantize_activations(x.data(), x.size(), xq, qx.data());
    std::vector<float> scalar(s.m * s.n, 0.0f), avx2(s.m * s.n, 0.0f);
    qgemm(qw, qx.data(), s.n, xq, scalar.data(), s.n, QGemmIsa::Scalar);
    qgemm(qw, qx.data(), s.n, xq, avx2.data(), s.n, QGemmIsa::Avx2);
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(scalar[i], avx2[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(QGemm, StridedOutputLeavesGapUntouched) {
  util::Rng rng(415);
  const std::size_t m = 6, n = 4, k = 9, ldc = 11;
  const auto w = random_vec(m * k, rng);
  const auto x = random_vec(k * n, rng);
  const QuantizedWeights qw = quantize_weights(w.data(), m, k);
  const ActQuant xq = quant_from_range(x);
  std::vector<std::uint8_t> qx(x.size());
  quantize_activations(x.data(), x.size(), xq, qx.data());
  std::vector<float> c(m * ldc, 99.0f);
  qgemm(qw, qx.data(), n, xq, c.data(), ldc);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = n; j < ldc; ++j) {
      ASSERT_EQ(c[i * ldc + j], 99.0f) << "gap clobbered at " << i << "," << j;
    }
  }
}

TEST(QGemm, ParallelIsBitwiseIdenticalToSerial) {
  // Multi-tile n (> one QNC column tile) across worker counts: integer
  // accumulation makes this exact, and the dequant path is shared.
  util::Rng rng(416);
  const std::size_t m = 13, n = 700, k = 40;
  const auto w = random_vec(m * k, rng);
  const auto x = random_vec(k * n, rng);
  const QuantizedWeights qw = quantize_weights(w.data(), m, k);
  const ActQuant xq = quant_from_range(x);
  std::vector<std::uint8_t> qx(x.size());
  quantize_activations(x.data(), x.size(), xq, qx.data());
  std::vector<float> serial(m * n, 0.0f);
  {
    // A single-worker pool runs every tile inline on this thread.
    util::ThreadPool pool(1);
    util::ThreadPool::ScopedOverride guard(pool);
    qgemm(qw, qx.data(), n, xq, serial.data(), n);
  }
  for (const std::size_t workers : {1u, 3u, 4u}) {
    util::ThreadPool pool(workers);
    util::ThreadPool::ScopedOverride guard(pool);
    std::vector<float> par(m * n, 0.0f);
    qgemm(qw, qx.data(), n, xq, par.data(), n);
    for (std::size_t i = 0; i < par.size(); ++i) {
      ASSERT_EQ(par[i], serial[i]) << "workers=" << workers << " at " << i;
    }
  }
}

TEST(QGemm, CountersAdvance) {
  util::Rng rng(417);
  const std::size_t m = 4, n = 5, k = 6;
  const auto w = random_vec(m * k, rng);
  const QuantizedWeights qw = quantize_weights(w.data(), m, k);
  std::vector<std::uint8_t> qx(k * n, 7);
  const KernelCounters before = kernel_counters();
  std::vector<float> c(m * n, 0.0f);
  qgemm(qw, qx.data(), n, ActQuant{}, c.data(), n);
  const KernelCounters after = kernel_counters();
  EXPECT_EQ(after.qgemm_calls - before.qgemm_calls, 1u);
  EXPECT_EQ(after.qgemm_ops - before.qgemm_ops, 2ull * m * n * k);
}

// --- quantized layers vs their fp32 twins ---------------------------------

TEST(QuantDense, ForwardWithinAnalyticBoundOfFp32) {
  const std::size_t in = 192, out = 64, batch = 5;
  util::Rng rng(418);
  Dense fp32(in, out, rng);
  util::Rng data_rng(419);
  const Tensor x = Tensor::randn({batch, in}, data_rng, 1.0);
  std::vector<float> xv(x.data(), x.data() + x.size());
  const ActQuant xq = quant_from_range(xv);
  QuantDense q(fp32.params()[0]->value, fp32.params()[1]->value, xq);
  const Tensor want = fp32.forward(x, false);
  const Tensor got = q.forward(x, false);
  ASSERT_EQ(got.shape(), want.shape());
  float max_abs_x = 0.0f;
  for (float v : xv) max_abs_x = std::max(max_abs_x, std::fabs(v));
  const float* w = fp32.params()[0]->value.data();
  std::vector<float> wv(w, w + in * out);
  const QuantizedWeights qw = quantize_weights(w, out, in);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      const float bound =
          row_error_bound(wv, o, in, qw.scales[o], xq, max_abs_x) * 1.0001f +
          1e-4f;
      ASSERT_LE(std::fabs(got.at(i, o) - want.at(i, o)), bound)
          << "sample " << i << " unit " << o;
    }
  }
}

TEST(QuantDense, BackwardThrowsFrozen) {
  util::Rng rng(420);
  Dense fp32(4, 3, rng);
  QuantDense q(fp32.params()[0]->value, fp32.params()[1]->value, ActQuant{});
  Tensor g({2, 3}, 0.0f);
  EXPECT_THROW(q.backward(g), std::logic_error);
}

}  // namespace
}  // namespace autolearn::ml
