// GEMM backbone tests: the blocked kernel against a naive double-precision
// oracle, vol2col/col2vol adjoint properties, the GEMM-lowered convolution
// against direct loop nests (including stride > kernel edge shapes), and
// the determinism contract — fit() must produce bitwise-identical weights
// for any worker count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ml/conv.hpp"
#include "ml/driving_model.hpp"
#include "ml/gemm.hpp"
#include "ml/trainer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

// --- oracle ---------------------------------------------------------------

/// Textbook triple loop with double accumulators; the tolerance against
/// the float kernel scales with k.
void ref_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
              std::size_t k, float alpha, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float beta, float* c,
              std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      float& out = c[i * ldc + j];
      out = static_cast<float>(alpha * acc) + (beta == 0.0f ? 0.0f : beta * out);
    }
  }
}

std::vector<float> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

struct Shape {
  std::size_t m, n, k;
};

TEST(Sgemm, MatchesOracleAcrossShapesAndTransposes) {
  // Covers k == 1, single-row/column, non-square, and blocks larger than
  // one MC x NC tile (so the multi-tile path runs).
  const Shape shapes[] = {{1, 1, 1},    {4, 8, 1},   {1, 19, 4},
                          {5, 1, 13},   {3, 5, 7},   {17, 33, 9},
                          {64, 48, 96}, {130, 100, 37}};
  util::Rng rng(123);
  for (const Shape& s : shapes) {
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const std::size_t lda = ta ? s.m : s.k;
        const std::size_t ldb = tb ? s.k : s.n;
        for (const auto& [alpha, beta] : {std::pair{1.0f, 0.0f},
                                         std::pair{1.0f, 1.0f},
                                         std::pair{0.5f, -2.0f}}) {
          auto c = random_vec(s.m * s.n, rng);
          auto want = c;
          ref_gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(), ldb,
                   beta, want.data(), s.n);
          sgemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(), ldb,
                beta, c.data(), s.n);
          const float tol = 1e-5f * static_cast<float>(s.k + 1);
          for (std::size_t i = 0; i < c.size(); ++i) {
            ASSERT_NEAR(c[i], want[i], tol)
                << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta=" << ta
                << " tb=" << tb << " alpha=" << alpha << " beta=" << beta
                << " at " << i;
          }
        }
      }
    }
  }
}

TEST(Sgemm, BetaZeroNeverReadsOutput) {
  // The layer hot paths hand sgemm uninitialized scratch with beta == 0;
  // poisoned NaNs must not leak into the result.
  util::Rng rng(7);
  const std::size_t m = 9, n = 21, k = 5;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(m * n, std::numeric_limits<float>::quiet_NaN());
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
        n);
  std::vector<float> want(m * n, 0.0f);
  ref_gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           want.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_TRUE(std::isfinite(c[i])) << i;
    ASSERT_NEAR(c[i], want[i], 1e-4f) << i;
  }
}

TEST(Sgemm, StridedOutputLeavesGapUntouched) {
  // LSTM writes one [N, D] time-step slice of an [N, T, D] tensor via ldc.
  util::Rng rng(8);
  const std::size_t m = 6, n = 4, k = 3, ldc = 11;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(m * ldc, 99.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
        ldc);
  std::vector<float> want(m * n, 0.0f);
  ref_gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           want.data(), n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < ldc; ++j) {
      if (j < n) {
        ASSERT_NEAR(c[i * ldc + j], want[i * n + j], 1e-4f);
      } else {
        ASSERT_EQ(c[i * ldc + j], 99.0f) << "gap clobbered at " << i << "," << j;
      }
    }
  }
}

TEST(Sgemm, ParallelIsBitwiseIdenticalToSerial) {
  // The determinism contract: tile decomposition depends only on the
  // problem shape, so worker count must not change a single bit.
  util::Rng rng(9);
  const std::size_t m = 150, n = 200, k = 300;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> serial(m * n, 0.0f);
  {
    // A single-worker pool runs every tile inline on this thread.
    util::ThreadPool pool(1);
    util::ThreadPool::ScopedOverride guard(pool);
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
          serial.data(), n);
  }
  for (const std::size_t workers : {1u, 3u, 4u}) {
    util::ThreadPool pool(workers);
    util::ThreadPool::ScopedOverride guard(pool);
    std::vector<float> par(m * n, 0.0f);
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
          par.data(), n);
    for (std::size_t i = 0; i < par.size(); ++i) {
      ASSERT_EQ(par[i], serial[i]) << "workers=" << workers << " at " << i;
    }
  }
}

TEST(Sgemm, CountersAdvance) {
  const KernelCounters before = kernel_counters();
  util::Rng rng(10);
  const auto a = random_vec(4 * 6, rng);
  const auto b = random_vec(6 * 5, rng);
  std::vector<float> c(4 * 5, 0.0f);
  sgemm(false, false, 4, 5, 6, 1.0f, a.data(), 6, b.data(), 5, 0.0f, c.data(),
        5);
  const KernelCounters after = kernel_counters();
  EXPECT_EQ(after.gemm_calls - before.gemm_calls, 1u);
  EXPECT_EQ(after.gemm_flops - before.gemm_flops, 2ull * 4 * 5 * 6);
}

// --- vol2col / col2vol ----------------------------------------------------

struct ColShape {
  std::size_t c, d, h, w, kd, kh, kw, sd, sh, sw;
};

/// col2vol(vol2col(x)) == x * multiplicity, where multiplicity counts how
/// many sliding windows cover each element (col2vol of an all-ones volume).
void expect_round_trip_scales_by_multiplicity(const ColShape& s,
                                              util::Rng& rng) {
  const std::size_t od = (s.d - s.kd) / s.sd + 1;
  const std::size_t oh = (s.h - s.kh) / s.sh + 1;
  const std::size_t ow = (s.w - s.kw) / s.sw + 1;
  const std::size_t rows = s.c * s.kd * s.kh * s.kw, cols = od * oh * ow;
  const auto round_trip = [&](const std::vector<float>& x) {
    std::vector<float> col(rows * cols, 0.0f);
    vol2col(x.data(), s.c, s.d, s.h, s.w, s.kd, s.kh, s.kw, s.sd, s.sh, s.sw,
            col.data(), cols);
    std::vector<float> back(x.size(), 0.0f);
    col2vol(col.data(), cols, s.c, s.d, s.h, s.w, s.kd, s.kh, s.kw, s.sd,
            s.sh, s.sw, back.data());
    return back;
  };
  const auto x = random_vec(s.c * s.d * s.h * s.w, rng);
  const std::vector<float> back = round_trip(x);
  const std::vector<float> ones(x.size(), 1.0f);
  const std::vector<float> mult = round_trip(ones);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(back[i], x[i] * mult[i], 1e-5f)
        << "c=" << s.c << " d=" << s.d << " h=" << s.h << " w=" << s.w
        << " k=" << s.kd << "x" << s.kh << "x" << s.kw << " s=" << s.sd << "x"
        << s.sh << "x" << s.sw << " at " << i;
  }
}

TEST(Im2col, Col2imRoundTripScalesByWindowMultiplicity) {
  // The 2-D case (d = kd = sd = 1), including stride > kernel, where some
  // pixels are covered zero times.
  const ColShape shapes[] = {{1, 1, 5, 5, 1, 1, 1, 1, 1, 1},
                             {3, 1, 11, 9, 1, 3, 3, 1, 2, 2},
                             {2, 1, 8, 10, 1, 2, 2, 1, 3, 3},
                             {2, 1, 7, 7, 1, 3, 3, 1, 1, 1}};
  util::Rng rng(31);
  for (const ColShape& s : shapes) {
    expect_round_trip_scales_by_multiplicity(s, rng);
  }
}

TEST(Im2col, PatchLayoutMatchesFlattenedWeights) {
  // Row index must be ((ic*KD + kz)*KH + ky)*KW + kx and column
  // (oz*OH + oy)*OW + ox, or the GEMM against flattened [OC, C, KD, KH, KW]
  // weights silently permutes taps. The depth-1 shape runs vol2col's 2-D
  // copy of the loops, the d > 1 shape its general body.
  const ColShape shapes[] = {{2, 1, 4, 5, 1, 2, 3, 1, 1, 2},
                             {2, 5, 4, 5, 2, 2, 3, 2, 1, 2}};
  for (const ColShape& s : shapes) {
    const std::size_t od = (s.d - s.kd) / s.sd + 1;
    const std::size_t oh = (s.h - s.kh) / s.sh + 1;
    const std::size_t ow = (s.w - s.kw) / s.sw + 1;
    const std::size_t cols = od * oh * ow;
    std::vector<float> x(s.c * s.d * s.h * s.w);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
    std::vector<float> col(s.c * s.kd * s.kh * s.kw * cols, -1.0f);
    vol2col(x.data(), s.c, s.d, s.h, s.w, s.kd, s.kh, s.kw, s.sd, s.sh, s.sw,
            col.data(), cols);
    for (std::size_t ic = 0; ic < s.c; ++ic) {
      for (std::size_t kz = 0; kz < s.kd; ++kz) {
        for (std::size_t ky = 0; ky < s.kh; ++ky) {
          for (std::size_t kx = 0; kx < s.kw; ++kx) {
            const std::size_t row = ((ic * s.kd + kz) * s.kh + ky) * s.kw + kx;
            for (std::size_t oz = 0; oz < od; ++oz) {
              for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                  const std::size_t colidx = (oz * oh + oy) * ow + ox;
                  const float want =
                      x[((ic * s.d + oz * s.sd + kz) * s.h + oy * s.sh + ky) *
                            s.w +
                        ox * s.sw + kx];
                  ASSERT_EQ(col[row * cols + colidx], want)
                      << "d=" << s.d << " at " << ic << "," << kz << "," << ky
                      << "," << kx << "," << oz << "," << oy << "," << ox;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Vol2col, Col2volRoundTripScalesByWindowMultiplicity) {
  util::Rng rng(33);
  expect_round_trip_scales_by_multiplicity({2, 4, 6, 5, 2, 3, 2, 1, 2, 3},
                                           rng);
}

// --- conv vs direct loop nests --------------------------------------------

struct ConvCase {
  std::size_t n, ic, oc, h, w, k, stride;
  std::size_t d = 0, kd = 1, stride_d = 1;  // d == 0: a Conv2D
};

/// Direct convolution loops (the pre-GEMM implementation) with gradient
/// loops, used as the oracle for the lowered layer. An [N, C, H, W] input
/// is read as the depth-1 volume [N, C, 1, H, W] it is laid out as.
struct NaiveConvResult {
  Tensor y, dx, dw, db;
};

NaiveConvResult naive_conv(const Tensor& x, const Tensor& wt, const Tensor& bt,
                           const Tensor& grad_out, std::size_t stride_d,
                           std::size_t stride) {
  const bool volume = x.rank() == 5;
  const std::size_t n = x.dim(0), ic = x.dim(1), d = volume ? x.dim(2) : 1;
  const std::size_t h = x.dim(x.rank() - 2), w = x.dim(x.rank() - 1);
  const std::size_t oc = wt.dim(0), kd = volume ? wt.dim(2) : 1;
  const std::size_t k = wt.dim(wt.rank() - 1);
  const std::size_t od = (d - kd) / stride_d + 1;
  const std::size_t oh = (h - k) / stride + 1, ow = (w - k) / stride + 1;
  std::vector<std::size_t> y_shape = {n, oc, od, oh, ow};
  if (!volume) y_shape.erase(y_shape.begin() + 2);
  NaiveConvResult r{Tensor(y_shape), Tensor(x.shape()), Tensor(wt.shape()),
                    Tensor(bt.shape())};
  // Flat offsets of input element (i, c, z, y, x), tap (o, c, kz, ky, kx)
  // and output (i, o, oz, oy, ox).
  const auto xi = [&](std::size_t i, std::size_t c, std::size_t z,
                      std::size_t yy, std::size_t xx) {
    return (((i * ic + c) * d + z) * h + yy) * w + xx;
  };
  const auto wi = [&](std::size_t o, std::size_t c, std::size_t kz,
                      std::size_t ky, std::size_t kx) {
    return (((o * ic + c) * kd + kz) * k + ky) * k + kx;
  };
  const auto yi = [&](std::size_t i, std::size_t o, std::size_t oz,
                      std::size_t oy, std::size_t ox) {
    return (((i * oc + o) * od + oz) * oh + oy) * ow + ox;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t oz = 0; oz < od; ++oz) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float acc = bt[o];
            const float g = grad_out[yi(i, o, oz, oy, ox)];
            r.db[o] += g;
            for (std::size_t c = 0; c < ic; ++c) {
              for (std::size_t kz = 0; kz < kd; ++kz) {
                for (std::size_t ky = 0; ky < k; ++ky) {
                  for (std::size_t kx = 0; kx < k; ++kx) {
                    const std::size_t at =
                        xi(i, c, oz * stride_d + kz, oy * stride + ky,
                           ox * stride + kx);
                    const std::size_t tap = wi(o, c, kz, ky, kx);
                    acc += x[at] * wt[tap];
                    r.dw[tap] += g * x[at];
                    r.dx[at] += g * wt[tap];
                  }
                }
              }
            }
            r.y[yi(i, o, oz, oy, ox)] = acc;
          }
        }
      }
    }
  }
  return r;
}

TEST(Conv2D, ForwardBackwardMatchNaiveLoops) {
  // Conv2D: k == 1 (pointwise), the model-zoo k=3/s=2 shape, and stride >
  // kernel (windows skip pixels; dx must be zero on the skipped ones).
  // Conv3D: kd 2 at depth stride 1 (the 3d model's frame stack) and 2,
  // and a 1x1x1 kernel.
  const ConvCase cases[] = {{2, 3, 4, 6, 7, 1, 1},
                            {3, 2, 5, 9, 11, 3, 2},
                            {2, 2, 3, 8, 9, 2, 3},
                            {2, 1, 3, 9, 11, 3, 2, 3, 2, 1},
                            {2, 2, 3, 7, 8, 2, 1, 5, 2, 2},
                            {2, 3, 4, 5, 6, 1, 1, 3, 1, 1}};
  for (const ConvCase& cc : cases) {
    util::Rng rng(77);
    std::unique_ptr<Layer> layer;
    std::vector<std::size_t> x_shape = {cc.n, cc.ic, cc.h, cc.w};
    if (cc.d == 0) {
      layer = std::make_unique<Conv2D>(cc.ic, cc.oc, cc.k, cc.stride, rng);
    } else {
      layer = std::make_unique<Conv3D>(cc.ic, cc.oc, cc.kd, cc.k, cc.stride_d,
                                       cc.stride, rng);
      x_shape.insert(x_shape.begin() + 2, cc.d);
    }
    const std::string at = layer->name() + " k=" + std::to_string(cc.k);
    util::Rng data_rng(78);
    const Tensor x = Tensor::randn(x_shape, data_rng, 1.0);
    const Tensor y = layer->forward(x, true);
    const Tensor grad_out = Tensor::randn(y.shape(), data_rng, 1.0);
    const Tensor dx = layer->backward(grad_out);

    Param* wp = layer->params()[0];
    Param* bp = layer->params()[1];
    const NaiveConvResult want =
        naive_conv(x, wp->value, bp->value, grad_out, cc.stride_d, cc.stride);
    ASSERT_EQ(y.shape(), want.y.shape()) << at;
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], want.y[i], 1e-4f) << "y " << at << " at " << i;
    }
    for (std::size_t i = 0; i < dx.size(); ++i) {
      ASSERT_NEAR(dx[i], want.dx[i], 1e-4f) << "dx " << at << " at " << i;
    }
    for (std::size_t i = 0; i < wp->grad.size(); ++i) {
      ASSERT_NEAR(wp->grad[i], want.dw[i], 1e-4f) << "dw " << at << " at " << i;
    }
    for (std::size_t i = 0; i < bp->grad.size(); ++i) {
      ASSERT_NEAR(bp->grad[i], want.db[i], 1e-4f) << "db " << at << " at " << i;
    }
  }
}

// --- fit() thread-count invariance ----------------------------------------

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  return cfg;
}

std::vector<Sample> band_dataset(std::size_t n, const ModelConfig& cfg,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(cfg.img_w) - 3));
    camera::Image img(cfg.img_w, cfg.img_h, 0.1f);
    for (std::size_t y = 0; y < cfg.img_h; ++y) {
      for (std::size_t dx = 0; dx < 3; ++dx) img.at(col - 1 + dx, y) = 0.9f;
    }
    Sample s;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) s.frames.push_back(img);
    const float steer = static_cast<float>(
        2.0 * static_cast<double>(col) / (cfg.img_w - 1) - 1.0);
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      s.history.push_back(steer);
      s.history.push_back(0.5f);
    }
    s.steering = steer;
    s.throttle = 0.5f;
    out.push_back(std::move(s));
  }
  return out;
}

class ThreadInvarianceTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(ThreadInvarianceTest, FitIsBitwiseIdenticalAcrossWorkerCounts) {
  // The acceptance gate for the parallel backward: weights and per-epoch
  // losses after fit() must not depend on how many workers ran the GEMMs.
  const ModelConfig cfg = tiny_config();
  const auto train = band_dataset(64, cfg, 311);
  const auto val = band_dataset(16, cfg, 312);

  auto run = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    util::ThreadPool::ScopedOverride guard(pool);
    auto model = make_model(GetParam(), cfg);
    TrainOptions opt;
    opt.epochs = 2;
    opt.batch_size = 32;
    const TrainResult r = fit(*model, train, val, opt);
    std::ostringstream weights;
    model->save(weights);
    return std::pair{weights.str(), r};
  };

  const auto [w1, r1] = run(1);
  for (const std::size_t workers : {2u, 4u}) {
    const auto [wn, rn] = run(workers);
    EXPECT_EQ(w1, wn) << "weights diverge at " << workers << " workers";
    ASSERT_EQ(r1.history.size(), rn.history.size());
    for (std::size_t e = 0; e < r1.history.size(); ++e) {
      EXPECT_EQ(r1.history[e].train_loss, rn.history[e].train_loss)
          << "train loss epoch " << e << " workers " << workers;
      EXPECT_EQ(r1.history[e].val_loss, rn.history[e].val_loss)
          << "val loss epoch " << e << " workers " << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConvDenseLstm, ThreadInvarianceTest,
    ::testing::Values(ModelType::Linear, ModelType::Rnn, ModelType::Conv3d,
                      ModelType::Memory, ModelType::Categorical,
                      ModelType::Inferred),
    [](const ::testing::TestParamInfo<ModelType>& info) {
      std::string name = to_string(info.param);
      if (name == "3d") name = "conv3d";
      return name;
    });

}  // namespace
}  // namespace autolearn::ml
