// Layer unit tests including numeric gradient verification: the analytic
// backward pass of every layer is checked against central differences on a
// scalar probe loss L = sum(w .* forward(x)) with fixed random w.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "ml/conv.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/lstm.hpp"

namespace autolearn::ml {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, util::Rng& rng,
                     double scale = 1.0) {
  return Tensor::randn(std::move(shape), rng, scale);
}

/// Probe loss: L(x) = sum_i w_i * layer(x)_i; dL/d(layer out) = w.
struct GradCheck {
  static constexpr double kEps = 1e-3;
  static constexpr double kTol = 2e-2;  // relative, float32 arithmetic

  /// Verifies dL/dx and all dL/dparam for one layer and input.
  static void run(Layer& layer, Tensor x, util::Rng& rng) {
    const Tensor y0 = layer.forward(x, /*train=*/false);
    const Tensor w = random_tensor(y0.shape(), rng);
    for (Param* p : layer.params()) p->zero_grad();
    const Tensor analytic_dx = layer.backward(w);

    auto loss_at = [&](Tensor& target, std::size_t idx, double delta) {
      const float saved = target[idx];
      target[idx] = static_cast<float>(saved + delta);
      // Re-run forward through the (stateless w.r.t. value) layer.
      const Tensor y = layer.forward(x, /*train=*/false);
      target[idx] = saved;
      double L = 0;
      for (std::size_t i = 0; i < y.size(); ++i) {
        L += static_cast<double>(w[i]) * y[i];
      }
      return L;
    };

    // Check input gradient on a sample of indices.
    check_tensor("input", x, analytic_dx,
                 [&](std::size_t i, double d) { return loss_at(x, i, d); });

    // Check parameter gradients. Forward must be rerun after perturbation,
    // and analytic grads were accumulated by the single backward above.
    for (Param* p : layer.params()) {
      check_tensor("param", p->value, p->grad, [&](std::size_t i, double d) {
        return loss_at(p->value, i, d);
      });
    }
  }

  static void check_tensor(
      const char* what, const Tensor& target, const Tensor& analytic,
      const std::function<double(std::size_t, double)>& loss_at) {
    // Sample up to 24 evenly spaced indices to keep tests fast.
    const std::size_t n = target.size();
    const std::size_t step = std::max<std::size_t>(1, n / 24);
    for (std::size_t i = 0; i < n; i += step) {
      const double lp = loss_at(i, kEps);
      const double lm = loss_at(i, -kEps);
      const double numeric = (lp - lm) / (2 * kEps);
      const double a = analytic[i];
      const double denom = std::max({std::abs(numeric), std::abs(a), 1.0});
      EXPECT_NEAR(a / denom, numeric / denom, kTol)
          << what << " grad mismatch at index " << i << ": analytic " << a
          << " numeric " << numeric;
    }
  }
};

TEST(Dense, ForwardMatchesManual) {
  util::Rng rng(1);
  Dense d(2, 2, rng);
  // Overwrite weights with known values: W = [[1,2],[3,4]], b = [0.5, -0.5].
  Param* w = d.params()[0];
  Param* b = d.params()[1];
  w->value[0] = 1;
  w->value[1] = 2;
  w->value[2] = 3;
  w->value[3] = 4;
  b->value[0] = 0.5f;
  b->value[1] = -0.5f;
  Tensor x({1, 2});
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = -1.0f;
  const Tensor y = d.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 * 1 + 2 * -1 + 0.5f);   // -0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 3 * 1 + 4 * -1 - 0.5f);   // -1.5
}

TEST(Dense, RejectsBadShapes) {
  util::Rng rng(1);
  Dense d(4, 3, rng);
  EXPECT_THROW(d.forward(Tensor({2, 5}), false), std::invalid_argument);
  EXPECT_THROW(Dense(0, 3, rng), std::invalid_argument);
}

TEST(Dense, GradientCheck) {
  util::Rng rng(2);
  Dense d(5, 4, rng);
  GradCheck::run(d, random_tensor({3, 5}, rng), rng);
}

TEST(ReLU, ForwardZeroesNegatives) {
  ReLU r;
  Tensor x({1, 4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -0.5;
  const Tensor y = r.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  EXPECT_FLOAT_EQ(y[3], 0);
}

TEST(ReLU, GradientCheck) {
  util::Rng rng(3);
  ReLU r;
  // Keep inputs away from the kink at 0 for numeric stability.
  Tensor x = random_tensor({2, 6}, rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  GradCheck::run(r, x, rng);
}

TEST(Tanh, ForwardAndGradient) {
  util::Rng rng(4);
  Tanh t;
  Tensor x({1, 3});
  x[0] = 0;
  x[1] = 1;
  x[2] = -1;
  const Tensor y = t.forward(x, false);
  EXPECT_NEAR(y[0], 0.0, 1e-6);
  EXPECT_NEAR(y[1], std::tanh(1.0), 1e-6);
  GradCheck::run(t, random_tensor({2, 5}, rng), rng);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4, 5});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = f.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  const Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
  EXPECT_EQ(back[17], x[17]);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout d(0.5, util::Rng(5));
  Tensor x({4, 4}, 1.0f);
  const Tensor y = d.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0f);
}

TEST(Dropout, TrainDropsAndRescales) {
  Dropout d(0.5, util::Rng(6));
  Tensor x({100, 100}, 1.0f);
  const Tensor y = d.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  const double ratio = static_cast<double>(zeros) / y.size();
  EXPECT_NEAR(ratio, 0.5, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5, util::Rng(7));
  Tensor x({10, 10}, 1.0f);
  const Tensor y = d.forward(x, true);
  Tensor g({10, 10}, 1.0f);
  const Tensor gx = d.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(gx[i], y[i]);  // same mask, same scaling
  }
}

TEST(Dropout, RejectsBadP) {
  EXPECT_THROW(Dropout(1.0, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(Dropout(std::numeric_limits<double>::quiet_NaN(), util::Rng(1)),
               std::invalid_argument);
}

TEST(Conv2D, OutputShape) {
  util::Rng rng(8);
  Conv2D c(1, 8, 3, 2, rng);
  const Tensor y = c.forward(Tensor({2, 1, 24, 32}), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 11, 15}));
}

TEST(Conv2D, KnownSmallCase) {
  util::Rng rng(9);
  Conv2D c(1, 1, 2, 1, rng);
  Param* w = c.params()[0];
  Param* b = c.params()[1];
  // 2x2 kernel of ones, bias 1.
  for (std::size_t i = 0; i < 4; ++i) w->value[i] = 1.0f;
  b->value[0] = 1.0f;
  Tensor x({1, 1, 2, 3});
  for (std::size_t i = 0; i < 6; ++i) x[i] = static_cast<float>(i + 1);
  // x = [1 2 3; 4 5 6]; windows: [1,2,4,5]=12, [2,3,5,6]=16; +1 bias.
  const Tensor y = c.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 13.0f);
  EXPECT_FLOAT_EQ(y[1], 17.0f);
}

TEST(Conv2D, GradientCheck) {
  util::Rng rng(10);
  Conv2D c(2, 3, 3, 2, rng);
  GradCheck::run(c, random_tensor({2, 2, 7, 9}, rng), rng);
}

TEST(Conv2D, RejectsTooSmallInput) {
  util::Rng rng(11);
  Conv2D c(1, 1, 5, 1, rng);
  EXPECT_THROW(c.forward(Tensor({1, 1, 3, 3}), false), std::invalid_argument);
}

TEST(MaxPool2D, ForwardSelectsMax) {
  MaxPool2D p;
  Tensor x({1, 1, 2, 4});
  const float vals[] = {1, 5, 2, 0, 3, 4, 8, 7};
  for (std::size_t i = 0; i < 8; ++i) x[i] = vals[i];
  const Tensor y = p.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D p;
  Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 9;
  x[2] = 3;
  x[3] = 2;
  p.forward(x, false);
  Tensor g({1, 1, 1, 1}, 2.5f);
  const Tensor gx = p.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);
  EXPECT_FLOAT_EQ(gx[2], 0);
  EXPECT_FLOAT_EQ(gx[3], 0);
}

TEST(Conv3D, OutputShape) {
  util::Rng rng(12);
  Conv3D c(1, 8, 2, 3, 1, 2, rng);
  const Tensor y = c.forward(Tensor({2, 1, 3, 24, 32}), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 2, 11, 15}));
}

TEST(Conv3D, GradientCheck) {
  util::Rng rng(13);
  Conv3D c(1, 2, 2, 3, 1, 2, rng);
  GradCheck::run(c, random_tensor({2, 1, 3, 7, 9}, rng), rng);
}

TEST(Conv, BackwardBeforeForwardThrows) {
  // Backward reads the input shape its forward recorded; with none there
  // is nothing to differentiate.
  util::Rng rng(17);
  Conv2D c2(1, 2, 3, 1, rng);
  EXPECT_THROW(c2.backward(Tensor({1, 2, 2, 2})), std::logic_error);
  Conv3D c3(1, 2, 2, 3, 1, 2, rng);
  EXPECT_THROW(c3.backward(Tensor({1, 2, 1, 2, 2})), std::logic_error);
}

TEST(Conv, ForwardWritesNoPatchMatrix) {
  // The forward is one implicit GEMM; only backward gathers the patch
  // matrix, from the input its forward kept.
  util::Rng rng(19);
  Conv2D c2(2, 3, 3, 2, rng);
  Conv3D c3(2, 3, 2, 3, 1, 2, rng);
  const std::pair<Conv*, Tensor> runs[] = {
      {&c2, random_tensor({4, 2, 9, 11}, rng)},
      {&c3, random_tensor({4, 2, 3, 9, 11}, rng)}};
  for (const auto& [conv, x] : runs) {
    const std::uint64_t before = kernel_counters().im2col_elems;
    const Tensor y = conv->forward(x, /*train=*/true);
    EXPECT_EQ(kernel_counters().im2col_elems, before) << conv->name();
    conv->backward(random_tensor(y.shape(), rng));
    const ConvGeometry& g = conv->geometry();
    EXPECT_EQ(kernel_counters().im2col_elems - before,
              g.patch_rows() * x.dim(0) * g.volumes(x.shape()).positions())
        << conv->name();
  }
}

TEST(Conv, RejectsZeroParameters) {
  // One constructor checks every channel count, kernel size and stride of
  // both convs.
  util::Rng rng(18);
  EXPECT_THROW(Conv2D(0, 2, 3, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2D(1, 2, 3, 0, rng), std::invalid_argument);
  EXPECT_THROW(Conv3D(0, 2, 2, 3, 1, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv3D(1, 0, 2, 3, 1, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv3D(1, 2, 0, 3, 1, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv3D(1, 2, 2, 3, 0, 2, rng), std::invalid_argument);
}

TEST(LSTM, OutputShapeAndDeterminism) {
  util::Rng rng(14);
  LSTM l(6, 4, rng);
  util::Rng data_rng(15);
  const Tensor x = random_tensor({3, 5, 6}, data_rng);
  const Tensor h1 = l.forward(x, false);
  const Tensor h2 = l.forward(x, false);
  EXPECT_EQ(h1.shape(), (std::vector<std::size_t>{3, 4}));
  for (std::size_t i = 0; i < h1.size(); ++i) EXPECT_FLOAT_EQ(h1[i], h2[i]);
}

TEST(LSTM, GradientCheck) {
  util::Rng rng(16);
  LSTM l(4, 3, rng);
  GradCheck::run(l, random_tensor({2, 3, 4}, rng, 0.5), rng);
}

TEST(LSTM, HiddenBoundedByTanh) {
  util::Rng rng(17);
  LSTM l(4, 8, rng);
  const Tensor h = l.forward(random_tensor({4, 6, 4}, rng, 3.0), false);
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_LT(std::abs(h[i]), 1.0f);
  }
}

TEST(LSTM, BackwardBeforeForwardThrows) {
  // Backward reads the input and states its forward kept; with none there
  // is nothing to differentiate. The error says so, not that a
  // well-shaped gradient has the wrong shape.
  util::Rng rng(19);
  LSTM l(4, 3, rng);
  try {
    l.backward(Tensor({2, 3}));
    ADD_FAILURE() << "backward before forward returned";
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "a shape error, not a missing forward: " << e.what();
  } catch (const std::logic_error&) {
  }
}

TEST(LSTM, RejectsBadInput) {
  util::Rng rng(18);
  LSTM l(4, 3, rng);
  EXPECT_THROW(l.forward(Tensor({2, 4}), false), std::invalid_argument);
  EXPECT_THROW(l.forward(Tensor({2, 3, 5}), false), std::invalid_argument);
}

}  // namespace
}  // namespace autolearn::ml
