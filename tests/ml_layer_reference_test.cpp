// Holds Conv and LSTM to a test-side copy of their earlier lowering
// (layer_reference.hpp), bit for bit: the output, dX and every parameter
// gradient (dW and db; dWx, dWh and db for the LSTM), accumulated over
// batches of 1, 5 and 9 rows under 1-, 3- and 4-worker pools. Each layer
// also runs inside a compiled plan, whose step calls the same kernel as
// the layer's forward (with a fused ReLU for the conv), and the plan's
// output is held to the reference too. PlanOracle compares two callers of
// one kernel, and the numeric gradient checks in ml_layers_test have a
// tolerance, so neither can see a kernel that changes rounding alone;
// these tests can. Selected by `ctest -L plan` and `ctest -L ml`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "layer_reference.hpp"
#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/lstm.hpp"
#include "ml/plan.hpp"
#include "ml/sequential.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

constexpr std::size_t kCap = 9;
constexpr std::size_t kRows[] = {1, 5, kCap};

/// Fails at the first element whose bits differ.
void expect_bitwise(const float* got, const float* want, std::size_t size,
                    const std::string& what) {
  for (std::size_t i = 0; i < size; ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      ADD_FAILURE() << what << ": elem " << i << " is " << got[i]
                    << ", the reference " << want[i];
      return;
    }
  }
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  expect_bitwise(got.data(), want.data(), got.size(), what);
}

Tensor uniform(std::vector<std::size_t> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

std::vector<std::size_t> with_rows(std::size_t rows,
                                   const std::vector<std::size_t>& row_shape) {
  std::vector<std::size_t> shape = {rows};
  shape.insert(shape.end(), row_shape.begin(), row_shape.end());
  return shape;
}

// --- Conv ------------------------------------------------------------------

/// One conv layer and its per-row input shape [C, (D,) H, W].
struct ConvCase {
  const char* name;
  ConvGeometry g;
  std::vector<std::size_t> row_shape;
};

ConvGeometry conv2d(std::size_t ic, std::size_t oc, std::size_t k,
                    std::size_t s) {
  return {ic, oc, 1, k, 1, s, false};
}

std::vector<ConvCase> conv_cases() {
  return {
      // The conv layers of PlanConvShapes' hand-built nets (ml_plan_test).
      {"K288Oc5", conv2d(32, 5, 3, 1), {32, 6, 7}},
      {"Stride1", conv2d(2, 8, 3, 1), {2, 9, 10}},
      {"Stride1Second", conv2d(8, 9, 2, 1), {8, 7, 8}},
      {"Stride3", conv2d(3, 10, 2, 3), {3, 11, 14}},
      {"FourPositions", conv2d(4, 6, 3, 2), {4, 5, 5}},
      {"Conv3dDepthStride2", {2, 7, 2, 3, 2, 1, true}, {2, 5, 6, 7}},
      {"NoRelu", conv2d(3, 12, 3, 2), {3, 8, 9}},
      {"ConvLastFirst", conv2d(1, 8, 3, 2), {1, 12, 16}},
      {"ConvLast", conv2d(8, 3, 3, 1), {8, 5, 7}},
      // The zoo's convs on its default 24x32 frames: the shared encoder,
      // the inferred model's pair and the 3d model's frame-stack pair.
      {"Encoder1", conv2d(1, 8, 3, 2), {1, 24, 32}},
      {"Encoder2", conv2d(8, 16, 3, 2), {8, 11, 15}},
      {"Encoder3", conv2d(16, 32, 3, 2), {16, 5, 7}},
      {"Inferred1", conv2d(1, 4, 3, 2), {1, 24, 32}},
      {"Inferred2", conv2d(4, 8, 3, 2), {4, 11, 15}},
      {"Conv3d1", {1, 8, 2, 3, 1, 2, true}, {1, 3, 24, 32}},
      {"Conv3d2", {8, 16, 2, 3, 1, 2, true}, {8, 2, 11, 15}},
  };
}

class ConvReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ConvReference, KernelAndGradientsMatchLowering) {
  const auto [case_index, workers] = GetParam();
  const ConvCase c = conv_cases()[case_index];
  util::ThreadPool pool(workers);
  util::ThreadPool::ScopedOverride use(pool);
  util::Rng rng(29);
  Sequential net;
  const ConvGeometry& g = c.g;
  if (g.depth_axis) {
    net.add<Conv3D>(g.in_channels, g.out_channels, g.kernel_d, g.kernel,
                    g.stride_d, g.stride, rng);
  } else {
    net.add<Conv2D>(g.in_channels, g.out_channels, g.kernel, g.stride, rng);
  }
  net.add<ReLU>();
  Layer& conv = net.layer(0);
  Param& w = *conv.params()[0];
  Param& b = *conv.params()[1];
  // Training starts from a zero bias; a random one also tests the bias add.
  util::Rng data_rng(31);
  b.value = uniform(b.value.shape(), data_rng);
  CompiledNet plan(net, c.row_shape, kCap);
  ASSERT_EQ(plan.stats().fused_activations, 1u);
  Tensor ref_dw = Tensor::zeros_like(w.value);
  Tensor ref_db = Tensor::zeros_like(b.value);
  for (std::size_t rows : kRows) {
    const std::string at = std::string(c.name) + " rows " +
                           std::to_string(rows) + " workers " +
                           std::to_string(workers);
    const Tensor x = uniform(with_rows(rows, c.row_shape), data_rng);
    const Tensor want = reference::conv_forward(g, w.value, b.value, x);
    expect_bitwise(conv.forward(x, /*train=*/true), want, "y " + at);

    std::copy(x.data(), x.data() + x.size(), plan.input());
    const float* fused = plan.run(rows);
    Tensor want_relu = want;
    for (std::size_t i = 0; i < want_relu.size(); ++i) {
      want_relu[i] = want_relu[i] > 0.0f ? want_relu[i] : 0.0f;
    }
    ASSERT_EQ(rows * plan.out_row_elems(), want_relu.size());
    expect_bitwise(fused, want_relu.data(), want_relu.size(),
                   "plan y " + at);

    const Tensor grad_out = uniform(want.shape(), data_rng);
    const Tensor dx = conv.backward(grad_out);
    const Tensor want_dx =
        reference::conv_backward(g, w.value, x, grad_out, ref_dw, ref_db);
    expect_bitwise(dx, want_dx, "dx " + at);
    expect_bitwise(w.grad, ref_dw, "dw " + at);
    expect_bitwise(b.grad, ref_db, "db " + at);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConvShapes, ConvReference,
    ::testing::Combine(::testing::Range<std::size_t>(0, conv_cases().size()),
                       ::testing::Values<std::size_t>(1, 3, 4)),
    [](const auto& info) {
      return std::string(conv_cases()[std::get<0>(info.param)].name) +
             "_Workers" + std::to_string(std::get<1>(info.param));
    });

// --- LSTM ------------------------------------------------------------------

struct LstmCase {
  const char* name;
  std::size_t d, h, t;
};

std::vector<LstmCase> lstm_cases() {
  return {
      {"D4H3T1", 4, 3, 1},
      {"D6H4T5", 6, 4, 5},
      // The rnn model's head: 192 encoder features, 32 units, 3 frames.
      {"RnnD192H32T3", 192, 32, 3},
  };
}

class LstmReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(LstmReference, StepAndGradientsMatchStepCache) {
  const auto [case_index, workers] = GetParam();
  const LstmCase c = lstm_cases()[case_index];
  util::ThreadPool pool(workers);
  util::ThreadPool::ScopedOverride use(pool);
  util::Rng rng(37);
  Sequential net;
  LSTM& lstm = net.add<LSTM>(c.d, c.h, rng);
  CompiledNet plan(net, {c.t, c.d}, kCap);
  const std::vector<Param*> params = lstm.params();
  Param& wx = *params[0];
  Param& wh = *params[1];
  Param& b = *params[2];
  reference::Lstm ref(wx.value, wh.value, b.value);
  Tensor ref_dwx = Tensor::zeros_like(wx.value);
  Tensor ref_dwh = Tensor::zeros_like(wh.value);
  Tensor ref_db = Tensor::zeros_like(b.value);
  util::Rng data_rng(41);
  for (std::size_t rows : kRows) {
    const std::string at = std::string(c.name) + " rows " +
                           std::to_string(rows) + " workers " +
                           std::to_string(workers);
    const Tensor x = uniform({rows, c.t, c.d}, data_rng);
    const Tensor want = ref.forward(x);
    expect_bitwise(lstm.forward(x, /*train=*/true), want, "h " + at);

    std::copy(x.data(), x.data() + x.size(), plan.input());
    const float* planned = plan.run(rows);
    ASSERT_EQ(rows * plan.out_row_elems(), want.size());
    expect_bitwise(planned, want.data(), want.size(), "plan h " + at);

    const Tensor grad_out = uniform(want.shape(), data_rng);
    const Tensor dx = lstm.backward(grad_out);
    const Tensor want_dx = ref.backward(grad_out, ref_dwx, ref_dwh, ref_db);
    expect_bitwise(dx, want_dx, "dx " + at);
    expect_bitwise(wx.grad, ref_dwx, "dwx " + at);
    expect_bitwise(wh.grad, ref_dwh, "dwh " + at);
    expect_bitwise(b.grad, ref_db, "db " + at);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LstmShapes, LstmReference,
    ::testing::Combine(::testing::Range<std::size_t>(0, lstm_cases().size()),
                       ::testing::Values<std::size_t>(1, 3, 4)),
    [](const auto& info) {
      return std::string(lstm_cases()[std::get<0>(info.param)].name) +
             "_Workers" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace autolearn::ml
