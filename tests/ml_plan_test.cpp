// Oracle for the graph-compiled forward path, the only way a zoo model
// predicts: for every model in the six-type zoo, fp32 AND int8, each
// Sequential compiled as a standalone CompiledNet must reproduce
// Sequential::forward(x, false) BITWISE at 1 row, at a ragged row count
// and at the full cap, and count the FLOPs of one row as a test-side sum
// over the layers' geometry does (tests/flops_reference.hpp). Plus lazy
// compilation, over-cap chunking, the typed compile-failure contract
// (PlanError, never a crash) and the arena-sharing accounting. Selected by
// `ctest -L plan`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "camera/image.hpp"
#include "flops_reference.hpp"
#include "ml/conv.hpp"
#include "ml/driving_model.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/plan.hpp"
#include "ml/quant_model.hpp"
#include "ml/sequential.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

constexpr std::size_t kMaxBatch = 8;

std::vector<Sample> make_samples(const ModelConfig& cfg, std::size_t n,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) {
      camera::Image img(cfg.img_w, cfg.img_h);
      for (float& px : img.pixels()) {
        px = static_cast<float>(rng.uniform(0.0, 1.0));
      }
      s.frames.push_back(std::move(img));
    }
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      s.history.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      s.history.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Per-row input shape and row cap of one of a model's nets.
struct NetInput {
  std::vector<std::size_t> row_shape;
  std::size_t max_rows;
};

/// The inputs of a zoo model's nets, in mutable_nets() order, derived from
/// the ModelConfig alone: the standard encoder's features feed the memory
/// and rnn heads, and the rnn encoder folds time into its rows.
std::vector<NetInput> net_inputs(ModelType type, const ModelConfig& cfg,
                                 std::size_t cap) {
  auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
  const std::size_t features =
      32 * conv(conv(conv(cfg.img_h))) * conv(conv(conv(cfg.img_w)));
  const std::vector<std::size_t> frame = {1, cfg.img_h, cfg.img_w};
  switch (type) {
    case ModelType::Memory:
      return {{frame, cap}, {{features + 2 * cfg.history_len}, cap}};
    case ModelType::Rnn:
      return {{frame, cap * cfg.seq_len}, {{cfg.seq_len, features}, cap}};
    case ModelType::Conv3d:
      return {{{1, cfg.seq_len, cfg.img_h, cfg.img_w}, cap}};
    default:
      return {{frame, cap}};
  }
}

/// Compiles every net of `model` on its own and checks it against the
/// layer walk on the same random input, bit for bit, at 1 row, 5 rows and
/// the net's row cap, and its FLOPs against the test-side count.
void expect_nets_match_forward(DrivingModel& model, ModelType type,
                               const ModelConfig& cfg) {
  const std::vector<Sequential*> nets = model.mutable_nets();
  const std::vector<NetInput> inputs = net_inputs(type, cfg, kMaxBatch);
  ASSERT_EQ(nets.size(), inputs.size());
  util::Rng rng(17);
  for (std::size_t k = 0; k < nets.size(); ++k) {
    const NetInput& in = inputs[k];
    CompiledNet plan(*nets[k], in.row_shape, in.max_rows);
    for (std::size_t rows : {std::size_t{1}, std::size_t{5}, in.max_rows}) {
      std::vector<std::size_t> shape = {rows};
      shape.insert(shape.end(), in.row_shape.begin(), in.row_shape.end());
      Tensor x(shape);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
      }
      const Tensor ref = nets[k]->forward(x, /*train=*/false);
      std::copy(x.data(), x.data() + x.size(), plan.input());
      const float* got = plan.run(rows);
      ASSERT_EQ(ref.size(), rows * plan.out_row_elems());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[i]),
                  std::bit_cast<std::uint32_t>(got[i]))
            << "net " << k << " rows " << rows << " elem " << i;
      }
    }
    EXPECT_EQ(plan.stats().flops, reference::net_flops(*nets[k], in.row_shape))
        << "net " << k;
  }
}

void expect_same_predictions(const std::vector<Prediction>& ref,
                             const std::vector<Prediction>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].steering, got[i].steering) << "row " << i;
    EXPECT_EQ(ref[i].throttle, got[i].throttle) << "row " << i;
  }
}

class PlanOracle : public ::testing::TestWithParam<ModelType> {};

TEST_P(PlanOracle, Fp32BitwiseAtAllBatchSizes) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  expect_nets_match_forward(*model, GetParam(), cfg);
}

TEST_P(PlanOracle, Int8BitwiseAtAllBatchSizes) {
  ModelConfig cfg;
  const auto fp32 = make_model(GetParam(), cfg);
  const auto calibration = make_samples(cfg, 4, 29);
  const auto model = quantize_model(*fp32, cfg, calibration);
  ASSERT_EQ(model->precision(), Precision::Int8);
  expect_nets_match_forward(model->inner(), GetParam(), cfg);
}

TEST_P(PlanOracle, RepeatedRunsAreDeterministic) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  const auto samples = make_samples(cfg, kMaxBatch, 41);
  std::vector<Prediction> first(kMaxBatch), second(kMaxBatch);
  model->predict_batch(samples.data(), kMaxBatch, first.data());
  model->predict_batch(samples.data(), kMaxBatch, second.data());
  expect_same_predictions(first, second);
}

TEST_P(PlanOracle, FirstPredictCompilesAtTheLastCap) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, 1, 47);
  EXPECT_EQ(model->plan(), nullptr);
  model->predict(samples[0]);
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), 32u);  // the default cap
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  model->detach_plan();
  EXPECT_EQ(model->plan(), nullptr);
  model->predict(samples[0]);
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), kMaxBatch);
}

// The test keeps its original name so its history stays traceable. An
// over-cap batch runs as cap-sized chunks through the plan (here 8 + 3),
// which must reproduce row-by-row predict bit for bit.
TEST_P(PlanOracle, OverCapBatchFallsBackToInterpreted) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  const std::size_t n = kMaxBatch + 3;
  const auto samples = make_samples(cfg, n, 53);
  std::vector<Prediction> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = model->predict(samples[i]);
  std::vector<Prediction> got(n);
  model->predict_batch(samples.data(), n, got.data());
  expect_same_predictions(ref, got);
  EXPECT_EQ(model->plan()->max_batch(), kMaxBatch);
}

TEST_P(PlanOracle, AttachIsIdempotentForMatchingCap) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  CompiledModel* first = model->plan();
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  EXPECT_EQ(model->plan(), first);  // no recompile, same plan object
  // A different cap DOES recompile.
  ASSERT_TRUE(model->attach_plan(kMaxBatch * 2));
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), kMaxBatch * 2);
}

TEST_P(PlanOracle, ArenaSharingBeatsNaiveSum) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  const PlanStats stats = model->plan()->stats();
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.arena_floats, 0u);
  // Liveness-based slot sharing must never do worse than giving every
  // intermediate its own buffer.
  EXPECT_LE(stats.arena_floats, stats.naive_floats);
}

TEST_P(PlanOracle, SaveLoadReattachKeepsBitwiseIdentity) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, kMaxBatch, 61);
  std::ostringstream saved;
  model->save(saved);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  // The plan holds raw parameter pointers, so load() drops it and the
  // next predict rebuilds it at the same cap.
  std::istringstream restore(saved.str());
  model->load(restore);
  EXPECT_EQ(model->plan(), nullptr);
  const auto twin = make_model(GetParam(), cfg);
  std::istringstream restore2(saved.str());
  twin->load(restore2);
  std::vector<Prediction> ref(kMaxBatch), got(kMaxBatch);
  twin->predict_batch(samples.data(), kMaxBatch, ref.data());
  model->predict_batch(samples.data(), kMaxBatch, got.data());
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), kMaxBatch);
  expect_same_predictions(ref, got);
}

// The fp32 conv step reads its patch elements straight from the input,
// so a predict writes no patch matrix; it still counts one GEMM per conv.
TEST_P(PlanOracle, Fp32PredictWritesNoPatchMatrix) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  ASSERT_TRUE(model->attach_plan(kMaxBatch));
  const auto samples = make_samples(cfg, kMaxBatch, 67);
  std::vector<Prediction> out(kMaxBatch);
  const KernelCounters before = kernel_counters();
  model->predict_batch(samples.data(), kMaxBatch, out.data());
  const KernelCounters after = kernel_counters();
  EXPECT_EQ(after.im2col_elems, before.im2col_elems);
  EXPECT_GT(after.gemm_calls, before.gemm_calls);
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, PlanOracle,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- typed compile/execute failures -------------------------------------

TEST(PlanErrors, EmptyModelThrowsTyped) {
  Sequential net;
  try {
    CompiledNet plan(net, {4}, 8);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.code(), PlanError::Code::EmptyModel);
  }
}

TEST(PlanErrors, NullLayerSlotThrowsTypedNotCrash) {
  util::Rng rng(7);
  Sequential net;
  net.add<Dense>(4, 2, rng);
  // Mid-swap state: the slot transiently holds null.
  auto old = net.swap_layer(0, nullptr);
  try {
    CompiledNet plan(net, {4}, 8);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.code(), PlanError::Code::NullLayer);
  }
  net.swap_layer(0, std::move(old));  // restore; compile now succeeds
  CompiledNet plan(net, {4}, 8);
  EXPECT_EQ(plan.out_row_elems(), 2u);
}

TEST(PlanErrors, UnsupportedLayerNamesTheLayer) {
  Sequential net;
  net.add<MaxPool2D>();
  try {
    CompiledNet plan(net, {1, 8, 8}, 4);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.code(), PlanError::Code::UnsupportedLayer);
    EXPECT_NE(std::string(e.what()).find("maxpool2d"), std::string::npos);
  }
}

TEST(PlanErrors, BadBatchOnZeroCapAndOutOfRangeRows) {
  EXPECT_THROW(CompiledModel model(0), PlanError);
  util::Rng rng(7);
  Sequential net;
  net.add<Dense>(4, 2, rng);
  CompiledNet plan(net, {4}, 8);
  EXPECT_THROW(plan.run(0), PlanError);
  EXPECT_THROW(plan.run(9), PlanError);
}

TEST(PlanErrors, DirectNetBitwiseMatchesSequentialForward) {
  util::Rng rng(11);
  Sequential net;
  net.add<Dense>(6, 8, rng);
  net.add<ReLU>();
  net.add<Dense>(8, 2, rng);
  net.add<Tanh>();
  CompiledNet plan(net, {6}, 4);
  util::Rng data_rng(13);
  Tensor x({3, 6});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
  }
  const Tensor ref = net.forward(x, /*train=*/false);
  std::copy(x.data(), x.data() + x.size(), plan.input());
  const float* got = plan.run(3);
  ASSERT_EQ(ref.size(), 3u * plan.out_row_elems());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "elem " << i;
  }
}

// --- conv shapes no zoo model has ----------------------------------------

/// A hand-built net and its per-row input shape.
struct ConvNetCase {
  const char* name;
  std::vector<std::size_t> row_shape;
  std::function<void(Sequential&, util::Rng&)> build;
};

std::vector<ConvNetCase> conv_net_cases() {
  return {
      // K = 32*3*3 = 288 > KC = 256 (two reduction blocks); 5 channels
      // fill no 8-channel tile.
      {"K288Oc5", {32, 6, 7},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv2D>(32, 5, 3, 1, rng);
         net.add<ReLU>();
         net.add<Flatten>();
         net.add<Dense>(5 * 4 * 5, 3, rng);
       }},
      {"Stride1", {2, 9, 10},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv2D>(2, 8, 3, 1, rng);
         net.add<ReLU>();
         net.add<Conv2D>(8, 9, 2, 1, rng);
         net.add<ReLU>();
       }},
      {"Stride3", {3, 11, 14},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv2D>(3, 10, 2, 3, rng);
         net.add<ReLU>();
         net.add<Flatten>();
         net.add<Dense>(10 * 4 * 5, 2, rng);
       }},
      // P = 2*2 = 4 positions: fewer than one tile's width.
      {"FourPositions", {4, 5, 5},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv2D>(4, 6, 3, 2, rng);
         net.add<ReLU>();
         net.add<Flatten>();
         net.add<Dense>(6 * 4, 2, rng);
       }},
      {"Conv3dDepthStride2", {2, 5, 6, 7},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv3D>(2, 7, 2, 3, 2, 1, rng);
         net.add<ReLU>();
         net.add<Flatten>();
         net.add<Dense>(7 * 2 * 4 * 5, 2, rng);
       }},
      {"NoRelu", {3, 8, 9},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv2D>(3, 12, 3, 2, rng);
         net.add<Tanh>();
         net.add<Flatten>();
         net.add<Dense>(12 * 3 * 4, 2, rng);
       }},
      // Last layer, no activation: the plan's output is the conv's.
      {"ConvLast", {1, 12, 16},
       [](Sequential& net, util::Rng& rng) {
         net.add<Conv2D>(1, 8, 3, 2, rng);
         net.add<ReLU>();
         net.add<Conv2D>(8, 3, 3, 1, rng);
       }},
  };
}

class PlanConvShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

// Each net compiled alone must reproduce Sequential::forward bit for bit at
// 1 row, 5 rows and the cap, whatever the pool's worker count, and count
// the FLOPs of one row as the test-side sum does.
TEST_P(PlanConvShapes, BitwiseMatchesSequentialForward) {
  const auto [case_index, workers] = GetParam();
  const ConvNetCase c = conv_net_cases()[case_index];
  util::ThreadPool pool(workers);
  util::ThreadPool::ScopedOverride use(pool);
  util::Rng rng(19);
  Sequential net;
  c.build(net, rng);
  constexpr std::size_t kCap = 9;
  CompiledNet plan(net, c.row_shape, kCap);
  util::Rng data_rng(23);
  for (std::size_t rows : {std::size_t{1}, std::size_t{5}, kCap}) {
    std::vector<std::size_t> shape = {rows};
    shape.insert(shape.end(), c.row_shape.begin(), c.row_shape.end());
    Tensor x(shape);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    }
    const Tensor ref = net.forward(x, /*train=*/false);
    std::copy(x.data(), x.data() + x.size(), plan.input());
    const float* got = plan.run(rows);
    ASSERT_EQ(ref.size(), rows * plan.out_row_elems());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[i]),
                std::bit_cast<std::uint32_t>(got[i]))
          << c.name << " rows " << rows << " elem " << i;
    }
  }
  EXPECT_EQ(plan.stats().flops, reference::net_flops(net, c.row_shape));
}

INSTANTIATE_TEST_SUITE_P(
    HandBuiltNets, PlanConvShapes,
    ::testing::Combine(::testing::Range<std::size_t>(0, 7),
                       ::testing::Values<std::size_t>(1, 3, 4)),
    [](const auto& info) {
      return std::string(conv_net_cases()[std::get<0>(info.param)].name) +
             "_Workers" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace autolearn::ml
