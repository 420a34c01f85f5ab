// Zero-allocation guarantee for the compiled forward path. This binary —
// and only this binary — links tests/alloc_hooks.cpp, whose operator
// new/delete overrides tick util::allocation_count(). A fresh model's
// first predict_batch compiles its plan and allocates (asserted, so the
// hooks are proven live); every later predict_batch, over-cap chunked
// batches included, must perform ZERO heap allocations. So must a pool
// region and the conv gather/scatter the int8 plan runs through it.
// Selected by `ctest -L plan`.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "camera/image.hpp"
#include "ml/conv.hpp"
#include "ml/driving_model.hpp"
#include "ml/quant_model.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

// Above the default plan cap of 32, so the largest batch runs as 32 + 8.
constexpr std::size_t kRows = 40;

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

TEST(AllocHooks, CountAllocations) {
  util::AllocCounterScope scope;
  auto* p = new int(42);
  EXPECT_GE(scope.delta(), 1u);
  delete p;
}

TEST(RegionZeroAlloc, GatherScatterAndWideCapturesAllocateNothing) {
  // A single-worker pool runs every region inline, so the count is exact.
  util::ThreadPool pool(1);
  util::ThreadPool::ScopedOverride override_pool(pool);

  const ConvGeometry g{2, 3, 1, 3, 1, 2, false};  // 2 -> 3 channels, 3x3/2
  const std::size_t n = 4;
  const ConvGeometry::Volumes v = g.volumes({n, 2, 9, 11});
  const std::size_t np = n * v.positions();
  const std::vector<float> x(n * 2 * 9 * 11, 0.5f), bias(3, 0.125f);
  const std::vector<float> yall(3 * np, -0.25f);
  std::vector<float> col(g.patch_rows() * np), y(3 * np);
  // 32 bytes captured by value plus a reference: past the 16 bytes a
  // std::function holds without allocating.
  const std::array<std::size_t, 4> wide{1, 2, 3, 4};
  std::size_t sum = 0;

  util::AllocCounterScope scope;
  g.gather(x.data(), n, v, col.data());
  g.scatter(yall.data(), bias.data(), n, v, y.data(), /*relu=*/false);
  g.scatter(yall.data(), bias.data(), n, v, y.data(), /*relu=*/true);
  pool.parallel_for_chunks(0, n, [wide, &sum](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += wide[i];
  });
  const std::size_t allocs = scope.delta();
  EXPECT_EQ(allocs, 0u) << "a pool region heap-allocated";
  EXPECT_EQ(sum, 10u);
  EXPECT_EQ(col[0], 0.5f);
  EXPECT_EQ(y[0], 0.0f);  // -0.25 + 0.125 through the fused ReLU
}

class PlanZeroAlloc : public ::testing::TestWithParam<ModelType> {};

TEST_P(PlanZeroAlloc, SteadyStatePredictBatchIsAllocationFree) {
  // Single-worker pool: every pool region runs inline on the caller, so
  // the measurement excludes worker-thread scheduling noise. (A region on
  // more workers is also allocation-free — chunks are claimed from
  // pool-resident state — but worker wakeups make the count racy to read.)
  util::ThreadPool pool(1);
  util::ThreadPool::ScopedOverride override_pool(pool);

  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, kRows, 17);
  std::vector<Prediction> out(kRows);

  // The first call compiles the plan (and faults in lazily-initialized
  // kernel state), which allocates — proves the hooks are live before we
  // assert a zero.
  {
    util::AllocCounterScope compile;
    model->predict_batch(samples.data(), kRows, out.data());
    EXPECT_GT(compile.delta(), 0u) << "alloc hooks not linked?";
  }

  util::AllocCounterScope scope;
  model->predict_batch(samples.data(), kRows, out.data());  // chunked
  model->predict_batch(samples.data(), 8, out.data());
  model->predict_batch(samples.data(), 3, out.data());  // ragged tail too
  model->predict_batch(samples.data(), 1, out.data());
  EXPECT_EQ(scope.delta(), 0u)
      << "compiled predict_batch heap-allocated in steady state";
}

TEST_P(PlanZeroAlloc, Int8SteadyStateIsAllocationFree) {
  util::ThreadPool pool(1);
  util::ThreadPool::ScopedOverride override_pool(pool);

  ModelConfig cfg;
  const auto fp32 = make_model(GetParam(), cfg);
  const auto calibration = make_samples(cfg, 4, 29);
  const auto model = quantize_model(*fp32, cfg, calibration);
  const auto samples = make_samples(cfg, kRows, 17);
  std::vector<Prediction> out(kRows);

  model->predict_batch(samples.data(), kRows, out.data());  // compiles

  util::AllocCounterScope scope;
  model->predict_batch(samples.data(), kRows, out.data());
  model->predict_batch(samples.data(), 5, out.data());
  EXPECT_EQ(scope.delta(), 0u)
      << "compiled int8 predict_batch heap-allocated in steady state";
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, PlanZeroAlloc,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace autolearn::ml
