// Zero-allocation guarantee for the compiled forward path. This binary —
// and only this binary — links tests/alloc_hooks.cpp, whose operator
// new/delete overrides tick util::allocation_count(). A fresh model's
// first predict_batch compiles its plan and allocates (asserted, so the
// hooks are proven live); every later predict_batch, over-cap chunked
// batches included, must perform ZERO heap allocations. Selected by
// `ctest -L plan`.
#include <gtest/gtest.h>

#include <vector>

#include "camera/image.hpp"
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

class PlanZeroAlloc : public ::testing::TestWithParam<ModelType> {};

TEST_P(PlanZeroAlloc, SteadyStatePredictBatchIsAllocationFree) {
  // Single-worker pool: the raw chunk dispatch runs inline on the caller,
  // so the measurement excludes worker-thread scheduling noise. (The
  // multi-worker path is also allocation-free — chunks are claimed from
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
