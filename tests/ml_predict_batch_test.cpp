// Equivalence oracle for the batched-predict API: for every model in the
// six-type zoo, predict() must agree with predict_batch() — bitwise at
// batch 1 (predict IS predict_batch of one), and row-for-row when a whole
// batch runs through the compiled plan, in one chunk or in several. Plus
// the frame-size check every input path makes before staging.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "camera/image.hpp"
#include "ml/driving_model.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {
namespace {

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

class PredictBatchEquivalence : public ::testing::TestWithParam<ModelType> {};

TEST_P(PredictBatchEquivalence, BatchOfOneIsBitwiseIdentical) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, 4, 17);
  for (const Sample& s : samples) {
    const Prediction single = model->predict(s);
    Prediction batched;
    model->predict_batch(&s, 1, &batched);
    // Bitwise, not approximately: both entry points must run the exact
    // same forward.
    EXPECT_EQ(single.steering, batched.steering);
    EXPECT_EQ(single.throttle, batched.throttle);
  }
}

TEST_P(PredictBatchEquivalence, BatchedForwardMatchesPerSample) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  // 70 rows exceed the default plan cap of 32: they run as 32 + 32 + 6.
  for (std::size_t n : {std::size_t{7}, std::size_t{70}}) {
    const auto samples = make_samples(cfg, n, 23);
    std::vector<Prediction> batched(n);
    model->predict_batch(samples.data(), n, batched.data());
    for (std::size_t i = 0; i < n; ++i) {
      const Prediction single = model->predict(samples[i]);
      // Each batch row accumulates in the same order as the row-of-one
      // forward, so the batched GEMM path reproduces per-sample results.
      EXPECT_EQ(single.steering, batched[i].steering)
          << "row " << i << " n=" << n;
      EXPECT_EQ(single.throttle, batched[i].throttle)
          << "row " << i << " n=" << n;
    }
  }
}

TEST_P(PredictBatchEquivalence, EmptyBatchIsANoOp) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  model->predict_batch(nullptr, 0, nullptr);  // must not crash
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, PredictBatchEquivalence,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class FrameSizeCheck : public ::testing::TestWithParam<ModelType> {};

TEST_P(FrameSizeCheck, FrameOneColumnTooWideThrows) {
  // A frame that does not match the model config must be rejected before
  // it is copied: one column too wide would overrun the staged batch.
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  ModelConfig wide = cfg;
  ++wide.img_w;
  const auto samples = make_samples(wide, 2, 31);
  const std::vector<const Sample*> batch = {&samples[0], &samples[1]};
  std::vector<Prediction> out(samples.size());
  EXPECT_THROW(model->predict_batch(samples.data(), samples.size(), out.data()),
               std::invalid_argument);
  EXPECT_THROW(model->train_batch(batch), std::invalid_argument);
  EXPECT_THROW(model->eval_batch(batch), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, FrameSizeCheck,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// External subclasses that only implement predict() get batching for free
// through the base-class fallback loop.
class PerSampleOnlyModel : public DrivingModel {
 public:
  ModelType type() const override { return ModelType::Linear; }
  Prediction predict(const Sample& obs) override {
    ++calls_;
    return {static_cast<double>(obs.frames.size()),
            static_cast<double>(calls_)};
  }
  double train_batch(const std::vector<const Sample*>&) override { return 0; }
  double eval_batch(const std::vector<const Sample*>&) override { return 0; }
  std::size_t num_parameters() override { return 0; }
  std::uint64_t flops_per_sample() const override { return 1; }
  void save(std::ostream&) override {}
  void load(std::istream&) override {}

 private:
  int calls_ = 0;
};

TEST(PredictBatchFallback, BaseClassLoopsOverPredict) {
  ModelConfig cfg;
  PerSampleOnlyModel model;
  const auto samples = make_samples(cfg, 3, 5);
  std::vector<Prediction> out(samples.size());
  model.predict_batch(samples.data(), samples.size(), out.data());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].steering,
                     static_cast<double>(samples[i].frames.size()));
    EXPECT_DOUBLE_EQ(out[i].throttle, static_cast<double>(i + 1));
  }
}

}  // namespace
}  // namespace autolearn::ml
