// Preemption-safe resume (ctest -L chaos): a fit killed mid-run and
// resumed from its durable checkpoint must continue *bitwise-identically*
// to an uninterrupted fit — same weights, same optimizer moments, same
// RNG streams, same loss history. Covered kill points: the epoch
// boundary, the mid-epoch batch boundary, and right after a GEMM-backed
// train_batch; covered models: all six.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "fault/chaos.hpp"
#include "fault/preempt.hpp"
#include "ml/trainer.hpp"
#include "objectstore/objectstore.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {
namespace {

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  return cfg;
}

/// Bright vertical band whose column encodes the steering label (same
/// task as ml_training_test).
std::vector<Sample> synthetic_dataset(std::size_t n, const ModelConfig& cfg,
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

std::string full_state(DrivingModel& model) {
  std::ostringstream os;
  model.save_full(os);
  return os.str();
}

// 12 samples at batch 4: 3 batches/epoch, 3 epochs, 2 preemption ticks
// per batch -> 18 ticks total.
constexpr std::size_t kEpochs = 3;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kBatchesTotal = 9;

TrainOptions base_options() {
  TrainOptions opt;
  opt.epochs = kEpochs;
  opt.batch_size = kBatch;
  opt.shuffle_seed = 21;
  return opt;
}

struct Fixture {
  ModelConfig cfg;
  std::vector<Sample> train;
  std::vector<Sample> val;

  explicit Fixture(ModelType type) : cfg(tiny_config()) {
    cfg.seed = 101;
    train = synthetic_dataset(12, cfg, 5);
    val = synthetic_dataset(4, cfg, 6);
    type_ = type;
  }

  std::unique_ptr<DrivingModel> fresh_model() const {
    return make_model(type_, cfg);
  }

  /// The reference run: no store, no kills.
  std::string uninterrupted(TrainResult* result = nullptr) const {
    auto model = fresh_model();
    const TrainResult r = fit(*model, train, val, base_options());
    if (result) *result = r;
    return full_state(*model);
  }

 private:
  ModelType type_;
};

/// Kills a fit at `fire_tick`, then "restarts the process": a fresh model
/// and Trainer resume from the store. Returns the resumed model's full
/// state; `resumed_result` reports what the second run actually did.
std::string kill_and_resume(const Fixture& fx, std::uint64_t fire_tick,
                            std::size_t checkpoint_every_batches,
                            TrainResult* resumed_result) {
  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);

  TrainOptions opt = base_options();
  opt.checkpoint_store = &store;
  opt.checkpoint_key = "fit";
  opt.checkpoint_every_batches = checkpoint_every_batches;

  {
    fault::PreemptionToken token;
    token.arm(fire_tick);
    TrainOptions killed = opt;
    killed.preempt = &token;
    auto doomed = fx.fresh_model();
    Trainer trainer(*doomed, fx.train, fx.val, killed);
    EXPECT_THROW(trainer.fit(), fault::PreemptedError);
  }  // the killed process's memory is gone; only the store survives

  auto model = fx.fresh_model();
  Trainer trainer(*model, fx.train, fx.val, opt);
  const TrainResult r = trainer.fit();
  if (resumed_result) *resumed_result = r;
  return full_state(*model);
}

class ResumeBitwise : public ::testing::TestWithParam<ModelType> {};

TEST_P(ResumeBitwise, KilledAtTheEpochBoundary) {
  const Fixture fx(GetParam());
  TrainResult reference;
  const std::string expect = fx.uninterrupted(&reference);

  // Tick 7 is the first boundary tick of epoch 2: epoch 1 is durably
  // checkpointed, epoch 2 has done nothing.
  TrainResult resumed;
  const std::string got = kill_and_resume(fx, 7, 0, &resumed);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_epoch, 1u);
  EXPECT_EQ(resumed.batches_run, 2 * (kBatchesTotal / kEpochs));
  ASSERT_EQ(resumed.history.size(), reference.history.size());
  for (std::size_t e = 0; e < reference.history.size(); ++e) {
    EXPECT_EQ(resumed.history[e].train_loss, reference.history[e].train_loss);
    EXPECT_EQ(resumed.history[e].val_loss, reference.history[e].val_loss);
  }
  EXPECT_EQ(got, expect) << "resumed weights/optimizer/RNG diverged";
}

TEST_P(ResumeBitwise, KilledMidEpochAtABatchBoundary) {
  const Fixture fx(GetParam());
  const std::string expect = fx.uninterrupted();

  // Every-batch checkpoints; tick 9 is the boundary tick of epoch 2's
  // second batch, one batch past the last mid-epoch checkpoint.
  TrainResult resumed;
  const std::string got = kill_and_resume(fx, 9, 1, &resumed);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_epoch, 1u);
  EXPECT_EQ(resumed.batches_run, 5u);  // epoch 2 batches 2-3 + epoch 3
  EXPECT_EQ(got, expect);
}

TEST_P(ResumeBitwise, KilledMidBatchRightAfterTheGemm) {
  const Fixture fx(GetParam());
  const std::string expect = fx.uninterrupted();

  // Tick 10 lands right after epoch 2 batch 2's train_batch: that batch's
  // gradient step is lost with the process and must be recomputed.
  TrainResult resumed;
  const std::string got = kill_and_resume(fx, 10, 1, &resumed);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.batches_run, 5u);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Models, ResumeBitwise,
                         ::testing::Values(ModelType::Linear, ModelType::Rnn,
                                           ModelType::Conv3d, ModelType::Memory,
                                           ModelType::Categorical,
                                           ModelType::Inferred),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ChaosPreemption, RandomizedKillResumesBitwiseAcrossSeeds) {
  const Fixture fx(ModelType::Linear);
  const std::string expect = fx.uninterrupted();

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    objectstore::ObjectStore os;
    ckpt::CheckpointStore store(os);
    util::EventQueue queue;
    fault::ChaosEngine chaos(queue, seed);

    TrainOptions opt = base_options();
    opt.checkpoint_store = &store;
    opt.checkpoint_every_batches = 1;

    fault::PreemptionToken token;
    fault::PreemptPlanOptions window;
    window.min_tick = 1;
    window.max_tick = 2 * kBatchesTotal;  // anywhere in the fit
    const std::uint64_t planned = chaos.arm_preemption(token, window);
    EXPECT_GE(planned, window.min_tick);
    EXPECT_LE(planned, window.max_tick);

    std::uint64_t fired_at = 0;
    {
      TrainOptions killed = opt;
      killed.preempt = &token;
      auto doomed = fx.fresh_model();
      Trainer trainer(*doomed, fx.train, fx.val, killed);
      try {
        trainer.fit();
        FAIL() << "preemption never fired (seed " << seed << ")";
      } catch (const fault::PreemptedError& e) {
        fired_at = e.tick();
      }
    }
    EXPECT_EQ(fired_at, planned);
    EXPECT_EQ(chaos.report().preemptions, 1u);

    auto model = fx.fresh_model();
    Trainer trainer(*model, fx.train, fx.val, opt);
    const TrainResult resumed = trainer.fit();
    EXPECT_EQ(full_state(*model), expect) << "seed " << seed;

    // Work accounting: the killed run finished floor(tick/2) batches; the
    // checkpoints let the resume skip (total - batches_run) of them.
    const std::size_t done_before_kill =
        static_cast<std::size_t>(fired_at / 2);
    const std::size_t recovered = kBatchesTotal - resumed.batches_run;
    ASSERT_GE(done_before_kill, recovered);
    chaos.record_preempt_outcome(done_before_kill - recovered, recovered);
    EXPECT_EQ(chaos.report().batches_recovered, recovered);
    EXPECT_EQ(chaos.report().batches_lost, done_before_kill - recovered);
    EXPECT_EQ(chaos.report().count(fault::FaultKind::TrainPreempt), 1u);
    EXPECT_EQ(chaos.report().count(fault::FaultKind::TrainPreempt,
                                   /*recoveries=*/true),
              1u);
  }
}

TEST(ChaosPreemption, ResumeRejectsADifferentDataset) {
  const Fixture fx(ModelType::Linear);
  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);

  TrainOptions opt = base_options();
  opt.checkpoint_store = &store;
  {
    fault::PreemptionToken token;
    token.arm(7);
    TrainOptions killed = opt;
    killed.preempt = &token;
    auto doomed = fx.fresh_model();
    Trainer trainer(*doomed, fx.train, fx.val, killed);
    EXPECT_THROW(trainer.fit(), fault::PreemptedError);
  }

  // Resuming over a dataset of a different size must fail loudly, not
  // silently train on misaligned shuffle indices.
  const std::vector<Sample> other = synthetic_dataset(8, fx.cfg, 99);
  auto model = fx.fresh_model();
  Trainer trainer(*model, other, fx.val, opt);
  EXPECT_THROW(trainer.fit(), std::invalid_argument);
}

TEST(ChaosPreemption, ResumeRejectsAnOutOfRangeShuffleIndex) {
  const Fixture fx(ModelType::Linear);
  const std::vector<Sample> train = synthetic_dataset(8, fx.cfg, 99);
  std::string state;
  {
    auto model = fx.fresh_model();
    Trainer trainer(*model, train, fx.val, base_options());
    std::ostringstream os;
    trainer.save_state(os);
    state = os.str();
  }
  // The shuffle order follows the magic, the 41-byte RNG state and the
  // order size; point its first index far past the 8 samples.
  const std::size_t first_index_at = 4 + 41 + 8;
  const std::uint64_t bad = 1000000;
  std::memcpy(state.data() + first_index_at, &bad, sizeof bad);

  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);
  store.save("trainer", state, {});
  TrainOptions opt = base_options();
  opt.checkpoint_store = &store;
  auto model = fx.fresh_model();
  Trainer trainer(*model, train, fx.val, opt);
  EXPECT_THROW(trainer.fit(), std::invalid_argument);
}

}  // namespace
}  // namespace autolearn::ml
