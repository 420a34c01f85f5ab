#include <gtest/gtest.h>

#include <limits>

#include "data/collector.hpp"
#include "data/dataset.hpp"
#include "data/tub.hpp"
#include "eval/evaluator.hpp"
#include "eval/pilot.hpp"
#include "ml/trainer.hpp"
#include "track/track.hpp"

namespace autolearn::eval {
namespace {

namespace fs = std::filesystem;

/// Ground-truth pilot used to test the evaluator loop itself: wraps the
/// expert but exposes the Pilot interface (cheats by tracking car state
/// through an external pointer is impossible — instead it steers from the
/// brightness centroid of the frame, a classic line-follower).
class CentroidPilot : public Pilot {
 public:
  vehicle::DriveCommand act(const camera::Image& frame) override {
    // Steer toward the horizontal brightness centroid of the lower half.
    double num = 0, den = 0;
    for (std::size_t y = frame.height() / 2; y < frame.height(); ++y) {
      for (std::size_t x = 0; x < frame.width(); ++x) {
        // Emphasize the bright tape pixels.
        const double w = std::pow(static_cast<double>(frame.at(x, y)), 4.0);
        num += w * (static_cast<double>(x) -
                    static_cast<double>(frame.width() - 1) / 2.0);
        den += w;
      }
    }
    const double offset = den > 0 ? num / den : 0.0;
    // Positive offset = bright mass to the right = off toward the left
    // boundary? The tape is on both sides; steer to balance them.
    const double steer = -0.25 * offset;
    return vehicle::DriveCommand{steer, 0.45}.clamped();
  }
  void reset() override {}
  std::string name() const override { return "centroid"; }
};

/// A pilot that always drives straight at full throttle: must leave the
/// track quickly, producing errors.
class StraightPilot : public Pilot {
 public:
  vehicle::DriveCommand act(const camera::Image&) override {
    return {0.0, 0.9};
  }
  void reset() override {}
  std::string name() const override { return "straight"; }
};

TEST(Evaluator, ValidatesOptions) {
  const track::Track t = track::Track::paper_oval();
  StraightPilot p;
  EvalOptions opt;
  opt.duration_s = 0;
  EXPECT_THROW(run_evaluation(t, p, opt), std::invalid_argument);
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    opt = EvalOptions{};
    opt.duration_s = v;
    EXPECT_THROW(run_evaluation(t, p, opt), std::invalid_argument)
        << "duration_s " << v;
    opt = EvalOptions{};
    opt.dt = v;
    EXPECT_THROW(run_evaluation(t, p, opt), std::invalid_argument)
        << "dt " << v;
  }
}

TEST(Evaluator, StraightPilotLeavesTrackAndIsReset) {
  const track::Track t = track::Track::paper_oval();
  StraightPilot p;
  EvalOptions opt;
  opt.duration_s = 30.0;
  const EvalResult r = run_evaluation(t, p, opt);
  // The car leaves the lane over and over; each event is an error and a
  // marshal-style reset onto the centerline.
  EXPECT_GT(r.errors, 5u);
  EXPECT_EQ(r.steps, 600u);
  EXPECT_DOUBLE_EQ(r.duration_s, 30.0);
  // Any "progress" is bought with errors, so the combined score is tiny.
  EXPECT_LT(r.score(), 0.5);
}

TEST(Evaluator, ErrorsReduceScore) {
  EvalResult good;
  good.laps = 3;
  good.duration_s = 60;
  good.errors = 0;
  EvalResult bad = good;
  bad.errors = 5;
  EXPECT_GT(good.score(), bad.score());
}

TEST(Evaluator, ResultAccounting) {
  const track::Track t = track::Track::paper_oval();
  StraightPilot p;
  EvalOptions opt;
  opt.duration_s = 10.0;
  const EvalResult r = run_evaluation(t, p, opt);
  EXPECT_NEAR(r.mean_speed * r.duration_s, r.distance_m, 1e-6);
  EXPECT_NEAR(r.laps * t.length(), r.distance_m, 1e-6);
}

TEST(Evaluator, LatencyHurtsDriving) {
  // The same (competent) pilot with a long command latency must do worse.
  const track::Track t = track::Track::paper_oval();
  CentroidPilot pilot;
  EvalOptions fast;
  fast.duration_s = 60.0;
  EvalOptions slow = fast;
  slow.command_latency_s = 0.5;
  const EvalResult r_fast = run_evaluation(t, pilot, fast);
  const EvalResult r_slow = run_evaluation(t, pilot, slow);
  EXPECT_GT(r_fast.distance_m, 1.0);
  // More errors or less distance — either signals degradation.
  EXPECT_TRUE(r_slow.errors > r_fast.errors ||
              r_slow.distance_m < r_fast.distance_m);
}

// End-to-end: collect -> train -> closed-loop drive. The trained model
// must drive dramatically better than an untrained one.
TEST(Evaluator, TrainedModelDrivesBetterThanUntrained) {
  const track::Track t = track::Track::paper_oval();
  const fs::path dir =
      fs::temp_directory_path() / ("autolearn_eval_" + std::to_string(getpid()));
  fs::remove_all(dir);
  data::CollectOptions copt;
  copt.duration_s = 180.0;
  // A slightly weaving driver produces recovery examples — the standard
  // imitation-learning trick the DonkeyCar instructions also recommend.
  copt.expert.steering_noise = 0.10;
  data::collect_session(t, data::DataPath::Sample, copt, dir / "tub");
  data::Tub tub(dir / "tub");
  auto samples = data::build_samples(tub.read_all(), {});
  auto [train, val] = data::split_train_val(std::move(samples), 0.15);

  ml::ModelConfig mcfg;
  auto trained = ml::make_model(ml::ModelType::Linear, mcfg);
  auto untrained = ml::make_model(ml::ModelType::Linear, mcfg);
  ml::TrainOptions topt;
  topt.epochs = 12;
  ml::fit(*trained, train, val, topt);

  ModelPilot trained_pilot(*trained);
  ModelPilot untrained_pilot(*untrained);
  EvalOptions eopt;
  eopt.duration_s = 60.0;
  const EvalResult r_trained = run_evaluation(t, trained_pilot, eopt);
  const EvalResult r_untrained = run_evaluation(t, untrained_pilot, eopt);

  EXPECT_GT(r_trained.laps, 1.0);
  EXPECT_LT(r_trained.errors, 8u);
  EXPECT_GT(r_trained.score(), r_untrained.score());
  fs::remove_all(dir);
}

TEST(ModelPilot, BuffersSequenceForRnn) {
  ml::ModelConfig cfg;
  auto model = ml::make_model(ml::ModelType::Rnn, cfg);
  ModelPilot pilot(*model);
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);
  // First call must not throw even though only one frame exists yet.
  const vehicle::DriveCommand cmd = pilot.act(frame);
  EXPECT_GE(cmd.steering, -1.0);
  EXPECT_LE(cmd.steering, 1.0);
}

TEST(ModelPilot, MemoryModelHistoryMaintained) {
  ml::ModelConfig cfg;
  auto model = ml::make_model(ml::ModelType::Memory, cfg);
  ModelPilot pilot(*model);
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NO_THROW(pilot.act(frame));
  }
  pilot.reset();
  EXPECT_NO_THROW(pilot.act(frame));
}

TEST(ModelPilot, NamesMatchModel) {
  ml::ModelConfig cfg;
  auto model = ml::make_model(ml::ModelType::Inferred, cfg);
  ModelPilot pilot(*model);
  EXPECT_EQ(pilot.name(), "inferred");
}

}  // namespace
}  // namespace autolearn::eval
