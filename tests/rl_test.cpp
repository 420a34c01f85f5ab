#include "rl/qlearning.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <sstream>

#include "track/track.hpp"

namespace autolearn::rl {
namespace {

QConfig fast_config() {
  QConfig cfg;
  cfg.episodes = 60;
  cfg.episode_s = 15.0;
  return cfg;
}

TEST(QLearning, ConfigValidation) {
  const track::Track t = track::Track::paper_oval();
  QConfig bad;
  bad.actions = 1;
  EXPECT_THROW(QLearningPilot(t, bad, util::Rng(1)), std::invalid_argument);
  bad = QConfig{};
  bad.alpha = 0;
  EXPECT_THROW(QLearningPilot(t, bad, util::Rng(1)), std::invalid_argument);
  bad = QConfig{};
  bad.gamma = 1.0;
  EXPECT_THROW(QLearningPilot(t, bad, util::Rng(1)), std::invalid_argument);
  const QLearningPilot good(t, QConfig{}, util::Rng(1));
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    bad = QConfig{};
    bad.episode_s = v;
    EXPECT_THROW(QLearningPilot(t, bad, util::Rng(1)), std::invalid_argument)
        << "episode_s " << v;
    bad = QConfig{};
    bad.dt = v;
    EXPECT_THROW(QLearningPilot(t, bad, util::Rng(1)), std::invalid_argument)
        << "dt " << v;
    EXPECT_THROW(good.evaluate(v), std::invalid_argument)
        << "evaluate duration_s " << v;
  }
}

TEST(QLearning, StateSpaceSizedByBins) {
  const track::Track t = track::Track::paper_oval();
  QConfig cfg = fast_config();
  QLearningPilot pilot(t, cfg, util::Rng(2));
  EXPECT_EQ(pilot.state_count(),
            cfg.lateral_bins * cfg.heading_bins * cfg.curvature_bins);
}

TEST(QLearning, StateIndexWithinRange) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot pilot(t, fast_config(), util::Rng(3));
  util::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    vehicle::CarState st;
    const double s = rng.uniform(0, t.length());
    st.pos = t.position_at(s) +
             track::heading_vec(t.heading_at(s)).perp() *
                 rng.uniform(-0.6, 0.6);
    st.heading = rng.uniform(-M_PI, M_PI);
    ASSERT_LT(pilot.state_index(st), pilot.state_count());
  }
}

TEST(QLearning, TrainingImprovesReward) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot pilot(t, fast_config(), util::Rng(5));
  const auto stats = pilot.train();
  ASSERT_EQ(stats.size(), 60u);
  // Mean reward over the last third must beat the first third.
  auto mean = [&](std::size_t b, std::size_t e) {
    double s = 0;
    for (std::size_t i = b; i < e; ++i) s += stats[i].total_reward;
    return s / static_cast<double>(e - b);
  };
  EXPECT_GT(mean(40, 60), mean(0, 20));
}

TEST(QLearning, TrainedPolicyDrivesFartherThanUntrained) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot untrained(t, fast_config(), util::Rng(6));
  QLearningPilot trained(t, fast_config(), util::Rng(6));
  trained.train();
  const EpisodeStats before = untrained.evaluate(30.0);
  const EpisodeStats after = trained.evaluate(30.0);
  EXPECT_GT(after.distance_m, before.distance_m);
  EXPECT_GT(after.distance_m, t.length());  // at least one lap in 30 s
}

TEST(QLearning, GreedyDecisionInRange) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot pilot(t, fast_config(), util::Rng(7));
  pilot.train();
  vehicle::CarState st;
  st.pos = t.position_at(1.0);
  st.heading = t.heading_at(1.0);
  const vehicle::DriveCommand cmd = pilot.decide(st);
  EXPECT_GE(cmd.steering, -1.0);
  EXPECT_LE(cmd.steering, 1.0);
  EXPECT_GT(cmd.throttle, 0.0);
}

TEST(QLearning, SaveLoadRoundTrip) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot a(t, fast_config(), util::Rng(8));
  a.train();
  std::stringstream buf;
  a.save(buf);
  QLearningPilot b(t, fast_config(), util::Rng(999));
  b.load(buf);
  // Same greedy decisions everywhere we probe.
  util::Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    vehicle::CarState st;
    const double s = rng.uniform(0, t.length());
    st.pos = t.position_at(s);
    st.heading = t.heading_at(s) + rng.uniform(-0.3, 0.3);
    EXPECT_EQ(a.decide(st).steering, b.decide(st).steering);
  }
}

TEST(QLearning, LoadRejectsWrongSize) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot a(t, fast_config(), util::Rng(11));
  std::stringstream buf;
  a.save(buf);
  QConfig other = fast_config();
  other.actions = 5;
  QLearningPilot b(t, other, util::Rng(12));
  EXPECT_THROW(b.load(buf), std::runtime_error);
}

TEST(QLearning, DeterministicTraining) {
  const track::Track t = track::Track::paper_oval();
  QLearningPilot a(t, fast_config(), util::Rng(13));
  QLearningPilot b(t, fast_config(), util::Rng(13));
  const auto sa = a.train();
  const auto sb = b.train();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].total_reward, sb[i].total_reward);
  }
}

}  // namespace
}  // namespace autolearn::rl
