#include "rl/qlearning.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/units.hpp"

namespace autolearn::rl {

QLearningPilot::QLearningPilot(const track::Track& track, QConfig config,
                               util::Rng rng)
    : track_(track), config_(config), rng_(rng) {
  if (config_.actions < 2 || config_.lateral_bins < 2 ||
      config_.heading_bins < 2 || config_.curvature_bins < 1) {
    throw std::invalid_argument("qlearning: bad discretization");
  }
  if (config_.alpha <= 0 || config_.alpha > 1 || config_.gamma < 0 ||
      config_.gamma >= 1) {
    throw std::invalid_argument("qlearning: bad alpha/gamma");
  }
  // Rejects a non-finite or non-positive episode_s or dt up front.
  util::control_steps(config_.episode_s, config_.dt, "qlearning");
  const std::size_t states =
      config_.lateral_bins * config_.heading_bins * config_.curvature_bins;
  q_.assign(states * config_.actions, 0.0);
}

double QLearningPilot::action_steering(std::size_t a) const {
  return -1.0 + 2.0 * static_cast<double>(a) /
                    static_cast<double>(config_.actions - 1);
}

std::size_t QLearningPilot::state_index(
    const vehicle::CarState& state) const {
  const track::Projection proj = track_.project(state.pos);
  auto bin = [](double v, double range, std::size_t bins) {
    const double t = std::clamp((v + range) / (2 * range), 0.0, 1.0);
    return std::min(bins - 1, static_cast<std::size_t>(
                                  t * static_cast<double>(bins)));
  };
  const std::size_t lat_bin =
      bin(proj.lateral, config_.lateral_range, config_.lateral_bins);
  const double herr = track::angle_diff(state.heading, proj.heading);
  const std::size_t head_bin =
      bin(herr, config_.heading_range, config_.heading_bins);
  // Upcoming curvature, a half-meter ahead.
  const double kappa = track_.curvature_at(proj.s + 0.5);
  std::size_t curv_bin = 1;  // straight
  if (config_.curvature_bins >= 3) {
    if (kappa > 1e-3) curv_bin = 2;       // left turn ahead
    else if (kappa < -1e-3) curv_bin = 0; // right turn ahead
  } else {
    curv_bin = 0;
  }
  return (curv_bin * config_.heading_bins + head_bin) * config_.lateral_bins +
         lat_bin;
}

std::size_t QLearningPilot::best_action(std::size_t state) const {
  std::size_t best = 0;
  double best_q = q(state, 0);
  for (std::size_t a = 1; a < config_.actions; ++a) {
    if (q(state, a) > best_q) {
      best_q = q(state, a);
      best = a;
    }
  }
  return best;
}

std::pair<double, bool> QLearningPilot::step_env(vehicle::Car& car,
                                                 std::size_t action,
                                                 double& s_prev) const {
  car.step({action_steering(action), config_.throttle}, config_.dt);
  const track::Projection proj = track_.project(car.state().pos);
  const double progress = track_.progress_delta(s_prev, proj.s);
  s_prev = proj.s;
  if (!proj.on_track) {
    return {config_.offtrack_penalty, true};
  }
  const double reward =
      std::max(progress, 0.0) - config_.lateral_cost * std::abs(proj.lateral) * config_.dt;
  return {reward, false};
}

std::vector<EpisodeStats> QLearningPilot::train() {
  std::vector<EpisodeStats> stats;
  stats.reserve(config_.episodes);
  const std::size_t steps_per_episode =
      util::control_steps(config_.episode_s, config_.dt, "qlearning");
  for (std::size_t ep = 0; ep < config_.episodes; ++ep) {
    const double frac = config_.episodes > 1
                            ? static_cast<double>(ep) /
                                  static_cast<double>(config_.episodes - 1)
                            : 1.0;
    const double epsilon =
        config_.epsilon_start +
        (config_.epsilon_end - config_.epsilon_start) * frac;

    vehicle::Car car(vehicle::CarConfig{}, rng_.split());
    // Start at a random point, slightly perturbed, rolling.
    const double s0 = rng_.uniform(0, track_.length());
    car.reset(track_.position_at(s0) +
                  track::heading_vec(track_.heading_at(s0)).perp() *
                      rng_.uniform(-0.1, 0.1),
              track_.heading_at(s0) + rng_.uniform(-0.15, 0.15),
              config_.throttle * 2.0);
    double s_prev = track_.project(car.state().pos).s;

    EpisodeStats es;
    std::size_t state = state_index(car.state());
    for (std::size_t i = 0; i < steps_per_episode; ++i) {
      const std::size_t action =
          rng_.chance(epsilon)
              ? static_cast<std::size_t>(rng_.uniform_int(
                    0, static_cast<std::int64_t>(config_.actions) - 1))
              : best_action(state);
      const auto [reward, done] = step_env(car, action, s_prev);
      const std::size_t next_state = state_index(car.state());
      const double target =
          done ? reward
               : reward + config_.gamma * q(next_state, best_action(next_state));
      q(state, action) += config_.alpha * (target - q(state, action));
      es.total_reward += reward;
      es.distance_m += std::max(reward, 0.0);  // progress part only (approx)
      state = next_state;
      if (done) {
        es.crashed = true;
        break;
      }
    }
    stats.push_back(es);
  }
  return stats;
}

vehicle::DriveCommand QLearningPilot::decide(
    const vehicle::CarState& state) const {
  const std::size_t s = state_index(state);
  return vehicle::DriveCommand{action_steering(best_action(s)),
                               config_.throttle}
      .clamped();
}

EpisodeStats QLearningPilot::evaluate(double duration_s,
                                      std::uint64_t seed) const {
  const std::size_t steps =
      util::control_steps(duration_s, config_.dt, "qlearning evaluate");
  vehicle::Car car(vehicle::CarConfig{}, util::Rng(seed));
  car.reset(track_.position_at(0), track_.heading_at(0),
            config_.throttle * 2.0);
  double s_prev = track_.project(car.state().pos).s;
  EpisodeStats es;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::size_t state = state_index(car.state());
    car.step({action_steering(best_action(state)), config_.throttle},
             config_.dt);
    const track::Projection proj = track_.project(car.state().pos);
    const double progress = track_.progress_delta(s_prev, proj.s);
    if (progress > 0) es.distance_m += progress;
    es.total_reward += std::max(progress, 0.0);
    s_prev = proj.s;
    if (!proj.on_track) {
      es.crashed = true;
      // Like the evaluator: put the car back and continue.
      car.reset(track_.position_at(proj.s), track_.heading_at(proj.s),
                config_.throttle * 2.0);
      s_prev = track_.project(car.state().pos).s;
    }
  }
  return es;
}

void QLearningPilot::save(std::ostream& os) const {
  const std::uint64_t n = q_.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  os.write(reinterpret_cast<const char*>(q_.data()),
           static_cast<std::streamsize>(n * sizeof(double)));
}

void QLearningPilot::load(std::istream& is) {
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!is || n != q_.size()) {
    throw std::runtime_error("qlearning: table size mismatch");
  }
  is.read(reinterpret_cast<char*>(q_.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!is) throw std::runtime_error("qlearning: truncated table");
}

}  // namespace autolearn::rl
