#include "core/twin.hpp"

#include <cmath>
#include <stdexcept>

#include "camera/camera.hpp"
#include "util/units.hpp"
#include "vehicle/car.hpp"

namespace autolearn::core {
namespace {

struct Trajectory {
  std::vector<track::Vec2> positions;
  std::vector<double> speeds;
  double distance = 0.0;
  std::size_t errors = 0;
};

Trajectory drive(const track::Track& track, eval::Pilot& pilot,
                 const TwinOptions& opt, std::size_t steps, bool real,
                 double noise_scale) {
  util::Rng rng(opt.seed);

  vehicle::CarConfig car_cfg;
  camera::CameraConfig cam_cfg;
  cam_cfg.width = opt.img_w;
  cam_cfg.height = opt.img_h;
  if (real) {
    vehicle::NoiseProfile nz = vehicle::NoiseProfile::real_car();
    nz.steering_noise *= noise_scale;
    nz.steering_bias *= noise_scale;
    nz.throttle_noise *= noise_scale;
    nz.position_noise *= noise_scale;
    car_cfg.noise = nz;
    camera::CameraNoise cn = camera::CameraNoise::real_car();
    cn.pixel_noise *= noise_scale;
    cn.exposure_jitter *= noise_scale;
    cn.pose_jitter *= noise_scale;
    cam_cfg.noise = cn;
  }
  vehicle::Car car(car_cfg, rng.split());
  car.reset(track.position_at(0), track.heading_at(0));
  camera::Camera cam(cam_cfg, rng.split());

  pilot.reset();
  Trajectory traj;
  double s_prev = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const camera::Image frame = cam.render(track, car.state());
    car.step(pilot.act(frame), opt.dt);
    traj.positions.push_back(car.state().pos);
    traj.speeds.push_back(car.state().speed);
    const track::Projection proj = track.project(car.state().pos);
    const double delta = track.progress_delta(s_prev, proj.s);
    if (delta > 0) traj.distance += delta;
    s_prev = proj.s;
    if (!proj.on_track &&
        std::abs(proj.lateral) > track.half_width() + 0.10) {
      ++traj.errors;
      car.reset(track.position_at(proj.s), track.heading_at(proj.s), 0.3);
      pilot.reset();
      s_prev = track.project(car.state().pos).s;
    }
  }
  return traj;
}

}  // namespace

TwinReport compare_sim_to_real(const track::Track& track, eval::Pilot& pilot,
                               const TwinOptions& options) {
  const std::size_t steps =
      util::control_steps(options.duration_s, options.dt, "twin");
  if (!(options.noise_scale >= 0)) {
    throw std::invalid_argument("twin: bad options");
  }
  const Trajectory sim =
      drive(track, pilot, options, steps, /*real=*/false, options.noise_scale);
  const Trajectory real =
      drive(track, pilot, options, steps, /*real=*/true, options.noise_scale);

  TwinReport report;
  double pos_se = 0, speed_se = 0;
  const std::size_t n = sim.positions.size();
  for (std::size_t i = 0; i < n; ++i) {
    pos_se += (sim.positions[i] - real.positions[i]).norm2();
    const double dv = sim.speeds[i] - real.speeds[i];
    speed_se += dv * dv;
  }
  report.position_rmse_m = n ? std::sqrt(pos_se / static_cast<double>(n)) : 0;
  report.speed_rmse = n ? std::sqrt(speed_se / static_cast<double>(n)) : 0;
  report.final_divergence_m =
      n ? (sim.positions.back() - real.positions.back()).norm() : 0;
  report.sim_distance_m = sim.distance;
  report.real_distance_m = real.distance;
  report.sim_errors = sim.errors;
  report.real_errors = real.errors;
  report.fidelity = std::exp(-report.position_rmse_m / track.half_width());
  return report;
}

}  // namespace autolearn::core
