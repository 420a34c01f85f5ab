#include "eval/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "camera/camera.hpp"
#include "util/delay_line.hpp"
#include "util/units.hpp"
#include "vehicle/car.hpp"

namespace autolearn::eval {

double EvalResult::score() const {
  const double minutes = duration_s / 60.0;
  const double laps_per_min = minutes > 0 ? laps / minutes : 0.0;
  return laps_per_min / (1.0 + static_cast<double>(errors));
}

double EvalResult::best_lap() const {
  if (lap_times.empty()) return 0.0;
  return *std::min_element(lap_times.begin(), lap_times.end());
}

EvalResult run_evaluation(const track::Track& track, Pilot& pilot,
                          const EvalOptions& options) {
  const std::size_t steps =
      util::control_steps(options.duration_s, options.dt, "eval");
  util::Rng rng(options.seed);

  vehicle::CarConfig car_cfg;
  car_cfg.noise = options.real_profiles ? vehicle::NoiseProfile::real_car()
                                        : vehicle::NoiseProfile::sim();
  vehicle::Car car(car_cfg, rng.split());
  car.reset(track.position_at(0), track.heading_at(0));

  camera::CameraConfig cam_cfg;
  cam_cfg.width = options.img_w;
  cam_cfg.height = options.img_h;
  cam_cfg.noise = options.real_profiles ? camera::CameraNoise::real_car()
                                        : camera::CameraNoise::sim();
  camera::Camera cam(cam_cfg, rng.split());

  pilot.reset();
  util::DelayLine<vehicle::DriveCommand> pipeline(options.dt,
                                                  vehicle::DriveCommand{});

  EvalResult result;
  double s_prev = track.project(car.state().pos).s;
  double lap_progress = 0.0;
  double lap_clock = 0.0;

  const obs::SpanGuard run_span(options.tracer, "eval.run", "eval");
  for (std::size_t i = 0; i < steps; ++i) {
    const obs::SpanGuard tick_span(options.tracer, "eval.tick", "eval");
    if (options.chaos_queue) {
      // Fire any fault events due by this control step before sensing.
      options.chaos_queue->run_until(static_cast<double>(i) * options.dt);
    }
    if (options.telemetry) options.telemetry(car.state());
    const camera::Image frame = cam.render(track, car.state());
    const vehicle::DriveCommand cmd = pilot.act(frame);
    double latency = options.command_latency_s;
    if (options.latency_jitter_s > 0) {
      latency = std::max(0.0, rng.normal(latency, options.latency_jitter_s));
    }
    if (options.metrics) {
      options.metrics->histogram("eval.cmd_latency_s").observe(latency);
    }
    pipeline.push(cmd, latency);
    const vehicle::DriveCommand effective = pipeline.step();
    car.step(effective, options.dt);
    lap_clock += options.dt;

    const track::Projection proj = track.project(car.state().pos);
    const double delta = track.progress_delta(s_prev, proj.s);
    if (delta > 0) {
      result.distance_m += delta;
      lap_progress += delta;
      if (lap_progress >= track.length()) {
        lap_progress -= track.length();
        result.lap_times.push_back(lap_clock);
        lap_clock = 0.0;
      }
    }
    s_prev = proj.s;

    if (std::abs(proj.lateral) >
        track.half_width() + options.off_track_grace) {
      // Off the track: the student places the car back on the line facing
      // forward, at walking pace — and the error counter ticks.
      ++result.errors;
      if (options.tracer) {
        util::Json args = util::Json::object();
        args.set("step", util::Json(i));
        args.set("track_s", util::Json(proj.s));
        options.tracer->instant("eval.off_track", "eval", std::move(args));
      }
      if (options.metrics) options.metrics->counter("eval.errors").inc();
      car.reset(track.position_at(proj.s), track.heading_at(proj.s), 0.3);
      pilot.reset();
      pipeline = util::DelayLine<vehicle::DriveCommand>(
          options.dt, vehicle::DriveCommand{});
      s_prev = track.project(car.state().pos).s;
    }
    ++result.steps;
  }
  result.mean_speed =
      result.steps
          ? result.distance_m / (static_cast<double>(result.steps) * options.dt)
          : 0.0;
  result.laps = result.distance_m / track.length();
  result.duration_s = static_cast<double>(result.steps) * options.dt;
  if (options.metrics) {
    options.metrics->counter("eval.runs").inc();
    options.metrics->counter("eval.steps").inc(result.steps);
    options.metrics->gauge("eval.distance_m").set(result.distance_m);
    options.metrics->gauge("eval.mean_speed").set(result.mean_speed);
  }
  return result;
}

}  // namespace autolearn::eval
