#include "data/collector.hpp"

#include <stdexcept>

#include "camera/camera.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace autolearn::data {

const char* to_string(DataPath path) {
  switch (path) {
    case DataPath::Simulator: return "simulator";
    case DataPath::PhysicalCar: return "physical-car";
    case DataPath::Sample: return "sample";
  }
  return "?";
}

CollectStats collect_session(const track::Track& track, DataPath path,
                             const CollectOptions& options,
                             const std::filesystem::path& dir) {
  const std::size_t steps =
      util::control_steps(options.duration_s, options.dt, "collect");
  // The sample path is the fixed dataset shipped with the module: always
  // the same seed, always the clean profiles.
  const bool physical = path == DataPath::PhysicalCar;
  const std::uint64_t seed = path == DataPath::Sample ? 0xA070CAFE : options.seed;
  util::Rng rng(seed);

  vehicle::CarConfig car_cfg;
  car_cfg.noise = physical ? vehicle::NoiseProfile::real_car()
                           : vehicle::NoiseProfile::sim();
  vehicle::Car car(car_cfg, rng.split());
  car.reset(track.position_at(0), track.heading_at(0));

  camera::CameraConfig cam_cfg;
  cam_cfg.width = options.img_w;
  cam_cfg.height = options.img_h;
  cam_cfg.noise = physical ? camera::CameraNoise::real_car()
                           : camera::CameraNoise::sim();
  camera::Camera cam(cam_cfg, rng.split());

  vehicle::ExpertPilot expert(track, options.expert, rng.split(), car_cfg);

  TubWriter writer(dir);
  CollectStats stats;
  double speed_sum = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const camera::Image frame = cam.render(track, car.state());
    const vehicle::DriveCommand cmd = expert.decide(car.state(), options.dt);
    writer.append(frame, static_cast<float>(cmd.steering),
                  static_cast<float>(cmd.throttle),
                  static_cast<float>(car.state().speed), expert.in_mistake());
    stats.mistake_records += expert.in_mistake();
    car.step(cmd, options.dt);
    stats.distance_m += car.state().speed * options.dt;
    speed_sum += car.state().speed;
    ++stats.records;
  }
  writer.close();
  stats.mean_speed = stats.records ? speed_sum / static_cast<double>(stats.records) : 0;
  AUTOLEARN_LOG(Info, "collector")
      << to_string(path) << " session on " << track.name() << ": "
      << stats.records << " records, " << stats.mistake_records
      << " flagged";
  return stats;
}

}  // namespace autolearn::data
