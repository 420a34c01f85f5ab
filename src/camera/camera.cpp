#include "camera/camera.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autolearn::camera {

namespace {
struct Vec3 {
  double x, y, z;
};
}  // namespace

Camera::Camera(CameraConfig config, util::Rng rng)
    : config_(config), rng_(rng) {
  if (config_.width == 0 || config_.height == 0) {
    throw std::invalid_argument("Camera: zero resolution");
  }
  // Written so that NaN fails each test.
  if (!(config_.fov_deg > 0 && config_.fov_deg < 180)) {
    throw std::invalid_argument("Camera: fov out of range");
  }
  if (!(config_.mount_height > 0 && std::isfinite(config_.mount_height))) {
    throw std::invalid_argument("Camera: mount height must be finite and > 0");
  }
  if (!(config_.pitch_deg > -90 && config_.pitch_deg < 90)) {
    throw std::invalid_argument("Camera: pitch out of range");
  }
  if (!(config_.tape_width >= 0 && std::isfinite(config_.tape_width))) {
    throw std::invalid_argument("Camera: tape width must be finite and >= 0");
  }
}

Image Camera::render(const track::Track& track,
                     const vehicle::CarState& state,
                     const std::vector<GroundPatch>& patches) {
  const std::size_t W = config_.width, H = config_.height;
  Image img(W, H);

  double heading = state.heading;
  double pitch = config_.pitch_deg * M_PI / 180.0;
  if (config_.noise.pose_jitter > 0) {
    heading += rng_.normal(0, config_.noise.pose_jitter);
    pitch += rng_.normal(0, config_.noise.pose_jitter);
  }
  const double gain =
      config_.noise.exposure_jitter > 0
          ? std::max(0.5, 1.0 + rng_.normal(0, config_.noise.exposure_jitter))
          : 1.0;

  // Focal length in pixels from the horizontal FOV.
  const double f_px =
      (static_cast<double>(W) / 2.0) /
      std::tan(config_.fov_deg * M_PI / 180.0 / 2.0);

  const double cp = std::cos(pitch), sp = std::sin(pitch);
  const double ch = std::cos(heading), sh = std::sin(heading);
  // Camera basis in world coordinates (z up).
  const Vec3 forward{cp * ch, cp * sh, -sp};
  const Vec3 right{sh, -ch, 0.0};
  const Vec3 down{-ch * sp, -sh * sp, -cp};

  const double cam_z = config_.mount_height;
  const track::Track::GroundView ground = track.ground(config_.tape_width / 2.0);

  for (std::size_t py = 0; py < H; ++py) {
    for (std::size_t px = 0; px < W; ++px) {
      const double u = (static_cast<double>(px) + 0.5 -
                        static_cast<double>(W) / 2.0) /
                       f_px;
      const double v = (static_cast<double>(py) + 0.5 -
                        static_cast<double>(H) / 2.0) /
                       f_px;
      const Vec3 dir{forward.x + u * right.x + v * down.x,
                     forward.y + u * right.y + v * down.y,
                     forward.z + u * right.z + v * down.z};
      float value;
      if (dir.z >= -1e-9) {
        value = config_.sky;  // at or above the horizon
      } else {
        const double t = cam_z / -dir.z;
        const track::Vec2 hit{state.pos.x + t * dir.x,
                              state.pos.y + t * dir.y};
        switch (ground.at(hit)) {
          case track::Ground::kTape:
            value = config_.tape;
            break;
          case track::Ground::kSurface:
            value = config_.surface;
            break;
          default:
            value = config_.floor;
            break;
        }
        // Mild distance attenuation so far geometry is dimmer, which keeps
        // the nearest (most informative) markings dominant.
        const double dist = t;
        value = static_cast<float>(value / (1.0 + 0.08 * dist));
        // Signal patches overlay the ground without attenuation so their
        // intensity code survives for the classifier.
        for (const GroundPatch& patch : patches) {
          if ((hit - patch.center).norm2() <= patch.radius * patch.radius) {
            value = patch.intensity;
          }
        }
      }
      if (config_.noise.pixel_noise > 0) {
        value += static_cast<float>(rng_.normal(0, config_.noise.pixel_noise));
      }
      img.at(px, py) = static_cast<float>(
          std::clamp(static_cast<double>(value) * gain, 0.0, 1.0));
    }
  }
  return img;
}

}  // namespace autolearn::camera
