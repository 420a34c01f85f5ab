// Synthetic forward camera.
//
// Renders the view from the car's camera mast by inverse-perspective ray
// casting: each pixel's ray is intersected with the ground plane and the
// hit point is classified against the track — tape lane marking (bright),
// track surface (mid gray), off-track floor (dark), or sky above the
// horizon. This produces the same learning signal as the DonkeyCar camera
// (lane geometry ahead as a function of pose) at a resolution where CPU
// training of all six models is fast.
//
// Ground hits are classified through Track::ground(): a per-track raster
// answers most of them with the class Track::project() would give, and
// the rest are projected, so a frame is the same, bit for bit, as one
// that projects every hit. The first frame on a track builds its raster
// (a few ms).
//
// The "real" profile adds pixel noise, exposure jitter and mounting
// vibration, mirroring the physical car; the "sim" profile is clean like
// the Unity simulator.
#pragma once

#include "camera/image.hpp"
#include "track/track.hpp"
#include "util/rng.hpp"
#include "vehicle/car.hpp"

namespace autolearn::camera {

struct CameraNoise {
  double pixel_noise = 0.0;      // per-pixel gaussian stddev
  double exposure_jitter = 0.0;  // per-frame multiplicative gain stddev
  double pose_jitter = 0.0;      // radians of per-frame pitch/yaw vibration

  static CameraNoise sim() { return {}; }
  static CameraNoise real_car() { return {0.02, 0.05, 0.004}; }
};

struct CameraConfig {
  std::size_t width = 32;
  std::size_t height = 24;
  double fov_deg = 120.0;      // horizontal field of view (wide-angle lens)
  double mount_height = 0.12;  // meters above ground
  double pitch_deg = 18.0;     // downward pitch
  double tape_width = 0.05;    // painted/taped lane line width, meters
  CameraNoise noise = CameraNoise::sim();

  // Surface intensities.
  float sky = 0.05f;
  float floor = 0.15f;
  float surface = 0.45f;
  float tape = 0.95f;
};

/// A flat marker on the ground (the stop/go "objects placed in front of
/// the car" from the §3.3 color-classification exercise). Intensity
/// encodes the colour in the grayscale pipeline; patches render without
/// distance attenuation, like retroreflective markers.
struct GroundPatch {
  track::Vec2 center;
  double radius = 0.1;   // meters
  float intensity = 0.98f;
};

class Camera {
 public:
  /// Throws std::invalid_argument for a zero resolution, a fov outside
  /// (0, 180) degrees, a mount height that is not finite and > 0, a pitch
  /// outside (-90, 90) degrees, or a tape width that is not finite and
  /// >= 0. NaN fails each test.
  Camera(CameraConfig config, util::Rng rng);

  const CameraConfig& config() const { return config_; }

  /// Renders the frame seen from the given car state on the given track.
  /// Optional ground patches (signals/obstacles) overlay the surface.
  Image render(const track::Track& track, const vehicle::CarState& state,
               const std::vector<GroundPatch>& patches = {});

 private:
  CameraConfig config_;
  util::Rng rng_;
};

}  // namespace autolearn::camera
