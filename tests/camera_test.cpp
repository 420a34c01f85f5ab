#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "camera/camera.hpp"
#include "camera/image.hpp"
#include "ring_search_reference.hpp"
#include "track/track.hpp"
#include "vehicle/car.hpp"

namespace autolearn::camera {
namespace {

vehicle::CarState state_at(const track::Track& t, double s,
                           double lateral = 0.0, double heading_off = 0.0) {
  vehicle::CarState st;
  const track::Vec2 c = t.position_at(s);
  const double h = t.heading_at(s);
  st.pos = c + track::heading_vec(h).perp() * lateral;
  st.heading = track::wrap_angle(h + heading_off);
  return st;
}

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_FLOAT_EQ(img.at(2, 1), 0.5f);
  img.at(2, 1) = 0.9f;
  EXPECT_FLOAT_EQ(img.at_checked(2, 1), 0.9f);
  EXPECT_THROW(img.at_checked(4, 0), std::out_of_range);
  EXPECT_THROW(img.at_checked(0, 3), std::out_of_range);
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
}

TEST(Image, MeanAndClamp) {
  Image img(2, 2);
  img.at(0, 0) = -1.0f;
  img.at(1, 0) = 2.0f;
  img.at(0, 1) = 0.5f;
  img.at(1, 1) = 0.5f;
  EXPECT_FLOAT_EQ(img.mean(), 0.5f);
  img.clamp();
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0), 1.0f);
}

TEST(Camera, ConfigValidation) {
  CameraConfig bad;
  bad.width = 0;
  EXPECT_THROW(Camera(bad, util::Rng(1)), std::invalid_argument);
  bad = CameraConfig{};
  bad.fov_deg = 0;
  EXPECT_THROW(Camera(bad, util::Rng(1)), std::invalid_argument);
  bad = CameraConfig{};
  bad.mount_height = 0;
  EXPECT_THROW(Camera(bad, util::Rng(1)), std::invalid_argument);
  // NaN fails every range test; each must still be rejected.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejects = [](auto edit) {
    CameraConfig cfg;
    edit(cfg);
    EXPECT_THROW(Camera(cfg, util::Rng(1)), std::invalid_argument);
  };
  rejects([&](CameraConfig& c) { c.fov_deg = kNaN; });
  rejects([&](CameraConfig& c) { c.fov_deg = 180; });
  rejects([&](CameraConfig& c) { c.mount_height = kNaN; });
  rejects([&](CameraConfig& c) { c.mount_height = kInf; });
  rejects([&](CameraConfig& c) { c.pitch_deg = kNaN; });
  rejects([&](CameraConfig& c) { c.pitch_deg = 90; });
  rejects([&](CameraConfig& c) { c.pitch_deg = -90; });
  rejects([&](CameraConfig& c) { c.pitch_deg = kInf; });
  rejects([&](CameraConfig& c) { c.tape_width = -0.01; });
  rejects([&](CameraConfig& c) { c.tape_width = kNaN; });
  rejects([&](CameraConfig& c) { c.tape_width = kInf; });
  CameraConfig edge;
  edge.pitch_deg = -30;  // looking up is allowed
  edge.tape_width = 0;   // as is a track without tape
  EXPECT_NO_THROW(Camera(edge, util::Rng(1)));
}

TEST(Camera, RendersExpectedDimensions) {
  const track::Track t = track::Track::paper_oval();
  Camera cam(CameraConfig{}, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  EXPECT_EQ(img.width(), CameraConfig{}.width);
  EXPECT_EQ(img.height(), CameraConfig{}.height);
}

TEST(Camera, TopRowsAreSky) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  // With an 18-degree downward pitch the top row is above the horizon.
  for (std::size_t x = 0; x < img.width(); ++x) {
    EXPECT_FLOAT_EQ(img.at(x, 0), cfg.sky);
  }
}

TEST(Camera, BottomRowSeesTrackSurfaceWhenCentered) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  // The pixel directly in front of a centered car looks at the surface.
  const float v = img.at(img.width() / 2, img.height() - 1);
  EXPECT_GT(v, cfg.floor);
  EXPECT_LT(v, cfg.tape);
}

TEST(Camera, SeesTapeSomewhere) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  float max_v = 0;
  for (float p : img.pixels()) max_v = std::max(max_v, p);
  // Tape is the brightest ground feature; near geometry is barely
  // attenuated, so some pixel should be close to the tape intensity.
  EXPECT_GT(max_v, 0.7f);
}

TEST(Camera, SimRenderIsDeterministic) {
  const track::Track t = track::Track::paper_oval();
  Camera cam1(CameraConfig{}, util::Rng(1));
  Camera cam2(CameraConfig{}, util::Rng(2));
  const Image a = cam1.render(t, state_at(t, 1.0));
  const Image b = cam2.render(t, state_at(t, 1.0));
  EXPECT_EQ(a.pixels(), b.pixels());
}

TEST(Camera, RealProfileAddsNoise) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  cfg.noise = CameraNoise::real_car();
  Camera cam(cfg, util::Rng(3));
  const Image a = cam.render(t, state_at(t, 1.0));
  const Image b = cam.render(t, state_at(t, 1.0));
  EXPECT_NE(a.pixels(), b.pixels());
}

TEST(Camera, LateralOffsetShiftsImage) {
  // When the car sits left of center, the left tape line moves toward the
  // image center: the column-weighted brightness center shifts right.
  const track::Track t = track::Track::paper_oval();
  Camera cam(CameraConfig{}, util::Rng(1));
  auto brightness_center = [](const Image& img) {
    double num = 0, den = 0;
    for (std::size_t y = img.height() / 2; y < img.height(); ++y) {
      for (std::size_t x = 0; x < img.width(); ++x) {
        const double w = img.at(x, y);
        num += w * static_cast<double>(x);
        den += w;
      }
    }
    return num / den;
  };
  const Image centered = cam.render(t, state_at(t, 0.8, 0.0));
  const Image left = cam.render(t, state_at(t, 0.8, +0.15));
  const Image right = cam.render(t, state_at(t, 0.8, -0.15));
  EXPECT_GT(brightness_center(left), brightness_center(centered) - 5);
  // The two offset frames must differ measurably.
  double diff = 0;
  for (std::size_t i = 0; i < left.pixels().size(); ++i) {
    diff += std::abs(left.pixels()[i] - right.pixels()[i]);
  }
  EXPECT_GT(diff / static_cast<double>(left.size()), 0.01);
}

TEST(Camera, HeadingOffsetChangesView) {
  const track::Track t = track::Track::paper_oval();
  Camera cam(CameraConfig{}, util::Rng(1));
  const Image straight = cam.render(t, state_at(t, 0.8, 0.0, 0.0));
  const Image yawed = cam.render(t, state_at(t, 0.8, 0.0, 0.3));
  EXPECT_NE(straight.pixels(), yawed.pixels());
}

TEST(Camera, OffTrackViewIsMostlyFloor) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  vehicle::CarState st;
  st.pos = {0.0, -5.0};  // well off the track
  st.heading = M_PI;     // facing away
  const Image img = cam.render(t, st);
  // Ground pixels should all be floor-valued (attenuated).
  int bright = 0;
  for (float p : img.pixels()) bright += (p > 0.3f);
  EXPECT_LT(bright, static_cast<int>(img.size() / 10));
}

TEST(Camera, CustomResolutionRespected) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  cfg.width = 64;
  cfg.height = 48;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  EXPECT_EQ(img.width(), 64u);
  EXPECT_EQ(img.height(), 48u);
}


// Property sweep: for every preset track and several poses, the rendered
// frame carries usable lane signal — some tape pixels, sky on top when the
// pitch allows, and determinism under the sim profile.
// The track is named by a std::string, not a const char*: gtest prints a
// pointer parameter's address into the listed test name, so the name would
// change with every build.
class CameraTrackSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(CameraTrackSweep, FrameCarriesLaneSignal) {
  const auto& [name, frac] = GetParam();
  const track::Track t = name == "paper-oval"  ? track::Track::paper_oval()
                         : name == "waveshare" ? track::Track::waveshare()
                                               : track::Track::square_loop();
  Camera cam(CameraConfig{}, util::Rng(9));
  const double s = frac * t.length();
  const Image img = cam.render(t, state_at(t, s));
  // Ground rows contain both surface and brighter tape-ish pixels.
  float lo = 1.0f, hi = 0.0f;
  for (std::size_t y = img.height() / 2; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      lo = std::min(lo, img.at(x, y));
      hi = std::max(hi, img.at(x, y));
    }
  }
  EXPECT_GT(hi - lo, 0.15f) << name << " s=" << s;
  // Deterministic under the sim profile.
  Camera cam2(CameraConfig{}, util::Rng(1234));
  EXPECT_EQ(cam2.render(t, state_at(t, s)).pixels(),
            cam.render(t, state_at(t, s)).pixels());
}

// --- The render contract -------------------------------------------------

/// Camera::render as it stood before the ground raster, with every ground
/// pixel classified through the reference ring search. `rng` plays the
/// camera's generator and advances the same way.
Image reference_render(const CameraConfig& config, util::Rng& rng,
                       const reference::RingSearch& search,
                       const track::Track& track,
                       const vehicle::CarState& state,
                       const std::vector<GroundPatch>& patches) {
  struct Vec3 {
    double x, y, z;
  };
  const std::size_t W = config.width, H = config.height;
  Image img(W, H);
  double heading = state.heading;
  double pitch = config.pitch_deg * M_PI / 180.0;
  if (config.noise.pose_jitter > 0) {
    heading += rng.normal(0, config.noise.pose_jitter);
    pitch += rng.normal(0, config.noise.pose_jitter);
  }
  const double gain =
      config.noise.exposure_jitter > 0
          ? std::max(0.5, 1.0 + rng.normal(0, config.noise.exposure_jitter))
          : 1.0;
  const double f_px = (static_cast<double>(W) / 2.0) /
                      std::tan(config.fov_deg * M_PI / 180.0 / 2.0);
  const double cp = std::cos(pitch), sp = std::sin(pitch);
  const double ch = std::cos(heading), sh = std::sin(heading);
  const Vec3 forward{cp * ch, cp * sh, -sp};
  const Vec3 right{sh, -ch, 0.0};
  const Vec3 down{-ch * sp, -sh * sp, -cp};
  const double cam_z = config.mount_height;
  const double half_w = track.half_width();
  const double tape_half = config.tape_width / 2.0;
  for (std::size_t py = 0; py < H; ++py) {
    for (std::size_t px = 0; px < W; ++px) {
      const double u =
          (static_cast<double>(px) + 0.5 - static_cast<double>(W) / 2.0) / f_px;
      const double v =
          (static_cast<double>(py) + 0.5 - static_cast<double>(H) / 2.0) / f_px;
      const Vec3 dir{forward.x + u * right.x + v * down.x,
                     forward.y + u * right.y + v * down.y,
                     forward.z + u * right.z + v * down.z};
      float value;
      if (dir.z >= -1e-9) {
        value = config.sky;
      } else {
        const double t = cam_z / -dir.z;
        const track::Vec2 hit{state.pos.x + t * dir.x, state.pos.y + t * dir.y};
        const double lat = std::abs(search.project(hit).lateral);
        if (std::abs(lat - half_w) <= tape_half) {
          value = config.tape;
        } else if (lat < half_w) {
          value = config.surface;
        } else {
          value = config.floor;
        }
        const double dist = t;
        value = static_cast<float>(value / (1.0 + 0.08 * dist));
        for (const GroundPatch& patch : patches) {
          if ((hit - patch.center).norm2() <= patch.radius * patch.radius) {
            value = patch.intensity;
          }
        }
      }
      if (config.noise.pixel_noise > 0) {
        value += static_cast<float>(rng.normal(0, config.noise.pixel_noise));
      }
      img.at(px, py) = static_cast<float>(
          std::clamp(static_cast<double>(value) * gain, 0.0, 1.0));
    }
  }
  return img;
}

bool same_bits(const Image& a, const Image& b) {
  return a.size() == b.size() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(CameraContract, FramesMatchReferenceRenderer) {
  const track::Track tracks[] = {
      track::Track::paper_oval(), track::Track::waveshare(),
      track::Track::square_loop(), track::Track::square_loop(2.0, 0.3, 0.5)};
  for (const track::Track& t : tracks) {
    const reference::RingSearch search(t);
    for (const CameraNoise noise : {CameraNoise::sim(), CameraNoise::real_car()}) {
      CameraConfig cfg;
      cfg.noise = noise;
      Camera cam(cfg, util::Rng(31));
      util::Rng ref_rng(31);
      util::Rng poses(77);
      int mismatches = 0;
      for (int i = 0; i < 120; ++i) {
        // On the lane, then off it by up to ~12 half-widths, with a heading
        // near the track's or anywhere.
        const double s = poses.uniform(0, t.length());
        const double reach = i % 3 == 0 ? 1.0 : 12.0;
        const double lateral =
            poses.uniform(-reach, reach) * t.half_width();
        vehicle::CarState st =
            state_at(t, s, lateral, poses.normal(0, 0.3));
        if (i % 4 == 3) st.heading = poses.uniform(-M_PI, M_PI);
        std::vector<GroundPatch> patches;
        if (i % 2 == 1) {
          const track::Vec2 ahead =
              st.pos + track::heading_vec(st.heading) * poses.uniform(0.2, 1.5);
          patches.push_back({ahead, poses.uniform(0.05, 0.3), 0.98f});
          patches.push_back({t.position_at(poses.uniform(0, t.length())), 0.2,
                             0.6f});
        }
        const Image got = cam.render(t, st, patches);
        const Image want = reference_render(cfg, ref_rng, search, t, st, patches);
        if (!same_bits(got, want) && ++mismatches <= 3) {
          ADD_FAILURE() << t.name() << " pose " << i << " pixel_noise "
                        << noise.pixel_noise << ": frame differs";
        }
      }
      EXPECT_EQ(mismatches, 0) << t.name();
    }
  }
}

TEST(Camera, NanPositionRendersGroundAsFloor) {
  // A pilot that steers NaN drives the car to a NaN pose. Every ground
  // pixel then classifies as floor, exactly as at a pose far off the
  // track, since a ray's ground distance does not depend on the position.
  const track::Track t = track::Track::paper_oval();
  vehicle::CarState lost;
  lost.pos = {std::numeric_limits<double>::quiet_NaN(), 0.0};
  lost.heading = 0.3;
  vehicle::CarState far_away = lost;
  far_away.pos = {0.0, -1000.0};
  Camera a(CameraConfig{}, util::Rng(5));
  Camera b(CameraConfig{}, util::Rng(5));
  const Image nan_frame = a.render(t, lost);
  EXPECT_TRUE(same_bits(nan_frame, b.render(t, far_away)));
  const CameraConfig cfg;
  for (float p : nan_frame.pixels()) {
    EXPECT_TRUE(p == cfg.sky || p < cfg.floor) << p;
  }
}

TEST(Camera, ConcurrentFirstRender) {
  // Four cameras make the first render on one fresh track at once, so the
  // ground raster is built under contention; every frame must equal a
  // single-threaded render.
  const track::Track shared = track::Track::paper_oval();
  const track::Track alone = track::Track::paper_oval();
  constexpr int kThreads = 4;
  constexpr int kFrames = 16;
  const auto pose = [&](int i) {
    return state_at(alone, alone.length() * i / kFrames, 0.05 * (i % 5 - 2),
                    0.1 * (i % 3 - 1));
  };
  std::vector<Image> want;
  Camera solo(CameraConfig{}, util::Rng(8));
  for (int i = 0; i < kFrames; ++i) want.push_back(solo.render(alone, pose(i)));

  std::vector<std::vector<Image>> got(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Camera cam(CameraConfig{}, util::Rng(8));
      for (int i = 0; i < kFrames; ++i) {
        got[w].push_back(cam.render(shared, pose(i)));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int w = 0; w < kThreads; ++w) {
    ASSERT_EQ(got[w].size(), want.size());
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(same_bits(got[w][i], want[i])) << "thread " << w << " frame " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TrackPoses, CameraTrackSweep,
    ::testing::Combine(::testing::Values("paper-oval", "waveshare",
                                         "square-loop"),
                       ::testing::Values(0.05, 0.3, 0.62, 0.9)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>& i) {
      std::string name = std::get<0>(i.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(static_cast<int>(
                               std::get<1>(i.param) * 100));
    });

}  // namespace
}  // namespace autolearn::camera
