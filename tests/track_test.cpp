#include "track/track.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ring_search_reference.hpp"
#include "track/geometry.hpp"
#include "track/path_builder.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace autolearn::track {
namespace {

TEST(Vec2, Arithmetic) {
  Vec2 a{1, 2}, b{3, -1};
  EXPECT_DOUBLE_EQ((a + b).x, 4);
  EXPECT_DOUBLE_EQ((a - b).y, 3);
  EXPECT_DOUBLE_EQ((a * 2).y, 4);
  EXPECT_DOUBLE_EQ(a.dot(b), 1);
  EXPECT_DOUBLE_EQ(a.cross(b), -7);
  EXPECT_DOUBLE_EQ((Vec2{3, 4}.norm()), 5);
}

TEST(Vec2, PerpRotatesLeft) {
  const Vec2 east{1, 0};
  EXPECT_NEAR(east.perp().x, 0, 1e-12);
  EXPECT_NEAR(east.perp().y, 1, 1e-12);
}

TEST(Vec2, RotatedQuarterTurn) {
  const Vec2 v{1, 0};
  const Vec2 r = v.rotated(M_PI / 2);
  EXPECT_NEAR(r.x, 0, 1e-12);
  EXPECT_NEAR(r.y, 1, 1e-12);
}

TEST(Vec2, NormalizedZeroVectorSafe) {
  const Vec2 z = Vec2{0, 0}.normalized();
  EXPECT_EQ(z.x, 0);
  EXPECT_EQ(z.y, 0);
}

TEST(Angles, WrapAngle) {
  EXPECT_NEAR(wrap_angle(3 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrap_angle(-3 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrap_angle(0.5), 0.5, 1e-12);
  EXPECT_NEAR(angle_diff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-M_PI + 0.05, M_PI - 0.05), 0.1, 1e-12);
}

TEST(PathBuilder, StraightLengthAndHeading) {
  PathBuilder b({0, 0}, 0.0);
  b.straight(2.0);
  EXPECT_NEAR(b.length(), 2.0, 1e-12);
  EXPECT_NEAR(b.position().x, 2.0, 1e-12);
  EXPECT_NEAR(b.position().y, 0.0, 1e-12);
}

TEST(PathBuilder, ArcTurnsLeftAndRight) {
  PathBuilder left({0, 0}, 0.0);
  left.arc(1.0, M_PI / 2);
  EXPECT_NEAR(left.position().x, 1.0, 1e-9);
  EXPECT_NEAR(left.position().y, 1.0, 1e-9);
  EXPECT_NEAR(left.heading(), M_PI / 2, 1e-9);

  PathBuilder right({0, 0}, 0.0);
  right.arc(1.0, -M_PI / 2);
  EXPECT_NEAR(right.position().x, 1.0, 1e-9);
  EXPECT_NEAR(right.position().y, -1.0, 1e-9);
  EXPECT_NEAR(right.heading(), -M_PI / 2, 1e-9);
}

TEST(PathBuilder, ArcLengthIsRTheta) {
  PathBuilder b({0, 0}, 0.0);
  b.arc(2.0, M_PI);
  EXPECT_NEAR(b.length(), 2.0 * M_PI, 1e-9);
}

TEST(PathBuilder, RejectsBadSegments) {
  PathBuilder b;
  EXPECT_THROW(b.straight(0), std::invalid_argument);
  EXPECT_THROW(b.straight(-1), std::invalid_argument);
  EXPECT_THROW(b.arc(0, 1), std::invalid_argument);
  EXPECT_THROW(b.arc(-1, 1), std::invalid_argument);
  EXPECT_THROW(b.arc(1, 0), std::invalid_argument);
}

TEST(PathBuilder, BuildRejectsOpenLoop) {
  PathBuilder b({0, 0}, 0.0);
  b.straight(1.0);
  EXPECT_THROW(b.build(/*close_loop=*/true), std::logic_error);
  EXPECT_NO_THROW(b.build(/*close_loop=*/false));
}

TEST(PathBuilder, BuildRejectsEmptyPath) {
  PathBuilder b;
  EXPECT_THROW(b.build(false), std::logic_error);
}

TEST(PathBuilder, StadiumCloses) {
  PathBuilder b({0, 0}, 0.0);
  b.straight(2).arc(1, M_PI).straight(2).arc(1, M_PI);
  EXPECT_NO_THROW(b.build(true));
  EXPECT_NEAR(b.length(), 4 + 2 * M_PI, 1e-9);
}

TEST(PathBuilder, SamplesMonotoneInS) {
  PathBuilder b({0, 0}, 0.0);
  b.straight(1).arc(0.5, M_PI).straight(1).arc(0.5, M_PI);
  const auto samples = b.build(true);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].s, samples[i - 1].s);
  }
}

// --- Track ---------------------------------------------------------------

TEST(Track, PaperOvalMatchesPublishedDimensions) {
  const Track t = Track::paper_oval();
  // Centerline perimeter = mean of the paper's inner (330 in) and outer
  // (509 in) line lengths.
  EXPECT_NEAR(t.length(), util::inches_to_meters(419.5), 0.02);
  EXPECT_NEAR(t.width(), util::inches_to_meters(27.59), 1e-9);
}

TEST(Track, WaveshareCloses) {
  const Track t = Track::waveshare();
  EXPECT_GT(t.length(), 8.0);
  EXPECT_NEAR(t.width(), 0.45, 1e-12);
}

TEST(Track, SquareLoopLength) {
  const Track t = Track::square_loop(3.0, 0.8, 0.7);
  EXPECT_NEAR(t.length(), 4 * (3.0 - 1.6) + 2 * M_PI * 0.8, 1e-6);
}

TEST(Track, SquareLoopRejectsImpossibleGeometry) {
  EXPECT_THROW(Track::square_loop(1.0, 0.8, 0.5), std::invalid_argument);
}

TEST(Track, WrapS) {
  const Track t = Track::paper_oval();
  const double L = t.length();
  EXPECT_NEAR(t.wrap_s(L + 1.0), 1.0, 1e-9);
  EXPECT_NEAR(t.wrap_s(-1.0), L - 1.0, 1e-9);
  EXPECT_NEAR(t.wrap_s(0.5), 0.5, 1e-12);
}

TEST(Track, PositionAtWrapsAround) {
  const Track t = Track::paper_oval();
  const Vec2 a = t.position_at(0.0);
  const Vec2 b = t.position_at(t.length());
  EXPECT_NEAR(distance(a, b), 0.0, 0.02);
}

TEST(Track, HeadingFollowsStraight) {
  const Track t = Track::paper_oval();
  // First samples lie on the initial straight, heading 0.
  EXPECT_NEAR(t.heading_at(0.1), 0.0, 1e-6);
  EXPECT_NEAR(t.curvature_at(0.1), 0.0, 1e-12);
}

TEST(Track, CurvatureOnTurnIsOneOverR) {
  const Track t = Track::paper_oval();
  // Midway through the first turn (straight is ~1.56 m, turn ~3.77 m).
  const double s_turn = 1.56 + 1.8;
  EXPECT_NEAR(t.curvature_at(s_turn), 1.0 / 1.20, 1e-6);
}

TEST(Track, BoundariesAreHalfWidthFromCenter) {
  const Track t = Track::paper_oval();
  for (double s = 0; s < t.length(); s += 0.5) {
    const Vec2 c = t.position_at(s);
    EXPECT_NEAR(distance(t.left_boundary_at(s), c), t.half_width(), 1e-9);
    EXPECT_NEAR(distance(t.right_boundary_at(s), c), t.half_width(), 1e-9);
  }
}

TEST(Track, ProjectPointOnCenterline) {
  const Track t = Track::paper_oval();
  const Vec2 p = t.position_at(2.0);
  const Projection pr = t.project(p);
  EXPECT_NEAR(pr.s, 2.0, 0.02);
  EXPECT_NEAR(pr.lateral, 0.0, 0.01);
  EXPECT_TRUE(pr.on_track);
}

TEST(Track, ProjectLateralSign) {
  const Track t = Track::paper_oval();
  // On the first straight (heading +x), left is +y.
  const Vec2 left_pt{0.5, 0.2};
  const Vec2 right_pt{0.5, -0.2};
  EXPECT_GT(t.project(left_pt).lateral, 0.15);
  EXPECT_LT(t.project(right_pt).lateral, -0.15);
}

TEST(Track, ProjectDetectsOffTrack) {
  const Track t = Track::paper_oval();
  const Vec2 far{0.5, 5.0};
  const Projection pr = t.project(far);
  EXPECT_FALSE(pr.on_track);
  EXPECT_GT(std::abs(pr.lateral), 1.0);
}

TEST(Track, ProjectFarOutsideGridStillWorks) {
  const Track t = Track::paper_oval();
  const Projection pr = t.project({500.0, -900.0});
  EXPECT_FALSE(pr.on_track);
  EXPECT_GE(pr.s, 0.0);
  EXPECT_LT(pr.s, t.length());
}

TEST(Track, ProgressDeltaAcrossSeam) {
  const Track t = Track::paper_oval();
  const double L = t.length();
  EXPECT_NEAR(t.progress_delta(L - 0.1, 0.1), 0.2, 1e-9);
  EXPECT_NEAR(t.progress_delta(0.1, L - 0.1), -0.2, 1e-9);
  EXPECT_NEAR(t.progress_delta(1.0, 3.0), 2.0, 1e-9);
}

TEST(Track, ConstructorValidation) {
  PathBuilder b({0, 0}, 0.0);
  b.straight(1).arc(0.5, M_PI).straight(1).arc(0.5, M_PI);
  auto samples = b.build(true);
  EXPECT_THROW(Track("bad", samples, 0.0), std::invalid_argument);
  EXPECT_THROW(Track("bad", samples, -1.0), std::invalid_argument);
  EXPECT_THROW(Track("bad", {}, 0.5), std::invalid_argument);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Track("bad", samples, kNaN), std::invalid_argument);
  EXPECT_THROW(Track("bad", samples, kInf), std::invalid_argument);
  // A padded box of 2^22 cells is fine only up to a 1 km square.
  EXPECT_THROW(Track("bad", samples, 1e300), std::invalid_argument);
  // Every field of every sample must be finite.
  const auto with = [&](std::size_t i, auto edit) {
    auto bad = samples;
    edit(bad[i]);
    return bad;
  };
  for (std::size_t i : {std::size_t{0}, samples.size() / 2}) {
    EXPECT_THROW(Track("bad", with(i, [&](PathSample& p) { p.pos.x = kInf; }),
                       0.5),
                 std::invalid_argument);
    EXPECT_THROW(Track("bad", with(i, [&](PathSample& p) { p.pos.x = kNaN; }),
                       0.5),
                 std::invalid_argument);
    EXPECT_THROW(
        Track("bad", with(i, [&](PathSample& p) { p.pos.y = -kInf; }), 0.5),
        std::invalid_argument);
    EXPECT_THROW(
        Track("bad", with(i, [&](PathSample& p) { p.heading = kNaN; }), 0.5),
        std::invalid_argument);
    EXPECT_THROW(
        Track("bad", with(i, [&](PathSample& p) { p.curvature = kInf; }), 0.5),
        std::invalid_argument);
    EXPECT_THROW(Track("bad", with(i, [&](PathSample& p) { p.s = kNaN; }), 0.5),
                 std::invalid_argument);
    // Finite, but the grid would need ~5e17 cells.
    EXPECT_THROW(Track("bad", with(i, [&](PathSample& p) { p.pos.x = 1e15; }),
                       0.5),
                 std::invalid_argument);
  }
  // 400 m across still fits (about 800 x 16 cells).
  EXPECT_NO_THROW(
      Track("long", with(1, [&](PathSample& p) { p.pos.x = 400.0; }), 0.5));
}

TEST(Track, ProjectNonFinitePointRefinesAgainstSampleZero) {
  // Reached, e.g., by a car whose pilot steered NaN. The search used to end
  // on sample 0 after undefined float-to-integer casts; it now goes there
  // directly, so the Projection is unchanged.
  const Track t = Track::paper_oval();
  const PathSample& first = t.centerline().front();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const Vec2 p : {Vec2{kNaN, 0}, Vec2{0, kNaN}, Vec2{kNaN, kNaN},
                       Vec2{kInf, 0}, Vec2{0, -kInf}, Vec2{-kInf, kInf}}) {
    const Projection pr = t.project(p);
    EXPECT_EQ(pr.heading, first.heading);
    EXPECT_EQ(pr.curvature, first.curvature);
    EXPECT_FALSE(std::isfinite(pr.lateral));
    EXPECT_FALSE(pr.on_track);
    EXPECT_EQ(t.ground(0.025).at(p), Ground::kFloor);
    EXPECT_FALSE(t.ground(0.025).certified(p).has_value());
  }
  // Finite but so far out that every squared distance overflows.
  EXPECT_EQ(t.project({1e300, 0}).heading, first.heading);
}

TEST(Track, GroundRejectsBadTapeHalfWidth) {
  const Track t = Track::square_loop();
  EXPECT_THROW(t.ground(-0.01), std::invalid_argument);
  EXPECT_THROW(t.ground(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(t.ground(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(t.ground(0.0));
}

TEST(Track, GroundBuildsNoRasterForAHugeTrack) {
  const Track t = Track::square_loop(70.0, 1.0, 0.7);
  const auto ground = t.ground(0.025);
  EXPECT_EQ(ground.raster_bytes(), 0u);
  util::Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p = t.position_at(rng.uniform(0, t.length())) +
                   Vec2{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_EQ(ground.at(p), classify_ground(t.project(p).lateral,
                                            t.half_width(), 0.025));
  }
}

TEST(Track, GroundKeepsABoundedNumberOfRasters) {
  const Track t = Track::square_loop(2.0, 0.3, 0.5);
  const Track copy = t;  // copies share the rasters
  for (std::size_t i = 0; i < Track::kMaxRasters; ++i) {
    EXPECT_GT(t.ground(0.01 * static_cast<double>(i + 1)).raster_bytes(), 0u);
  }
  const auto extra =
      copy.ground(0.01 * static_cast<double>(Track::kMaxRasters + 1));
  EXPECT_EQ(extra.raster_bytes(), 0u);
  util::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p{rng.uniform(-1, 3), rng.uniform(-1, 3)};
    EXPECT_FALSE(extra.certified(p).has_value());
    EXPECT_EQ(extra.at(p),
              classify_ground(t.project(p).lateral, t.half_width(),
                              0.01 * static_cast<double>(Track::kMaxRasters + 1)));
  }
}

// Property sweep over all presets: geometric invariants hold everywhere.
class TrackInvariantTest : public ::testing::TestWithParam<const char*> {
 protected:
  static Track make(const std::string& name) {
    if (name == "paper-oval") return Track::paper_oval();
    if (name == "waveshare") return Track::waveshare();
    return Track::square_loop();
  }
};

TEST_P(TrackInvariantTest, CenterlinePointsProjectToThemselves) {
  const Track t = make(GetParam());
  for (double s = 0.05; s < t.length(); s += t.length() / 37) {
    const Projection pr = t.project(t.position_at(s));
    EXPECT_NEAR(std::abs(t.progress_delta(s, pr.s)), 0.0, 0.03) << "s=" << s;
    EXPECT_NEAR(pr.lateral, 0.0, 0.02);
    EXPECT_TRUE(pr.on_track);
  }
}

TEST_P(TrackInvariantTest, LateralOffsetRecovered) {
  const Track t = make(GetParam());
  for (double s = 0.1; s < t.length(); s += t.length() / 23) {
    const double off = 0.15;
    const Vec2 p = t.position_at(s) + heading_vec(t.heading_at(s)).perp() * off;
    const Projection pr = t.project(p);
    EXPECT_NEAR(pr.lateral, off, 0.03) << "s=" << s;
  }
}

TEST_P(TrackInvariantTest, HeadingIsTangent) {
  const Track t = make(GetParam());
  const double ds = 0.02;
  for (double s = 0.5; s < t.length() - 0.5; s += t.length() / 19) {
    const Vec2 d = t.position_at(s + ds) - t.position_at(s - ds);
    const double tangent_heading = std::atan2(d.y, d.x);
    EXPECT_NEAR(std::abs(angle_diff(tangent_heading, t.heading_at(s))), 0.0,
                0.05)
        << "s=" << s;
  }
}

TEST_P(TrackInvariantTest, SamplesEquallyIndexable) {
  const Track t = make(GetParam());
  EXPECT_GT(t.centerline().size(), 100u);
  EXPECT_GT(t.length(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Presets, TrackInvariantTest,
                         ::testing::Values("paper-oval", "waveshare",
                                           "square-loop"));

// --- project() and ground() against the reference search ----------------

/// The presets plus a narrow loop whose lane is barely wider than two
/// grid cells of tape.
std::vector<Track> contract_tracks() {
  return {Track::paper_oval(), Track::waveshare(), Track::square_loop(),
          Track::square_loop(2.0, 0.3, 0.5)};
}

struct Bounds {
  double min_x, min_y, max_x, max_y;
};

Bounds centerline_bounds(const Track& t) {
  Bounds b{1e300, 1e300, -1e300, -1e300};
  for (const PathSample& smp : t.centerline()) {
    b.min_x = std::min(b.min_x, smp.pos.x);
    b.min_y = std::min(b.min_y, smp.pos.y);
    b.max_x = std::max(b.max_x, smp.pos.x);
    b.max_y = std::max(b.max_y, smp.pos.y);
  }
  return b;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_projection(const Projection& a, const Projection& b) {
  return same_bits(a.s, b.s) && same_bits(a.lateral, b.lateral) &&
         same_bits(a.heading, b.heading) &&
         same_bits(a.curvature, b.curvature) &&
         same_bits(a.center_point.x, b.center_point.x) &&
         same_bits(a.center_point.y, b.center_point.y) &&
         a.on_track == b.on_track;
}

TEST(TrackContract, ProjectMatchesReferenceRingSearch) {
  for (const Track& t : contract_tracks()) {
    const reference::RingSearch ref(t);
    const Bounds b = centerline_bounds(t);
    // The grid pads the centerline's box by 2 * width + 1 m.
    const double pad = 2 * t.width() + 1.0;
    util::Rng rng(101);
    std::size_t failures = 0;
    const auto check = [&](const Vec2& p) {
      const Projection got = t.project(p);
      const Projection want = ref.project(p);
      if (!same_projection(got, want) && ++failures <= 10) {
        ADD_FAILURE() << t.name() << " p=(" << p.x << ", " << p.y << ") s "
                      << got.s << " vs " << want.s << ", lateral "
                      << got.lateral << " vs " << want.lateral;
      }
    };
    // Samples themselves, and points on the grid lines (cell edges).
    for (const PathSample& smp : t.centerline()) check(smp.pos);
    for (int i = 0; i < 20000; ++i) {
      const double gx =
          std::floor(rng.uniform(0, (b.max_x - b.min_x + 2 * pad) / 0.5));
      check({b.min_x - pad + 0.5 * gx, rng.uniform(b.min_y - pad, b.max_y + pad)});
    }
    // Near and inside the grid.
    for (int i = 0; i < 60000; ++i) {
      check({rng.uniform(b.min_x - pad - 2, b.max_x + pad + 2),
             rng.uniform(b.min_y - pad - 2, b.max_y + pad + 2)});
    }
    // Outside it, within reach of the ring search and beyond.
    for (int i = 0; i < 5000; ++i) {
      const double r = std::exp(rng.uniform(std::log(5.0), std::log(1e6)));
      const double a = rng.uniform(-M_PI, M_PI);
      check({(b.min_x + b.max_x) / 2 + r * std::cos(a),
             (b.min_y + b.max_y) / 2 + r * std::sin(a)});
    }
    EXPECT_EQ(failures, 0u) << t.name();
  }
}

TEST(TrackContract, CertifiedGroundClassesMatchProject) {
  constexpr double kTapeHalf = 0.025;
  for (const Track& t : contract_tracks()) {
    const Track::GroundView ground = t.ground(kTapeHalf);
    EXPECT_GT(ground.raster_bytes(), 0u);
    EXPECT_LT(ground.raster_bytes(), std::size_t{1} << 20) << t.name();
    const Bounds b = centerline_bounds(t);
    // The raster reaches at least the grid's pad (2 * width + 1 m) plus
    // 3 m past the centerline's box; spread points go 2 m further.
    const double inner = 2 * t.width() + 1.0 + 3.0;
    const double outer = inner + 2.0;
    const double hw = t.half_width();
    util::Rng rng(202);
    std::size_t wrong = 0, inside = 0, inside_certified = 0;
    const auto check = [&](const Vec2& p) {
      const Ground want = classify_ground(t.project(p).lateral, hw, kTapeHalf);
      const std::optional<Ground> c = ground.certified(p);
      if (c && *c != want && ++wrong <= 10) {
        ADD_FAILURE() << t.name() << " p=(" << p.x << ", " << p.y
                      << ") certified " << static_cast<int>(*c)
                      << " but project gives " << static_cast<int>(want);
      }
      if (ground.at(p) != want && ++wrong <= 10) {
        ADD_FAILURE() << t.name() << " at() disagrees at (" << p.x << ", "
                      << p.y << ")";
      }
      return c.has_value();
    };
    const std::size_t n = 1'000'000;
    // Half within 1 cm of a class boundary: |lateral| = hw -/+ tape_half.
    for (std::size_t i = 0; i < n / 2; ++i) {
      const double s = rng.uniform(0, t.length());
      const double edge = rng.uniform() < 0.5 ? hw - kTapeHalf : hw + kTapeHalf;
      const double side = rng.uniform() < 0.5 ? -1.0 : 1.0;
      const double off = side * edge + rng.uniform(-0.01, 0.01);
      check(t.position_at(s) + heading_vec(t.heading_at(s)).perp() * off);
    }
    // The rest spread over the raster and past it.
    for (std::size_t i = n / 2; i < n; ++i) {
      const Vec2 p{rng.uniform(b.min_x - outer, b.max_x + outer),
                   rng.uniform(b.min_y - outer, b.max_y + outer)};
      const bool certified = check(p);
      if (p.x > b.min_x - inner && p.x < b.max_x + inner &&
          p.y > b.min_y - inner && p.y < b.max_y + inner) {
        ++inside;
        inside_certified += certified;
      }
    }
    EXPECT_EQ(wrong, 0u) << t.name();
    // The raster must be doing the work: nearly every point it covers
    // certifies (all but those in 2 cm cells on a class boundary).
    EXPECT_GT(static_cast<double>(inside_certified),
              0.95 * static_cast<double>(inside))
        << t.name();
  }
}

}  // namespace
}  // namespace autolearn::track
