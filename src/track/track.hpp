// Closed driving track with arc-length indexing.
//
// A Track owns a densely sampled closed centerline plus a (possibly
// varying) lane half-width. It answers the geometric queries the rest of
// the system needs:
//   * the expert pilot looks ahead along the centerline,
//   * the camera classifies ground points as tape, lane surface or floor,
//   * the evaluator projects the car onto the track to detect off-track
//     excursions and measure lap progress.
//
// project() finds the nearest centerline sample through a 0.5 m spatial
// grid: it scans rings of grid cells around the query's cell until two
// rings past the first candidate, or until no unscanned ring can hold a
// closer sample. Every point of one grid cell is therefore judged against
// the same set of samples, which is what lets ground() answer most camera
// queries from a raster of classes certified once per track (see
// docs/performance.md, "The camera").
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "track/geometry.hpp"
#include "track/path_builder.hpp"

namespace autolearn::track {

/// Result of projecting a world point onto the track.
struct Projection {
  double s = 0.0;             // arc length of the nearest centerline point
  double lateral = 0.0;       // signed offset, >0 left of travel direction
  double heading = 0.0;       // centerline heading at s
  double curvature = 0.0;     // centerline curvature at s
  Vec2 center_point;          // nearest centerline point
  bool on_track = false;      // |lateral| <= half-width at s
};

/// What a ground point looks like to the camera.
enum class Ground : std::uint8_t { kFloor, kSurface, kTape };

/// The one ground rule: a point whose |lateral| lies within tape_half of
/// the lane edge is tape, else one inside the lane is surface, else floor.
/// A NaN lateral is floor.
inline Ground classify_ground(double lateral, double half_width,
                              double tape_half) {
  const double lat = std::abs(lateral);
  if (std::abs(lat - half_width) <= tape_half) return Ground::kTape;
  return lat < half_width ? Ground::kSurface : Ground::kFloor;
}

class Track {
  struct GroundRaster;

 public:
  /// Ground classes under one tape half-width, for a run of queries such
  /// as the ground pixels of one camera frame. Fetch it with ground(); it
  /// stays valid while the Track it came from lives.
  class GroundView {
   public:
    /// classify_ground(project(p).lateral, half_width(), tape_half): read
    /// from the raster where it certifies p, else computed.
    Ground at(const Vec2& p) const;
    /// The raster's class at p, or nullopt where it certifies none: in
    /// cells that straddle a class boundary, outside the raster, and at
    /// non-finite points.
    std::optional<Ground> certified(const Vec2& p) const;
    /// Heap bytes the raster holds (0 without one).
    std::size_t raster_bytes() const;

   private:
    friend class Track;
    GroundView(const Track& track, const GroundRaster* raster,
               double tape_half)
        : track_(&track), raster_(raster), tape_half_(tape_half) {}
    const Track* track_;
    const GroundRaster* raster_;  // null: every query computes
    double tape_half_;
  };

  /// Builds from centerline samples (as produced by PathBuilder::build with
  /// close_loop) and a constant lane width (full width, meters). Throws
  /// std::invalid_argument for a non-finite or non-positive width, a
  /// non-finite sample field, or a centerline whose padded bounding box
  /// needs more than kMaxGridCells grid cells.
  Track(std::string name, std::vector<PathSample> centerline, double width);

  const std::string& name() const { return name_; }
  /// Total centerline length in meters.
  double length() const { return length_; }
  /// Full lane width in meters.
  double width() const { return width_; }
  double half_width() const { return width_ / 2; }

  /// Wraps an arc length into [0, length).
  double wrap_s(double s) const;

  /// Centerline pose at arc length s (interpolated, s wraps around).
  Vec2 position_at(double s) const;
  double heading_at(double s) const;
  double curvature_at(double s) const;

  /// Point on the left/right lane boundary at arc length s.
  Vec2 left_boundary_at(double s) const;
  Vec2 right_boundary_at(double s) const;

  /// Nearest-centerline projection of a world point. Exact within the
  /// sampling resolution (~2 cm for the presets). A non-finite point
  /// refines against sample 0; its lateral is not finite, so it is off
  /// track.
  Projection project(const Vec2& p) const;

  /// The ground classes for a tape half-width (finite, >= 0; throws
  /// std::invalid_argument otherwise). The first call for a tape_half
  /// builds its raster, once per Track and its copies and thread-safely;
  /// later calls take one lock. A Track keeps rasters for up to
  /// kMaxRasters tape widths; views for further widths, and every view of
  /// a track wider than about 60 m, compute each query.
  GroundView ground(double tape_half) const;

  /// Signed forward progress from s_prev to s_now, unwrapping the lap
  /// seam: moving forward across the finish line yields a small positive
  /// delta rather than -length.
  double progress_delta(double s_prev, double s_now) const;

  const std::vector<PathSample>& centerline() const { return samples_; }

  // --- Presets -----------------------------------------------------------

  /// The paper's default track: an orange-tape stadium oval with inner line
  /// 330 in, outer line 509 in, and average width 27.59 in (SC-W'23, §3.3,
  /// Fig. 3a). Geometry derivation in the .cpp.
  static Track paper_oval();

  /// A Waveshare-style commercial track: rounded rectangle with an S-bend
  /// chicane, similar complexity to the PiRacer Pro mat (Fig. 3b).
  static Track waveshare();

  /// Simple custom layouts for "modify the shape of the track" exercises.
  static Track square_loop(double side = 3.0, double corner_radius = 0.8,
                           double width = 0.7);

  /// Generic constructor from a builder.
  static Track from_builder(std::string name, const PathBuilder& builder,
                            double width);

  /// Most 0.5 m grid cells a track may need: a 1 km square.
  static constexpr std::size_t kMaxGridCells = std::size_t{1} << 22;
  /// Most ground rasters (distinct tape widths) one Track keeps.
  static constexpr std::size_t kMaxRasters = 4;

 private:
  std::size_t index_at(double s) const;

  std::string name_;
  std::vector<PathSample> samples_;
  double width_;
  double length_;
  // Spatial grid for project(), keyed on floor((x - min_x) / cell),
  // floor((y - min_y) / cell). Cell c holds samples
  // order[first[c]] .. order[first[c + 1] - 1], in ascending index, all
  // inside bounds[c].
  struct Box {
    double min_x, min_y, max_x, max_y;
  };
  struct Grid {
    static constexpr double cell = 0.5;
    double min_x = 0, min_y = 0;
    std::size_t nx = 0, ny = 0;
    std::vector<std::uint32_t> first;
    std::vector<std::uint32_t> order;
    std::vector<Box> bounds;
  } grid_;
  void build_grid();
  /// floor(f) as a long, for |f| far inside long's range (std::floor is a
  /// library call on baseline x86-64).
  static long floor_to_long(double f) {
    const auto i = static_cast<long>(f);
    return i - (static_cast<double>(i) > f);
  }
  /// Index of the sample project() refines against.
  std::size_t nearest_sample(const Vec2& p) const;
  /// project()'s ring walk around grid cell (cx, cy): rings of cells at
  /// Chebyshev distance 0, 1, ..., each row by row, left to right, calling
  /// visit(cell) for every in-grid cell that holds samples. The walk ends
  /// two rings past the first ring that holds any (or at max_ring), or
  /// earlier, before a ring for which stop(ring) is true.
  template <class Visit, class Stop>
  void walk_rings(long cx, long cy, Visit&& visit, Stop&& stop) const;
  /// Every sample project() may compare for a point in grid cell (cx, cy).
  std::vector<std::uint32_t> scan_set(long cx, long cy) const;

  std::unique_ptr<const GroundRaster> build_raster(double tape_half) const;
  // Rasters by tape_half, built on first use and shared between copies.
  struct GroundCache;
  static std::shared_ptr<GroundCache> make_ground_cache();
  std::shared_ptr<GroundCache> ground_cache_;
};

}  // namespace autolearn::track
