#include "track/track.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.hpp"

namespace autolearn::track {

Track::Track(std::string name, std::vector<PathSample> centerline,
             double width)
    : name_(std::move(name)),
      samples_(std::move(centerline)),
      width_(width),
      ground_cache_(make_ground_cache()) {
  if (samples_.size() < 8) {
    throw std::invalid_argument("Track: centerline too short");
  }
  if (!std::isfinite(width_) || width_ <= 0) {
    throw std::invalid_argument("Track: width must be finite and > 0");
  }
  for (const PathSample& smp : samples_) {
    if (!std::isfinite(smp.pos.x) || !std::isfinite(smp.pos.y) ||
        !std::isfinite(smp.heading) || !std::isfinite(smp.curvature) ||
        !std::isfinite(smp.s)) {
      throw std::invalid_argument("Track: non-finite centerline sample");
    }
  }
  length_ = samples_.back().s;
  if (length_ <= 0) throw std::invalid_argument("Track: zero length");
  build_grid();
}

double Track::wrap_s(double s) const {
  s = std::fmod(s, length_);
  if (s < 0) s += length_;
  return s;
}

std::size_t Track::index_at(double s) const {
  // Samples are uniformly spaced to within segment rounding; binary search
  // keeps this exact.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), s,
      [](double v, const PathSample& smp) { return v < smp.s; });
  const std::size_t i = static_cast<std::size_t>(it - samples_.begin());
  return i == 0 ? 0 : i - 1;
}

Vec2 Track::position_at(double s) const {
  s = wrap_s(s);
  const std::size_t i = index_at(s);
  const std::size_t j = (i + 1) % samples_.size();
  const double seg = (j == 0 ? length_ : samples_[j].s) - samples_[i].s;
  const double t = seg > 0 ? (s - samples_[i].s) / seg : 0.0;
  return samples_[i].pos + (samples_[j].pos - samples_[i].pos) * t;
}

double Track::heading_at(double s) const {
  s = wrap_s(s);
  const std::size_t i = index_at(s);
  const std::size_t j = (i + 1) % samples_.size();
  const double seg = (j == 0 ? length_ : samples_[j].s) - samples_[i].s;
  const double t = seg > 0 ? (s - samples_[i].s) / seg : 0.0;
  return wrap_angle(samples_[i].heading +
                    t * angle_diff(samples_[j].heading, samples_[i].heading));
}

double Track::curvature_at(double s) const {
  return samples_[index_at(wrap_s(s))].curvature;
}

Vec2 Track::left_boundary_at(double s) const {
  return position_at(s) + heading_vec(heading_at(s)).perp() * half_width();
}

Vec2 Track::right_boundary_at(double s) const {
  return position_at(s) - heading_vec(heading_at(s)).perp() * half_width();
}

void Track::build_grid() {
  double min_x = std::numeric_limits<double>::max(), min_y = min_x;
  double max_x = -min_x, max_y = -min_x;
  for (const auto& smp : samples_) {
    min_x = std::min(min_x, smp.pos.x);
    min_y = std::min(min_y, smp.pos.y);
    max_x = std::max(max_x, smp.pos.x);
    max_y = std::max(max_y, smp.pos.y);
  }
  // Pad by a couple of lane widths so near-track queries land in the grid.
  const double pad = 2 * width_ + 1.0;
  const double span_x = (max_x - min_x + 2 * pad) / grid_.cell + 1;
  const double span_y = (max_y - min_y + 2 * pad) / grid_.cell + 1;
  const auto limit = static_cast<double>(kMaxGridCells);
  if (!(span_x <= limit && span_y <= limit && span_x * span_y <= limit)) {
    throw std::invalid_argument("Track: centerline spans too many grid cells");
  }
  grid_.min_x = min_x - pad;
  grid_.min_y = min_y - pad;
  grid_.nx = static_cast<std::size_t>(span_x);
  grid_.ny = static_cast<std::size_t>(span_y);
  // Counting sort of the samples by cell, keeping ascending index within
  // each cell.
  std::vector<std::uint32_t> cell_of(samples_.size());
  grid_.first.assign(grid_.nx * grid_.ny + 1, 0);
  for (std::size_t k = 0; k < samples_.size(); ++k) {
    const auto cx = static_cast<std::size_t>(
        (samples_[k].pos.x - grid_.min_x) / grid_.cell);
    const auto cy = static_cast<std::size_t>(
        (samples_[k].pos.y - grid_.min_y) / grid_.cell);
    cell_of[k] = static_cast<std::uint32_t>(cy * grid_.nx + cx);
    ++grid_.first[cell_of[k] + 1];
  }
  for (std::size_t c = 0; c < grid_.nx * grid_.ny; ++c) {
    grid_.first[c + 1] += grid_.first[c];
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  grid_.order.resize(samples_.size());
  grid_.bounds.assign(grid_.nx * grid_.ny, Box{kInf, kInf, -kInf, -kInf});
  std::vector<std::uint32_t> fill(grid_.first.begin(), grid_.first.end() - 1);
  for (std::uint32_t k = 0; k < samples_.size(); ++k) {
    grid_.order[fill[cell_of[k]]++] = k;
    Box& b = grid_.bounds[cell_of[k]];
    const Vec2& pos = samples_[k].pos;
    b = {std::min(b.min_x, pos.x), std::min(b.min_y, pos.y),
         std::max(b.max_x, pos.x), std::max(b.max_y, pos.y)};
  }
}

template <class Visit, class Stop>
void Track::walk_rings(long cx, long cy, Visit&& visit, Stop&& stop) const {
  const auto nx = static_cast<long>(grid_.nx);
  const auto ny = static_cast<long>(grid_.ny);
  const long max_ring = std::max(nx, ny) + 1;
  long last_ring = max_ring;
  for (long ring = 0; ring <= last_ring && !stop(ring); ++ring) {
    bool held = false;
    const auto cell = [&](long gx, long gy) {
      const std::size_t c = static_cast<std::size_t>(gy) * grid_.nx +
                            static_cast<std::size_t>(gx);
      if (grid_.first[c] == grid_.first[c + 1]) return;
      held = true;
      visit(c);
    };
    const long y_end = std::min(cy + ring, ny - 1);
    for (long gy = std::max(cy - ring, 0L); gy <= y_end; ++gy) {
      if (gy == cy - ring || gy == cy + ring) {
        const long x_end = std::min(cx + ring, nx - 1);
        for (long gx = std::max(cx - ring, 0L); gx <= x_end; ++gx) cell(gx, gy);
      } else {
        // A side row of a ring >= 1: its two end cells only.
        if (cx - ring >= 0 && cx - ring < nx) cell(cx - ring, gy);
        if (cx + ring >= 0 && cx + ring < nx) cell(cx + ring, gy);
      }
    }
    if (held && last_ring == max_ring) last_ring = std::min(max_ring, ring + 2);
  }
}

std::size_t Track::nearest_sample(const Vec2& p) const {
  // Every squared distance from a non-finite point is NaN or inf, never
  // below the starting bound, so a full scan would keep sample 0.
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) return 0;
  double best_d2 = std::numeric_limits<double>::max();
  std::size_t best = 0;
  const double fx = (p.x - grid_.min_x) / grid_.cell;
  const double fy = (p.y - grid_.min_y) / grid_.cell;
  const long max_ring = static_cast<long>(std::max(grid_.nx, grid_.ny)) + 1;
  // Rings of up to max_ring cells reach the grid only from cells within
  // max_ring of it; from farther away every ring is empty.
  const auto reachable = [max_ring](double f, std::size_t n) {
    return f >= static_cast<double>(-max_ring) &&
           f < static_cast<double>(static_cast<long>(n) + max_ring);
  };
  if (reachable(fx, grid_.nx) && reachable(fy, grid_.ny)) {
    const long cx = floor_to_long(fx);
    const long cy = floor_to_long(fy);
    // Distance, in cells, from p to the nearest edge of its own cell. Ring
    // r >= 1 lies at least (r - 1 + edge) cells from p; kSlack (meters)
    // covers rounding in that bound and in the samples' cell assignment.
    const double ex = fx - static_cast<double>(cx);
    const double ey = fy - static_cast<double>(cy);
    const double edge = std::min(std::min(ex, 1 - ex), std::min(ey, 1 - ey));
    constexpr double kSlack = 1e-9;
    const auto scan = [&](std::size_t cell) {
      // Skip a cell none of whose samples can come strictly closer: the
      // factor covers the rounding of both squared distances.
      const Box& b = grid_.bounds[cell];
      const double gx = std::max({b.min_x - p.x, p.x - b.max_x, 0.0});
      const double gy = std::max({b.min_y - p.y, p.y - b.max_y, 0.0});
      if ((gx * gx + gy * gy) * (1 - 1e-12) > best_d2) return;
      for (std::uint32_t i = grid_.first[cell]; i < grid_.first[cell + 1];
           ++i) {
        const std::uint32_t k = grid_.order[i];
        const double d2 = (samples_[k].pos - p).norm2();
        if (d2 < best_d2) {
          best_d2 = d2;
          best = k;
        }
      }
    };
    // Stop before a ring that cannot hold a strictly closer sample.
    const auto settled = [&](long ring) {
      const double reach =
          (static_cast<double>(ring - 1) + edge) * grid_.cell - kSlack;
      return reach > 0 && best_d2 <= reach * reach;
    };
    walk_rings(cx, cy, scan, settled);
    if (best_d2 < std::numeric_limits<double>::max()) return best;
  }
  // No ring held a sample: fall back to a linear scan.
  for (std::size_t k = 0; k < samples_.size(); ++k) {
    const double d2 = (samples_[k].pos - p).norm2();
    if (d2 < best_d2) {
      best_d2 = d2;
      best = k;
    }
  }
  return best;
}

std::vector<std::uint32_t> Track::scan_set(long cx, long cy) const {
  // For every point of the cell, nearest_sample() compares a subset of
  // these and keeps the same winner as a scan of all of them.
  std::vector<std::uint32_t> set;
  walk_rings(
      cx, cy,
      [&](std::size_t cell) {
        set.insert(set.end(), grid_.order.begin() + grid_.first[cell],
                   grid_.order.begin() + grid_.first[cell + 1]);
      },
      [](long) { return false; });
  if (set.empty()) {
    set.resize(samples_.size());
    for (std::uint32_t k = 0; k < set.size(); ++k) set[k] = k;
  }
  return set;
}

Projection Track::project(const Vec2& p) const {
  const PathSample& smp = samples_[nearest_sample(p)];
  // Refine along the local tangent for sub-sample accuracy.
  const Vec2 tangent = heading_vec(smp.heading);
  const Vec2 rel = p - smp.pos;
  const double along = rel.dot(tangent);

  Projection out;
  out.s = wrap_s(smp.s + along);
  out.center_point = smp.pos + tangent * along;
  out.lateral = rel.cross(tangent) * -1.0;  // >0 when p is left of travel
  out.heading = smp.heading;
  out.curvature = smp.curvature;
  out.on_track = std::abs(out.lateral) <= half_width();
  return out;
}

double Track::progress_delta(double s_prev, double s_now) const {
  double d = wrap_s(s_now) - wrap_s(s_prev);
  if (d > length_ / 2) d -= length_;
  if (d < -length_ / 2) d += length_;
  return d;
}

Track Track::from_builder(std::string name, const PathBuilder& builder,
                          double width) {
  return Track(std::move(name), builder.build(/*close_loop=*/true), width);
}

Track Track::paper_oval() {
  // Paper (§3.3): inner line 330 in, outer line 509 in, average width
  // 27.59 in. Model the tape oval as a stadium: two straights of length L
  // and two semicircular ends of centerline radius r, lane width w.
  //   inner perimeter = 2L + 2*pi*(r - w/2) = 8.382 m   (330 in)
  //   outer perimeter = 2L + 2*pi*(r + w/2) = 12.929 m  (509 in)
  // The difference fixes 2*pi*w = 4.547 m -> w = 0.724 m, within 3% of the
  // paper's measured average width (27.59 in = 0.701 m) — the published
  // dimensions are mutually consistent with a stadium shape. We keep the
  // measured width and the implied centerline perimeter
  // (330+509)/2 in = 10.655 m, and choose a turn radius that fits a
  // classroom floor.
  const double width = util::inches_to_meters(27.59);
  const double perimeter = util::inches_to_meters((330.0 + 509.0) / 2.0);
  const double turn_radius = 1.20;
  const double straight_len = (perimeter - 2 * M_PI * turn_radius) / 2.0;
  PathBuilder b({0, 0}, 0.0, 0.01);
  b.straight(straight_len)
      .arc(turn_radius, M_PI)
      .straight(straight_len)
      .arc(turn_radius, M_PI);
  return from_builder("paper-oval", b, width);
}

Track Track::waveshare() {
  // Waveshare PiRacer Pro mat analogue: rounded rectangle with an S-bend on
  // one long side, lane width ~0.45 m. Dimensions chosen to fit the
  // commercial 3.5 x 2.5 m mat footprint.
  const double width = 0.45;
  const double r = 0.55;
  PathBuilder b({0, 0}, 0.0, 0.01);
  // The S-bend displaces the front straight by +0.9 m in both x and y; the
  // back straight covers the x offset and the left side straight is 0.9 m
  // longer than the right side to cover the y offset, closing the loop.
  b.straight(1.0)
      .arc(0.45, M_PI / 2)   // S-bend out
      .arc(0.45, -M_PI / 2)  // S-bend back
      .straight(0.6)
      .arc(r, M_PI / 2)      // corner 1
      .straight(1.1)         // right side
      .arc(r, M_PI / 2)      // corner 2
      .straight(2.5)         // back straight
      .arc(r, M_PI / 2)      // corner 3
      .straight(2.0)         // left side
      .arc(r, M_PI / 2);     // corner 4
  return from_builder("waveshare", b, width);
}

Track Track::square_loop(double side, double corner_radius, double width) {
  if (side <= 2 * corner_radius) {
    throw std::invalid_argument("square_loop: side too short for corners");
  }
  const double straight = side - 2 * corner_radius;
  PathBuilder b({0, 0}, 0.0, 0.01);
  for (int i = 0; i < 4; ++i) {
    b.straight(straight).arc(corner_radius, M_PI / 2);
  }
  return from_builder("square-loop", b, width);
}

}  // namespace autolearn::track
