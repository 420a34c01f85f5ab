// Test-side copy of Track::project as it stood before the ground raster:
// the spatial grid and its full three-ring nearest-sample search. The
// property tests in track_test and camera_test hold the library to it bit
// for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "track/track.hpp"

namespace autolearn::reference {

/// The nearest-sample search over a 0.5 m grid, scanning two rings past the
/// first ring with a candidate. Only for finite points within ~1e15 m.
class RingSearch {
 public:
  explicit RingSearch(const track::Track& t) : track_(t) {
    const auto& samples = t.centerline();
    double min_x = std::numeric_limits<double>::max(), min_y = min_x;
    double max_x = -min_x, max_y = -min_x;
    for (const auto& smp : samples) {
      min_x = std::min(min_x, smp.pos.x);
      min_y = std::min(min_y, smp.pos.y);
      max_x = std::max(max_x, smp.pos.x);
      max_y = std::max(max_y, smp.pos.y);
    }
    const double pad = 2 * t.width() + 1.0;
    min_x_ = min_x - pad;
    min_y_ = min_y - pad;
    nx_ = static_cast<std::size_t>((max_x - min_x + 2 * pad) / cell_) + 1;
    ny_ = static_cast<std::size_t>((max_y - min_y + 2 * pad) / cell_) + 1;
    cells_.assign(nx_ * ny_, {});
    for (std::uint32_t k = 0; k < samples.size(); ++k) {
      const auto cx =
          static_cast<std::size_t>((samples[k].pos.x - min_x_) / cell_);
      const auto cy =
          static_cast<std::size_t>((samples[k].pos.y - min_y_) / cell_);
      cells_[cy * nx_ + cx].push_back(k);
    }
  }

  track::Projection project(const track::Vec2& p) const {
    const auto& samples = track_.centerline();
    double best_d2 = std::numeric_limits<double>::max();
    std::size_t best = 0;
    const double fx = (p.x - min_x_) / cell_;
    const double fy = (p.y - min_y_) / cell_;
    const long cx = static_cast<long>(std::floor(fx));
    const long cy = static_cast<long>(std::floor(fy));
    const long max_ring = static_cast<long>(std::max(nx_, ny_)) + 1;
    bool found = false;
    long settle_rings = -1;
    for (long ring = 0; ring <= max_ring; ++ring) {
      if (found) {
        if (settle_rings < 0) settle_rings = ring + 1;
        if (ring > settle_rings) break;
      }
      for (long dy = -ring; dy <= ring; ++dy) {
        for (long dx = -ring; dx <= ring; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
          const long gx = cx + dx, gy = cy + dy;
          if (gx < 0 || gy < 0 || gx >= static_cast<long>(nx_) ||
              gy >= static_cast<long>(ny_)) {
            continue;
          }
          for (std::uint32_t k : cells_[static_cast<std::size_t>(gy) * nx_ +
                                        static_cast<std::size_t>(gx)]) {
            const double d2 = (samples[k].pos - p).norm2();
            if (d2 < best_d2) {
              best_d2 = d2;
              best = k;
              found = true;
            }
          }
        }
      }
    }
    if (!found) {
      for (std::size_t k = 0; k < samples.size(); ++k) {
        const double d2 = (samples[k].pos - p).norm2();
        if (d2 < best_d2) {
          best_d2 = d2;
          best = k;
        }
      }
    }
    const track::PathSample& smp = samples[best];
    const track::Vec2 tangent = track::heading_vec(smp.heading);
    const track::Vec2 rel = p - smp.pos;
    const double along = rel.dot(tangent);
    track::Projection out;
    out.s = track_.wrap_s(smp.s + along);
    out.center_point = smp.pos + tangent * along;
    out.lateral = rel.cross(tangent) * -1.0;
    out.heading = smp.heading;
    out.curvature = smp.curvature;
    out.on_track = std::abs(out.lateral) <= track_.half_width();
    return out;
  }

 private:
  const track::Track& track_;
  double cell_ = 0.5;
  double min_x_ = 0, min_y_ = 0;
  std::size_t nx_ = 0, ny_ = 0;
  std::vector<std::vector<std::uint32_t>> cells_;
};

}  // namespace autolearn::reference
