// Track::ground(): ground classes from a raster certified against
// project()'s own scan sets.
//
// project() judges every point of one 0.5 m grid cell against the same
// samples, scan_set(cx, cy), and returns the one with the least computed
// squared distance. Take a square Q of half-side h and centre c inside
// the cell, and j the sample nearest c. Sample k can win at a point p of Q
// only if |p - pos_k|^2 <= |p - pos_j|^2 there. That difference is affine
// in p, so k is a candidate only if its least value over Q,
// |c - pos_k|^2 - |c - pos_j|^2 - 2h |pos_k - pos_j|_1, is <= 0 (this
// implies the looser |pos_k - c| <= |pos_j - c| + 2 * half-diagonal).
// Each candidate's lateral offset is affine over Q too, so its range is
// its value at c plus or minus h |tangent|_1. If every candidate's whole
// |lateral| range maps to one class, so does every point of Q; and a
// square inside Q has no candidates outside Q's. Each grid cell (and each
// of kBeyond cells past the grid box) holds one class when the whole cell
// certifies, and otherwise a 25x25 sub-raster of 2 cm cells, refined
// through 5x5 blocks of 10 cm. Points in 2 cm cells that straddle a class
// boundary fall back to project().
#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "track/track.hpp"

namespace autolearn::track {

namespace {

constexpr std::size_t kSub = 25;    // sub-cells per grid cell side (2 cm)
constexpr std::size_t kBlock = 5;   // sub-cells per block side (10 cm)
constexpr long kBeyond = 6;         // raster cells past the grid box per side
// Largest raster, in grid cells (a 64 m square). Classroom tracks need
// about a thousand; a larger track gets no raster, since its build time
// grows with the box's area and with how far its cells lie from the track.
constexpr std::size_t kMaxRasterCells = std::size_t{1} << 14;
constexpr std::uint8_t kMixed = 3;  // no certified class
// Slack on lateral offsets (meters) and on the candidate test (relative
// to the squared distances). It dwarfs the rounding of the computed
// distances, offsets and cell coordinates (~1e-14 m on tracks of a few
// meters).
constexpr double kEps = 1e-9;

}  // namespace

struct Track::GroundRaster {
  double tape_half = 0;
  // Raster cell (ix, iy) is grid cell (ix - kBeyond, iy - kBeyond); the
  // raster spans grid-cell coordinates [-kBeyond, x_end) x [-kBeyond, y_end).
  double x_end = 0, y_end = 0;
  long nx = 0;
  // Per raster cell: the index of its sub-raster. Sub-rasters 0, 1 and 2
  // are uniformly floor, surface and tape, and serve every cell that
  // certifies as a whole, so a lookup never branches on the cell's kind.
  std::vector<std::uint32_t> cells;
  // kSub * kSub classes per sub-raster, row-major; kMixed where none
  // certifies.
  std::vector<std::uint8_t> sub;
};

struct Track::GroundCache {
  std::mutex mu;
  std::vector<std::unique_ptr<const GroundRaster>> rasters;  // guarded by mu
};

std::shared_ptr<Track::GroundCache> Track::make_ground_cache() {
  return std::make_shared<GroundCache>();
}

std::optional<Ground> Track::GroundView::certified(const Vec2& p) const {
  if (raster_ == nullptr) return std::nullopt;
  const GroundRaster& r = *raster_;
  const Grid& g = track_->grid_;
  // project()'s own cell arithmetic, so p is judged against the samples
  // project() scans for it. NaN fails every comparison.
  const double fx = (p.x - g.min_x) / g.cell;
  const double fy = (p.y - g.min_y) / g.cell;
  constexpr auto kLow = static_cast<double>(-kBeyond);
  if (!(fx >= kLow && fx < r.x_end && fy >= kLow && fy < r.y_end)) {
    return std::nullopt;
  }
  const long cx = floor_to_long(fx), cy = floor_to_long(fy);
  constexpr auto kSubs = static_cast<long>(kSub);
  const long sx = std::min(
      kSubs - 1, static_cast<long>((fx - static_cast<double>(cx)) * kSubs));
  const long sy = std::min(
      kSubs - 1, static_cast<long>((fy - static_cast<double>(cy)) * kSubs));
  const std::uint32_t cell =
      r.cells[static_cast<std::size_t>((cy + kBeyond) * r.nx + cx + kBeyond)];
  const std::uint8_t c =
      r.sub[cell * kSub * kSub + static_cast<std::size_t>(sy * kSubs + sx)];
  if (c == kMixed) return std::nullopt;
  return static_cast<Ground>(c);
}

Ground Track::GroundView::at(const Vec2& p) const {
  if (const std::optional<Ground> c = certified(p)) return *c;
  return classify_ground(track_->project(p).lateral, track_->half_width(),
                         tape_half_);
}

std::size_t Track::GroundView::raster_bytes() const {
  if (raster_ == nullptr) return 0;
  return raster_->cells.size() * sizeof(std::uint32_t) + raster_->sub.size();
}

Track::GroundView Track::ground(double tape_half) const {
  if (!std::isfinite(tape_half) || tape_half < 0) {
    throw std::invalid_argument("Track: tape half-width must be finite and >= 0");
  }
  constexpr auto kMargin = static_cast<std::size_t>(2 * kBeyond);
  if ((grid_.nx + kMargin) * (grid_.ny + kMargin) > kMaxRasterCells) {
    return GroundView(*this, nullptr, tape_half);
  }
  GroundCache& cache = *ground_cache_;
  const std::lock_guard<std::mutex> lock(cache.mu);
  for (const auto& r : cache.rasters) {
    if (r->tape_half == tape_half) return GroundView(*this, r.get(), tape_half);
  }
  if (cache.rasters.size() == kMaxRasters) {
    return GroundView(*this, nullptr, tape_half);
  }
  cache.rasters.push_back(build_raster(tape_half));
  return GroundView(*this, cache.rasters.back().get(), tape_half);
}

std::unique_ptr<const Track::GroundRaster> Track::build_raster(
    double tape_half) const {
  // A sample as certification needs it, with its tangent exactly as
  // project() computes it.
  struct Candidate {
    Vec2 pos;
    Vec2 tangent;
    double spread;  // |tangent.x| + |tangent.y|
  };
  std::vector<Candidate> all(samples_.size());
  for (std::size_t k = 0; k < samples_.size(); ++k) {
    const Vec2 t = heading_vec(samples_[k].heading);
    all[k] = {samples_[k].pos, t, std::abs(t.x) + std::abs(t.y)};
  }
  const double half_w = half_width();
  std::vector<double> d2;

  // The class every point of the square [x, x + side] x [y, y + side] gets
  // when project() picks among `from`, or kMixed. `from` must hold every
  // sample project() can pick there; `winners` gets the subset it can
  // actually pick, which serves as `from` for squares inside this one.
  const auto certify = [&](double x, double y, double side,
                           const std::vector<Candidate>& from,
                           std::vector<Candidate>& winners) {
    const double h = side / 2;
    const Vec2 c{x + h, y + h};
    d2.resize(from.size());
    std::size_t j = 0;
    for (std::size_t i = 0; i < from.size(); ++i) {
      d2[i] = (from[i].pos - c).norm2();
      if (d2[i] < d2[j]) j = i;
    }
    // The candidate test of the file comment, against j the sample nearest
    // c. It is branch-free because whether a sample passes is
    // unpredictable.
    const Vec2 pj = from[j].pos;
    const double dj = d2[j];
    winners.resize(from.size());
    std::size_t n = 0;
    for (std::size_t i = 0; i < from.size(); ++i) {
      const Vec2 gap = from[i].pos - pj;
      const double lead = 2 * h * (std::abs(gap.x) + std::abs(gap.y));
      winners[n] = from[i];
      n += d2[i] - dj <= lead + kEps * (1 + d2[i] + dj);
    }
    winners.resize(n);
    std::uint8_t cls = kMixed;
    for (const Candidate& w : winners) {
      // The lateral offset is affine over the square: its value at the
      // centre, plus or minus h times the 1-norm of its gradient (the
      // tangent), widened by kEps.
      const double mid = (c - w.pos).cross(w.tangent) * -1.0;
      const double spread = h * w.spread + kEps;
      const double lo = mid - spread, hi = mid + spread;
      const double a_lo =
          lo <= 0 && hi >= 0 ? 0.0 : std::min(std::abs(lo), std::abs(hi));
      const double a_hi = std::max(std::abs(lo), std::abs(hi));
      // classify_ground is monotone in |lateral| (surface, tape, floor),
      // so equal classes at both ends certify the whole range.
      const Ground g = classify_ground(a_lo, half_w, tape_half);
      if (classify_ground(a_hi, half_w, tape_half) != g) return kMixed;
      const auto gc = static_cast<std::uint8_t>(g);
      if (cls != kMixed && cls != gc) return kMixed;
      cls = gc;
    }
    return cls;
  };

  auto r = std::make_unique<GroundRaster>();
  r->tape_half = tape_half;
  r->nx = static_cast<long>(grid_.nx) + 2 * kBeyond;
  const long ny = static_cast<long>(grid_.ny) + 2 * kBeyond;
  r->x_end = static_cast<double>(r->nx - kBeyond);
  r->y_end = static_cast<double>(ny - kBeyond);
  r->cells.resize(static_cast<std::size_t>(r->nx * ny));
  for (std::uint8_t g = 0; g < kMixed; ++g) {
    r->sub.insert(r->sub.end(), kSub * kSub, g);
  }

  const double cell = grid_.cell;
  const double block = cell * kBlock / kSub;
  const double fine = cell / kSub;
  std::vector<Candidate> scanned, cell_winners, block_winners, fine_winners;
  std::vector<std::uint8_t> sub(kSub * kSub);
  for (long cy = -kBeyond; cy < ny - kBeyond; ++cy) {
    for (long cx = -kBeyond; cx < r->nx - kBeyond; ++cx) {
      const double x = grid_.min_x + static_cast<double>(cx) * cell;
      const double y = grid_.min_y + static_cast<double>(cy) * cell;
      scanned.clear();
      for (std::uint32_t k : scan_set(cx, cy)) scanned.push_back(all[k]);
      std::uint8_t whole = certify(x, y, cell, scanned, cell_winners);
      if (whole == kMixed) {
        for (std::size_t by = 0; by < kSub; by += kBlock) {
          for (std::size_t bx = 0; bx < kSub; bx += kBlock) {
            const double bx0 = x + static_cast<double>(bx / kBlock) * block;
            const double by0 = y + static_cast<double>(by / kBlock) * block;
            const std::uint8_t b =
                certify(bx0, by0, block, cell_winners, block_winners);
            for (std::size_t sy = by; sy < by + kBlock; ++sy) {
              for (std::size_t sx = bx; sx < bx + kBlock; ++sx) {
                sub[sy * kSub + sx] =
                    b != kMixed
                        ? b
                        : certify(x + static_cast<double>(sx) * fine,
                                  y + static_cast<double>(sy) * fine, fine,
                                  block_winners, fine_winners);
              }
            }
          }
        }
        // A cell whose sub-cells all certify one class needs no sub-raster.
        if (std::all_of(sub.begin(), sub.end(),
                        [&](std::uint8_t c) { return c == sub[0]; })) {
          whole = sub[0];
        }
      }
      std::uint32_t& entry = r->cells[static_cast<std::size_t>(
          (cy + kBeyond) * r->nx + cx + kBeyond)];
      if (whole != kMixed) {
        entry = whole;
      } else {
        entry = static_cast<std::uint32_t>(r->sub.size() / sub.size());
        r->sub.insert(r->sub.end(), sub.begin(), sub.end());
      }
    }
  }
  return r;
}

}  // namespace autolearn::track
