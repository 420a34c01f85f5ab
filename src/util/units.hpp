// Unit helpers. The paper specifies the default track in inches (inner line
// 330 in, outer 509 in, average width 27.59 in); the simulation works in
// meters and seconds throughout.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace autolearn::util {

inline constexpr double kMetersPerInch = 0.0254;

constexpr double inches_to_meters(double in) { return in * kMetersPerInch; }
constexpr double meters_to_inches(double m) { return m / kMetersPerInch; }

constexpr double ms_to_s(double ms) { return ms / 1000.0; }
constexpr double s_to_ms(double s) { return s * 1000.0; }

constexpr double mph_to_mps(double mph) { return mph * 0.44704; }

constexpr double kib(double n) { return n * 1024.0; }
constexpr double mib(double n) { return n * 1024.0 * 1024.0; }
constexpr double gib(double n) { return n * 1024.0 * 1024.0 * 1024.0; }

/// Steps of a fixed-rate loop: whole periods `dt` in `duration_s`. Throws
/// std::invalid_argument ("<what>: bad duration/dt") unless both are
/// finite and positive and the count fits a std::size_t.
inline std::size_t control_steps(double duration_s, double dt,
                                 const std::string& what) {
  const double steps = duration_s / dt;
  if (!(std::isfinite(duration_s) && duration_s > 0 && std::isfinite(dt) &&
        dt > 0 && steps < 0x1p64)) {
    throw std::invalid_argument(what + ": bad duration/dt");
  }
  return static_cast<std::size_t>(steps);
}

}  // namespace autolearn::util
