// Closed-loop model evaluation (§3.3 "Model Evaluation": students
// "drive [cars] around the track measuring qualities of interest (speed,
// number of errors, etc.)").
//
// The evaluator runs camera -> pilot -> (latency pipeline) -> actuation at
// a fixed control rate. When the car leaves the lane it records an error
// and, like a student, places it back on the centerline and continues.
// End-to-end command latency (inference time plus any network RTT for
// cloud/hybrid placement) is modeled with a DelayLine — this is the knob
// the E7 continuum study sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "eval/pilot.hpp"
#include "fault/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "track/track.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"
#include "vehicle/car.hpp"

namespace autolearn::eval {

struct EvalOptions {
  double duration_s = 60.0;
  double dt = 0.05;              // 20 Hz control loop
  std::size_t img_w = 32;
  std::size_t img_h = 24;
  bool real_profiles = false;    // real-car noise on vehicle and camera
  double command_latency_s = 0.0;    // fixed part (placement price, network)
  double latency_jitter_s = 0.0;     // gaussian stddev per command (network)
  double off_track_grace = 0.10;     // meters beyond the lane edge tolerated
  std::uint64_t seed = 5;
  /// Telemetry tap: called with the true car state before each control
  /// step (speed sensor / GPS feed for pilots that consume telemetry).
  std::function<void(const vehicle::CarState&)> telemetry;
  /// Optional discrete-event clock advanced in lock-step with the control
  /// loop. Chaos plans scheduled on it (partitions, degradations) then fire
  /// mid-evaluation at their exact virtual times.
  util::EventQueue* chaos_queue = nullptr;
  /// Observability sinks (either may be null): an "eval.run" span wrapping
  /// per-tick "eval.tick" spans, off-track instants, and step/error/latency
  /// metrics. Clock the tracer from chaos_queue for virtual-time spans.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct EvalResult {
  double distance_m = 0.0;
  double mean_speed = 0.0;       // m/s over the whole run
  double laps = 0.0;             // distance / track length
  std::size_t errors = 0;        // off-track events (car replaced on line)
  std::size_t steps = 0;
  double duration_s = 0.0;       // simulated run length
  std::vector<double> lap_times; // completed laps only
  /// The paper's students "compete to train models yielding a combination
  /// of fastest speed with fewest errors": laps per minute divided by
  /// (1 + errors).
  double score() const;
  double best_lap() const;       // 0 when no lap was completed
  /// Degradation observed by a resilient pilot (zeros for plain pilots);
  /// filled by evaluate_placement(Hybrid) from its circuit breaker.
  fault::DegradationStats degradation;
};

/// Runs the pilot on the track and measures driving quality.
EvalResult run_evaluation(const track::Track& track, Pilot& pilot,
                          const EvalOptions& options);

}  // namespace autolearn::eval
