// Edge-to-cloud inference placement (§3.3/§3.4 extensions: "exploring the
// edge to cloud interaction by attempting to run inference models in the
// cloud, constructing hybrid edge cloud inference models").
//
// Three placements for the closed control loop. The Pi can only sustain
// the small edge model at the control rate; the big model needs the GPU:
//   OnDevice  the small edge model runs on the car's Pi:
//             latency = Pi inference time, quality = the small model's
//   Cloud     frames go to a GPU node running the big model:
//             latency = network RTT + GPU time, quality = the big model's
//   Hybrid    the small model answers on the Pi every step while the big
//             model's commands stream back from the cloud; the loop uses
//             the cloud command when it is fresh and falls back to the
//             edge model otherwise.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "eval/evaluator.hpp"
#include "fault/circuit_breaker.hpp"
#include "fault/report.hpp"
#include "ml/driving_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/delay_line.hpp"

namespace autolearn::core {

enum class Placement { OnDevice, Cloud, Hybrid };

const char* to_string(Placement p);

struct ContinuumOptions {
  std::string edge_device = "RaspberryPi4";
  std::string cloud_device = "V100";
  double network_rtt_s = 0.04;   // car <-> cloud round trip
  double rtt_jitter_s = 0.008;
  /// Hybrid: a cloud command older than this is considered stale and the
  /// edge model takes over.
  double hybrid_staleness_s = 0.15;
  double control_dt = 0.05;
  /// Scales model FLOPs when computing inference latency. The library's
  /// models run at reduced resolution (32x24); the paper's cars run the
  /// full DonkeyCar stack at 160x120, roughly 1500x the arithmetic. Set
  /// this to study the full-scale deployment without training it.
  double flops_scale = 1.0;
  /// Circuit breaker guarding cloud inference: consecutive unreachable
  /// probes trip it open and the edge model takes over outright (no frames
  /// shipped); half-open probes re-close it once the cloud is back.
  fault::CircuitBreakerConfig breaker;
  /// Cloud reachability probe, called with the loop's virtual time before
  /// each cloud call. Wire it to the chaos-injected network, e.g.
  ///   opt.cloud_probe = [&net](double) {
  ///     return net.route("car-01", "chi-uc").has_value();
  ///   };
  /// Unset means the cloud is always reachable (the pre-chaos behavior).
  std::function<bool(double now)> cloud_probe;
  /// Observability sinks (either may be null): breaker state transitions
  /// become "fault.breaker" trace instants and counters, cloud/edge step
  /// and denied-call counts land in the registry. evaluate_placement()
  /// forwards them into the evaluator's EvalOptions too.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The one price of an inference: seconds `batch` samples of `model` take
/// on the named device, for its FLOPs times options.flops_scale at its own
/// precision (int8 at the device's int8 throughput). Throws
/// std::invalid_argument unless FLOPs x flops_scale is in [0, 2^64).
double inference_s(const ContinuumOptions& options, const std::string& device,
                   const ml::DrivingModel& model, std::size_t batch = 1);

/// End-to-end command latency for a placement (excluding jitter): the
/// edge model on the edge device for OnDevice and Hybrid, the network RTT
/// plus the cloud model on the cloud device for Cloud.
double placement_latency_s(Placement placement, const ContinuumOptions& opt,
                           const ml::DrivingModel& edge_model,
                           const ml::DrivingModel& cloud_model);

/// Hybrid pilot: edge model answers immediately; the cloud model's answers
/// arrive RTT+GPU-time later through a delay line and override the edge
/// command while fresh.
class HybridPilot : public eval::Pilot {
 public:
  HybridPilot(ml::DrivingModel& edge_model, ml::DrivingModel& cloud_model,
              const ContinuumOptions& options, util::Rng rng);

  vehicle::DriveCommand act(const camera::Image& frame) override;
  void reset() override;
  std::string name() const override { return "hybrid"; }

  /// Fraction of steps that used the (fresh) cloud command so far.
  double cloud_usage() const;

  /// Breaker-observed degradation so far: failovers, denied cloud calls,
  /// time open, and the latency from re-close to the first cloud command
  /// actually steering the car again.
  fault::DegradationStats degradation() const;

  const fault::CircuitBreaker& breaker() const { return breaker_; }

 private:
  struct Stamped {
    vehicle::DriveCommand cmd;
    double time = -1e9;
  };

  eval::ModelPilot edge_;
  eval::ModelPilot cloud_;
  ml::DrivingModel& cloud_model_;
  ContinuumOptions options_;
  util::Rng rng_;
  util::DelayLine<Stamped> cloud_pipe_;
  fault::CircuitBreaker breaker_;
  double now_ = 0.0;
  std::size_t steps_ = 0;
  std::size_t cloud_steps_ = 0;
  std::size_t denied_ = 0;
  bool awaiting_recovery_ = false;  // breaker re-closed, cloud not used yet
  double recovery_latency_s_ = 0.0;
};

/// Evaluates a placement on a track at its placement_latency_s (or
/// builds a HybridPilot) and returns the closed-loop result.
eval::EvalResult evaluate_placement(const track::Track& track,
                                    ml::DrivingModel& main_model,
                                    ml::DrivingModel& edge_fallback,
                                    Placement placement,
                                    const ContinuumOptions& options,
                                    const eval::EvalOptions& eval_options);

}  // namespace autolearn::core
