#include "core/continuum.hpp"

#include <algorithm>
#include <stdexcept>

#include "gpu/perf_model.hpp"

namespace autolearn::core {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::OnDevice: return "on-device";
    case Placement::Cloud: return "cloud";
    case Placement::Hybrid: return "hybrid";
  }
  return "?";
}

double inference_s(const ContinuumOptions& options, const std::string& device,
                   const ml::DrivingModel& model, std::size_t batch) {
  const double scaled =
      static_cast<double>(model.flops_per_sample()) * options.flops_scale;
  // Negated so NaN fails too; 2^64 is the first double past uint64_t.
  if (!(scaled >= 0.0 && scaled < 0x1p64)) {
    throw std::invalid_argument(
        "inference_s: FLOPs x flops_scale must be in [0, 2^64)");
  }
  const auto flops = static_cast<std::uint64_t>(scaled);
  const gpu::Precision precision = model.precision() == ml::Precision::Int8
                                       ? gpu::Precision::Int8
                                       : gpu::Precision::Fp32;
  return gpu::inference_latency_s(gpu::device(device), flops, batch,
                                  precision);
}

double placement_latency_s(Placement placement, const ContinuumOptions& opt,
                           const ml::DrivingModel& edge_model,
                           const ml::DrivingModel& cloud_model) {
  switch (placement) {
    case Placement::OnDevice:
      // On-device runs the edge-sized model (the big one does not hold
      // the control rate on a Pi); the hybrid loop is never blocked
      // longer than it either.
    case Placement::Hybrid:
      return inference_s(opt, opt.edge_device, edge_model);
    case Placement::Cloud:
      return opt.network_rtt_s +
             inference_s(opt, opt.cloud_device, cloud_model);
  }
  throw std::invalid_argument("placement_latency: bad placement");
}

HybridPilot::HybridPilot(ml::DrivingModel& edge_model,
                         ml::DrivingModel& cloud_model,
                         const ContinuumOptions& options, util::Rng rng)
    : edge_(edge_model),
      cloud_(cloud_model),
      cloud_model_(cloud_model),
      options_(options),
      rng_(rng),
      cloud_pipe_(options.control_dt, Stamped{}),
      breaker_(options.breaker) {
  if (options_.tracer || options_.metrics) {
    breaker_.set_on_transition([this](fault::CircuitBreaker::State from,
                                      fault::CircuitBreaker::State to,
                                      double now) {
      fault::record_transition(options_.tracer, options_.metrics, from, to,
                               now);
    });
  }
}

void HybridPilot::reset() {
  // Episode reset: the evaluator calls this when the student places the
  // car back on the line. That local intervention clears the control path
  // (model state, in-flight cloud commands) but does not move the wall
  // clock, heal the network, or erase observed degradation — construct a
  // fresh pilot for an independent run.
  edge_.reset();
  cloud_.reset();
  cloud_pipe_ = util::DelayLine<Stamped>(options_.control_dt, Stamped{});
}

double HybridPilot::cloud_usage() const {
  return steps_ ? static_cast<double>(cloud_steps_) /
                      static_cast<double>(steps_)
                : 0.0;
}

fault::DegradationStats HybridPilot::degradation() const {
  fault::DegradationStats stats;
  stats.cloud_usage = cloud_usage();
  stats.failovers = breaker_.times_opened();
  stats.denied_calls = denied_;
  stats.degraded_time_s = breaker_.degraded_s(now_);
  stats.recovery_latency_s = recovery_latency_s_;
  return stats;
}

vehicle::DriveCommand HybridPilot::act(const camera::Image& frame) {
  now_ += options_.control_dt;
  ++steps_;
  // Edge model answers within the control period.
  const vehicle::DriveCommand edge_cmd = edge_.act(frame);
  // The same frame is also shipped to the cloud — unless the breaker is
  // open (a partitioned or preempted cloud) in which case the loop does
  // not even try: the edge model has already taken over.
  if (breaker_.allow(now_)) {
    const bool was_degraded =
        breaker_.state() != fault::CircuitBreaker::State::Closed;
    if (!options_.cloud_probe || options_.cloud_probe(now_)) {
      breaker_.record_success(now_);
      if (was_degraded &&
          breaker_.state() == fault::CircuitBreaker::State::Closed) {
        awaiting_recovery_ = true;  // half-open probe re-closed the breaker
      }
      const vehicle::DriveCommand cloud_cmd = cloud_.act(frame);
      double delay = options_.network_rtt_s +
                     inference_s(options_, options_.cloud_device, cloud_model_);
      if (options_.rtt_jitter_s > 0) {
        delay = std::max(0.0, rng_.normal(delay, options_.rtt_jitter_s));
      }
      cloud_pipe_.push(Stamped{cloud_cmd, now_}, delay);
    } else {
      breaker_.record_failure(now_);
    }
  } else {
    ++denied_;
    if (options_.metrics) {
      options_.metrics->counter("core.hybrid.denied").inc();
    }
  }
  if (options_.metrics) options_.metrics->counter("core.hybrid.steps").inc();
  const Stamped& freshest = cloud_pipe_.step();
  const bool cloud_fresh =
      now_ - freshest.time <= options_.hybrid_staleness_s;
  if (cloud_fresh &&
      breaker_.state() == fault::CircuitBreaker::State::Closed) {
    if (awaiting_recovery_) {
      // Full recovery: commands are flowing back through the pipe again.
      recovery_latency_s_ = now_ - breaker_.last_closed_at();
      awaiting_recovery_ = false;
    }
    ++cloud_steps_;
    if (options_.metrics) {
      options_.metrics->counter("core.hybrid.cloud_steps").inc();
    }
    return freshest.cmd;
  }
  return edge_cmd;
}

eval::EvalResult evaluate_placement(const track::Track& track,
                                    ml::DrivingModel& main_model,
                                    ml::DrivingModel& edge_fallback,
                                    Placement placement,
                                    const ContinuumOptions& options,
                                    const eval::EvalOptions& eval_options) {
  eval::EvalOptions opts = eval_options;
  opts.dt = options.control_dt;
  if (!opts.tracer) opts.tracer = options.tracer;
  if (!opts.metrics) opts.metrics = options.metrics;
  const double latency =
      placement_latency_s(placement, options, edge_fallback, main_model);
  if (placement == Placement::Cloud) {
    // The cloud price carries the network RTT, so it replaces the fixed
    // latency; on the car the inference adds to it.
    opts.command_latency_s = latency;
    opts.latency_jitter_s = options.rtt_jitter_s;
    eval::ModelPilot pilot(main_model);
    return eval::run_evaluation(track, pilot, opts);
  }
  opts.command_latency_s += latency;
  if (placement == Placement::OnDevice) {
    eval::ModelPilot pilot(edge_fallback);
    return eval::run_evaluation(track, pilot, opts);
  }
  // Hybrid: the cloud command's extra delay flows through the pilot's pipe.
  HybridPilot pilot(edge_fallback, main_model, options,
                    util::Rng(eval_options.seed + 17));
  eval::EvalResult result = eval::run_evaluation(track, pilot, opts);
  result.degradation = pilot.degradation();
  return result;
}

}  // namespace autolearn::core
