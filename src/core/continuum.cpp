#include "core/continuum.hpp"

#include <algorithm>
#include <stdexcept>

namespace autolearn::core {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::OnDevice: return "on-device";
    case Placement::Cloud: return "cloud";
    case Placement::Hybrid: return "hybrid";
  }
  return "?";
}

gpu::Precision pricing_precision(const ml::DrivingModel& model) {
  return model.precision() == ml::Precision::Int8 ? gpu::Precision::Int8
                                                  : gpu::Precision::Fp32;
}

double placement_latency_s(Placement placement, const ContinuumOptions& opt,
                           std::uint64_t edge_model_flops,
                           std::uint64_t cloud_model_flops) {
  const auto scaled = [&](std::uint64_t flops) {
    return static_cast<std::uint64_t>(static_cast<double>(flops) *
                                      opt.flops_scale);
  };
  // Batch-of-1 through the batched perf model (bitwise-equal to the legacy
  // single-sample accounting) so eval and serving price compute the same.
  const double edge_infer = gpu::inference_latency_s(
      gpu::device(opt.edge_device), scaled(edge_model_flops), /*batch=*/1);
  const double cloud_infer = gpu::inference_latency_s(
      gpu::device(opt.cloud_device), scaled(cloud_model_flops), /*batch=*/1);
  switch (placement) {
    case Placement::OnDevice:
      // On-device runs the edge-sized model (the big one does not hold
      // the control rate on a Pi).
      return edge_infer;
    case Placement::Cloud: return opt.network_rtt_s + cloud_infer;
    case Placement::Hybrid:
      // The loop is never blocked longer than the edge model's latency.
      return edge_infer;
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
      if (options_.tracer) {
        util::Json args = util::Json::object();
        args.set("from", util::Json(fault::to_string(from)));
        args.set("to", util::Json(fault::to_string(to)));
        args.set("t", util::Json(now));
        options_.tracer->instant("fault.breaker", "fault", std::move(args));
      }
      if (options_.metrics) {
        options_.metrics->counter("fault.breaker.transitions").inc();
        options_.metrics
            ->counter(std::string("fault.breaker.to_") +
                      fault::to_string(to))
            .inc();
      }
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
      // Batch-of-1 through the batched perf model at the model's own
      // precision: the same accounting the fleet serving tier uses for its
      // dynamic batches.
      const double cloud_infer = gpu::inference_latency_s(
          gpu::device(options_.cloud_device),
          static_cast<std::uint64_t>(
              static_cast<double>(cloud_model_.flops_per_sample()) *
              options_.flops_scale),
          /*batch=*/1, pricing_precision(cloud_model_));
      double delay = options_.network_rtt_s + cloud_infer;
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
  const auto scaled = [&](std::uint64_t flops) {
    return static_cast<std::uint64_t>(static_cast<double>(flops) *
                                      options.flops_scale);
  };
  // The evaluator derives the compute part of the command latency through
  // the batched perf model at batch 1, at the placed model's precision
  // (for fp32 models bitwise-equal to placement_latency_s);
  // command_latency_s carries only the network part.
  const std::uint64_t main_flops = main_model.flops_per_sample();
  const std::uint64_t edge_flops = edge_fallback.flops_per_sample();
  switch (placement) {
    case Placement::OnDevice: {
      opts.infer_device = &gpu::device(options.edge_device);
      opts.infer_flops = scaled(edge_flops);
      opts.infer_precision = pricing_precision(edge_fallback);
      eval::ModelPilot pilot(edge_fallback);
      return eval::run_evaluation(track, pilot, opts);
    }
    case Placement::Cloud: {
      opts.command_latency_s = options.network_rtt_s;
      opts.infer_device = &gpu::device(options.cloud_device);
      opts.infer_flops = scaled(main_flops);
      opts.infer_precision = pricing_precision(main_model);
      opts.latency_jitter_s = options.rtt_jitter_s;
      eval::ModelPilot pilot(main_model);
      return eval::run_evaluation(track, pilot, opts);
    }
    case Placement::Hybrid: {
      // The loop is never blocked longer than the edge model's latency;
      // the cloud command's extra delay flows through the pilot's pipe.
      opts.infer_device = &gpu::device(options.edge_device);
      opts.infer_flops = scaled(edge_flops);
      opts.infer_precision = pricing_precision(edge_fallback);
      HybridPilot pilot(edge_fallback, main_model, options,
                        util::Rng(eval_options.seed + 17));
      eval::EvalResult result = eval::run_evaluation(track, pilot, opts);
      result.degradation = pilot.degradation();
      return result;
    }
  }
  throw std::invalid_argument("evaluate_placement: bad placement");
}

}  // namespace autolearn::core
