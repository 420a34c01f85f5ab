// Metrics-driven fleet autoscaler on the virtual clock.
//
// The scaler is a control loop riding the FleetService event queue: every
// sample_interval_s it pulls one ScaleSignals snapshot from the service
// (per-shard queue depth against the admission budget, p99 queueing
// latency over the completions since the last tick, shed rate,
// busy-worker utilization, and the live-vs-admitted shard split the
// HealthMonitor maintains) and holds it against the target bands. A
// decision needs agreement, not a spike:
//
//   scale UP    `breach_samples` CONSECUTIVE ticks where any pressure
//               signal breaches its high band (queue >= queue_high of
//               budget, p99 >= p99_high_s, shed rate > shed_high), and
//               the cooldown since the last scale event has elapsed;
//   scale DOWN  `idle_samples` CONSECUTIVE ticks where every signal sits
//               below its low band AND every admitted shard is
//               health-alive — capacity is never retired while a chaos
//               partition is masking it (that would flap: the partition
//               heals, load returns, the scaler grows right back).
//
// Hysteresis (separate consecutive-tick requirements per direction),
// cooldown, and the [min_shards, max_shards] clamp make the loop stable
// under Poisson arrival noise by construction. The loop draws no RNG and
// samples only virtual-clock state, so a seed pins the entire decision
// timeline bit-for-bit — ScaleDecision records are part of the
// ServeReport determinism contract.
//
// The scaler never touches shards itself: it asks the service for a
// resize via the Resizer callback, which may decline (already at a
// bound, fleet fully dark). Declined targets still reset the streak so a
// saturated signal cannot spin the loop.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/errors.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {

struct AutoScalerOptions {
  /// Master switch; the service only starts the loop when true.
  bool enabled = false;
  /// Sampling cadence on the virtual clock.
  double sample_interval_s = 0.05;
  /// Pressure bands, as a fraction of the per-shard admission budget the
  /// mean live-shard queue depth may reach before it counts as a breach
  /// (high) or as idle headroom (low).
  double queue_high = 0.75;
  double queue_low = 0.10;
  /// p99 queueing-latency band in seconds; 0 disables the latency signal
  /// on that side.
  double p99_high_s = 0.0;
  double p99_low_s = 0.0;
  /// Shed-rate high watermark (sheds / arrivals per tick); any tick
  /// shedding above this counts as a breach. Sheds always veto scale-down.
  double shed_high = 0.0;
  /// Busy-worker fraction the fleet must stay at or below for a tick to
  /// count toward scale-down.
  double util_low = 0.35;
  /// Hysteresis: consecutive breaching / idle ticks required.
  std::size_t breach_samples = 2;
  std::size_t idle_samples = 6;
  /// Minimum virtual seconds between scale events (either direction).
  double cooldown_s = 0.25;
  /// Shard-count clamp; the scaler never targets outside [min, max].
  std::size_t min_shards = 1;
  std::size_t max_shards = 8;
  /// Shards added or retired per scale event.
  std::size_t step = 1;

  /// Appends every violation (prefix "autoscaler.") without throwing.
  void check(ConfigIssues& out) const;
};

/// One sampling tick's view of the fleet, produced by the service.
struct ScaleSignals {
  std::size_t active_shards = 0;  // admitted (not retired) workers
  std::size_t live_shards = 0;    // active AND health-alive
  double mean_queue_depth = 0.0;  // over live shards
  double max_queue_depth = 0.0;
  double queue_budget = 1.0;      // per-shard admission budget
  double p99_s = 0.0;             // p99 queued_s of this tick's completions
  double shed_rate = 0.0;         // sheds / arrivals this tick
  double utilization = 0.0;       // busy live workers / live workers
  std::size_t arrivals = 0;       // arrivals this tick
};

/// One scale event in the deterministic timeline.
struct ScaleDecision {
  double t = 0.0;
  bool up = false;
  std::size_t from_shards = 0;
  std::size_t to_shards = 0;
  std::string reason;      // breached / idle signal, human-readable
  ScaleSignals signals;    // the tick that tipped the decision
  bool applied = false;    // resizer accepted
};

class AutoScaler {
 public:
  using Sampler = std::function<ScaleSignals(double now)>;
  /// Asked to take the fleet to `target` shards; returns whether the
  /// resize was applied.
  using Resizer = std::function<bool(std::size_t target, double now,
                                     const std::string& reason)>;

  AutoScaler(util::EventQueue& queue, AutoScalerOptions options);

  void set_sampler(Sampler sampler) { sampler_ = std::move(sampler); }
  void set_resizer(Resizer resizer) { resizer_ = std::move(resizer); }

  /// Optional sinks: every tick updates serve.autoscaler.* gauges; every
  /// scale event emits a "serve.scale" instant plus direction counters.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Begins sampling; ticks self-reschedule while the next one lands at
  /// or before `horizon_s`. Call once; sampler and resizer must be set.
  void start(double horizon_s);

  /// Runs one sampling tick immediately (the scheduled path calls this;
  /// exposed so unit tests can drive the loop by hand).
  void tick();

  const std::vector<ScaleDecision>& decisions() const { return decisions_; }
  std::size_t scale_ups() const { return scale_ups_; }
  std::size_t scale_downs() const { return scale_downs_; }
  const AutoScalerOptions& options() const { return options_; }

 private:
  void schedule_next();
  /// Non-empty = the breached band(s), e.g. "queue 0.81>=0.75".
  std::string breach_reason(const ScaleSignals& s) const;
  bool idle(const ScaleSignals& s) const;
  void decide(bool up, const ScaleSignals& signals, std::string reason);

  util::EventQueue& queue_;
  AutoScalerOptions options_;
  Sampler sampler_;
  Resizer resizer_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  double horizon_s_ = 0.0;
  bool started_ = false;
  std::size_t breach_streak_ = 0;
  std::size_t idle_streak_ = 0;
  double last_scale_t_ = -1e300;  // cooldown reference; no event yet
  std::vector<ScaleDecision> decisions_;
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;
};

}  // namespace autolearn::serve
