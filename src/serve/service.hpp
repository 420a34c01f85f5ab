// Geo-sharded fleet inference service on the simulated clock.
//
// N cars emit observations with exponential interarrival times; a
// consistent-hash ShardRouter assigns each car to one of `shards` shard
// workers, each pinned to a testbed:: topology site and running its own
// DynamicBatcher behind its own fault::CircuitBreaker. Each worker forms
// batches (flush on cap or age-out) and executes each batch as ONE
// predict_batch call through the GEMM backbone, priced by
// core::inference_s at the batch's size. Placement semantics mirror
// core::Continuum:
//
//   OnDevice  every batch runs on the edge device spec
//   Cloud     batches ship to the shard's site; responses pay RTT+jitter;
//             the shard's breaker guards the site — denied or
//             probe-failed batches fail over to the edge spec
//   Hybrid    per-batch cost gate: the cheaper of edge vs RTT+cloud wins
//             (cloud still behind the breaker)
//
// Failure tolerance: a HealthMonitor heartbeats every shard's site on the
// virtual clock (wire `site_probe` to a chaos-partitioned net::Network).
// A shard whose site stays unreachable past the health timeout is
// declared dead: its queued requests are rerouted to surviving shards
// (bounded churn — consistent hashing moves only the dead shard's cars)
// and its future arrivals route around it; when the site heals, exactly
// those cars return. A batch already executing when its shard dies
// completes (its responses are modeled as already in flight).
//
// Elasticity: when options.autoscaler.enabled, an AutoScaler control loop
// samples the fleet every tick and calls resize() against its target
// bands. resize() grows by readmitting retired slots / appending fresh
// workers (each levelled with the incumbent model — compiled plan
// included — before it can see traffic, and admitted dead when its site
// probes dark) and shrinks by draining the top slots' queues into the
// survivors before retiring them from the ring. Slots are never
// destroyed, so in-flight event-queue callbacks stay valid; a retired
// slot idles until the next grow readmits it. Every applied resize is a
// ScaleEvent in the report, and an always-on structural invariant guards
// the consistent-hash churn contract: a grow only moves cars TO the new
// shards, a shrink only moves the retired shards' cars.
//
// Admission control: when a car's shard already holds queue_budget
// requests — or no shard is alive at all — the arrival is shed and the
// car's own edge tier answers it per-sample (graceful degradation, never
// an error), priced, recorded and traced as a batch of one on the edge
// spec. The host predicts held sheds in batches of up to max_batch, run
// when full, when a shed for another model arrives, or when a row is
// first delivered; the plan is batch-invariant, so no answer changes.
// Everything runs on one util::EventQueue with per-car and per-shard Rng
// splits, so a seed pins the arrival schedule, the batch boundaries, the
// failover AND autoscale timelines, and the whole ServeReport bit-for-bit
// — including runs with chaos-injected site partitions or load spikes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/continuum.hpp"
#include "serve/autoscaler.hpp"
#include "serve/batcher.hpp"
#include "serve/health.hpp"
#include "serve/model_registry.hpp"
#include "serve/replication.hpp"
#include "serve/report.hpp"
#include "serve/shard_router.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace autolearn::serve {

/// One offered-load window: the fleet's arrival rate is multiplied by
/// `factor` at `at` and restored to 1 at `at + duration` (duration 0 =
/// the spike lasts to the end of the run). The chaos engine's
/// FaultKind::LoadSpike drives the same knob via attach_load.
struct LoadSpike {
  double at = 0.0;
  double duration = 0.0;
  double factor = 4.0;
};

struct FleetOptions {
  std::size_t cars = 8;
  double duration_s = 10.0;            // arrival window (virtual seconds)
  double mean_interarrival_s = 0.1;    // per car, exponential
  BatcherConfig batcher;
  core::Placement placement = core::Placement::Cloud;
  /// Device specs, RTT/jitter, flops_scale, breaker config, cloud_probe,
  /// and the tracer/metrics sinks all come from here — the serving tier
  /// reuses the continuum's cost model wholesale.
  core::ContinuumOptions continuum;
  /// Admission control, per shard: arrivals finding this many requests
  /// pending at their shard are shed to per-sample edge execution.
  std::size_t queue_budget = 64;
  /// Observation geometry for synthetic fleet frames; must match the
  /// served model's input (ml::ModelConfig defaults).
  std::size_t img_w = 32;
  std::size_t img_h = 24;
  std::uint64_t seed = 1;

  // --- sharding ------------------------------------------------------------
  /// Shard workers the fleet STARTS with (1 = the pre-sharding
  /// single-worker service, bit-for-bit). The autoscaler may move the
  /// active count within its own [min_shards, max_shards] clamp.
  std::size_t shards = 1;
  /// testbed:: topology site each shard is pinned to, cycled when shorter
  /// than `shards`. Empty: testbed::shard_sites() (the two principal
  /// Chameleon sites, alternating). Scaled-in shards keep cycling the
  /// same list.
  std::vector<std::string> sites;
  /// Virtual ring points per shard (consistent-hash smoothing).
  std::size_t ring_replicas = 64;
  /// Heartbeat cadence and death timeout for the health monitor. The
  /// monitor only runs when `site_probe` is set — with no probe there is
  /// nothing that can fail.
  HealthOptions health;
  /// Reachability of a shard's pinned site at virtual time `now`; wire to
  /// a chaos-partitioned network, e.g.
  ///   opt.site_probe = [&net](const std::string& site, double) {
  ///     return net.route(testbed::kCampusGateway, site).has_value();
  ///   };
  /// Drives BOTH the per-batch breaker probe and the health monitor's
  /// heartbeats. Unset: fall back to continuum.cloud_probe (all sites
  /// share one cloud), else always reachable.
  std::function<bool(const std::string& site, double now)> site_probe;

  // --- autoscaling ---------------------------------------------------------
  /// Control-loop bands and hysteresis; disabled by default, so existing
  /// fixed-shard runs are untouched.
  AutoScalerOptions autoscaler;
  /// Deterministic offered-load windows (e.g. a 4x rush hour) scheduled
  /// at run() time — the stimulus the autoscale experiments drive.
  std::vector<LoadSpike> load_spikes;

  /// Appends every violation (prefix "fleet." / nested struct prefixes)
  /// without throwing.
  void check(ConfigIssues& out) const;
};

class FleetService {
 public:
  /// Single-registry mode: every shard worker reads `registry` (shared,
  /// unreplicated — canary rollouts need the replicated constructor).
  /// The service borrows the queue so tests can co-schedule hot-swaps or
  /// chaos on the same clock. Scaled-in shards read the same registry.
  FleetService(util::EventQueue& queue, ModelRegistry& registry,
               FleetOptions options);

  /// Replicated mode: shard i reads `registry.shard(i)`; the registry
  /// must have at least options.shards replicas (extras idle until a
  /// scale-up claims them). This is the path canary rollouts and
  /// rollbacks run through; a scale-up past the replica count calls
  /// registry.add_replica(), so the newcomer serves the incumbent model
  /// (compiled plan included) before it admits traffic.
  FleetService(util::EventQueue& queue, ReplicatedRegistry& registry,
               FleetOptions options);

  /// Runs the full scenario: arrivals for duration_s, then drains the
  /// queue (partial batches force-flush). Call once.
  ServeReport run();

  /// Takes the fleet to `target` active shards (grow or shrink) at the
  /// current virtual time; records a ScaleEvent and enforces the bounded-
  /// churn invariant. Returns false (and does nothing) when the target
  /// equals the active count or the run is already draining. This is the
  /// AutoScaler's Resizer; tests may call it directly on the queue.
  bool resize(std::size_t target, const std::string& reason);

  /// Offered-load multiplier applied to every car's arrival rate from now
  /// on (mean interarrival divided by `factor`). The chaos engine's
  /// LoadSpike faults call this via ChaosEngine::attach_load.
  void set_load_factor(double factor);
  double load_factor() const { return load_factor_; }

  /// Shard 0's breaker (single-shard compatibility accessor).
  const fault::CircuitBreaker& breaker() const { return breaker(0); }
  const fault::CircuitBreaker& breaker(std::size_t shard) const;
  const ShardRouter& router() const { return router_; }
  /// Null when no site_probe was configured.
  const HealthMonitor* health() const { return health_.get(); }
  /// Null when options.autoscaler.enabled is false.
  const AutoScaler* autoscaler() const { return scaler_.get(); }
  /// Admitted (non-retired) workers right now.
  std::size_t active_shards() const { return active_shards_; }

 private:
  /// Sheds held for one predict of their model; predictions stay empty
  /// until it runs. Each shed's deliver event shares it and reads its row.
  struct HeldSheds {
    std::shared_ptr<ml::DrivingModel> model;
    std::vector<ml::Sample> samples;
    std::vector<ml::Prediction> predictions;
  };

  struct Shard {
    std::string site;
    ModelRegistry* registry = nullptr;
    std::unique_ptr<DynamicBatcher> batcher;
    std::unique_ptr<fault::CircuitBreaker> breaker;
    util::Rng jitter_rng{0};
    bool busy = false;
    bool deadline_armed = false;
    bool awaiting_recovery = false;
    bool retired = false;  // scaled out; slot idles until readmitted
    std::size_t denied_batches = 0;
    std::size_t cloud_requests = 0;
    double recovery_latency_s = 0.0;
  };

  void init(std::vector<ModelRegistry*> registries);
  void wire_breaker(std::size_t shard);
  void schedule_arrival(std::size_t car);
  void on_arrival(std::size_t car);
  void shed_request(ServeRequest request, std::size_t shard);
  void run_held_sheds();
  void try_dispatch(std::size_t shard);
  void arm_deadline(std::size_t shard);
  void dispatch_batch(std::size_t shard);
  Tier choose_tier(std::size_t shard, double now, std::size_t batch,
                   const ml::DrivingModel& model);
  bool site_reachable(std::size_t shard, double now) const;
  void on_shard_down(std::size_t shard);
  void on_shard_up(std::size_t shard);
  void deliver(ServeRecord record);
  void set_queue_gauge(std::size_t shard);
  ml::Sample make_sample(util::Rng& rng,
                         const ml::DrivingModel& model) const;
  /// One autoscaler tick's fleet snapshot; drains the sampling window.
  ScaleSignals sample_signals(double now);
  /// Admits shard slot `s` (readmit or fresh), levelling its model and
  /// probing its site before it can attract traffic.
  void admit_shard(std::size_t s, double now);
  /// Routes a drained request to its owning live shard or sheds it.
  void reroute(ServeRequest request, std::vector<bool>& touched);

  util::EventQueue& queue_;
  FleetOptions options_;
  ShardRouter router_;
  std::vector<Shard> shards_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<AutoScaler> scaler_;
  ReplicatedRegistry* replicated_ = nullptr;  // null in single-registry mode
  ModelRegistry* base_registry_ = nullptr;    // single-registry mode source
  std::vector<std::string> sites_;            // resolved site cycle
  util::Rng rng_;
  std::vector<util::Rng> car_rng_;

  std::size_t active_shards_ = 0;
  double load_factor_ = 1.0;
  // Autoscaler sampling window, drained every tick.
  std::vector<double> window_queued_;
  std::size_t window_sheds_ = 0;
  std::size_t window_arrivals_ = 0;
  std::shared_ptr<HeldSheds> held_;  // null when no shed is held

  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  bool ran_ = false;

  ServeReport report_;
};

}  // namespace autolearn::serve
