// Aggregate outcome of a fleet serving run.
//
// Deterministic for a fixed seed and arrival schedule: the batch-boundary
// vector and the JSON snapshot are byte-for-byte reproducible, which is
// what the serve determinism tests pin.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/report.hpp"
#include "serve/request.hpp"
#include "util/json.hpp"

namespace autolearn::serve {

/// Linearly interpolated quantile q in [0, 1] of v (0 when v is empty):
/// the report's quantiles and the autoscaler's windowed p99 signal.
double quantile(std::vector<double> v, double q);

/// Per-shard slice of a fleet run; attribution for degradation under
/// chaos ("which site's loss cost what").
struct ShardStats {
  std::string site;              // testbed topology host the worker is on
  std::size_t requests = 0;      // arrivals routed to this shard
  std::size_t completed = 0;     // served by this shard's batcher
  std::size_t batches = 0;
  std::size_t shed = 0;          // admission-control sheds at this shard
  std::size_t denied = 0;        // requests denied by this shard's breaker
  std::size_t failed_over = 0;   // queued requests rerouted AWAY on death
  std::size_t rerouted_in = 0;   // failover requests absorbed FROM others
  std::size_t downs = 0;         // health-monitor death verdicts
  double admitted_at = 0.0;      // virtual time the shard joined the fleet
  double retired_at = -1.0;      // scale-down teardown time; -1 = never
};

/// One autoscaler ring resize in timeline order — part of the
/// determinism fingerprint (same seed ⇒ identical event list).
struct ScaleEvent {
  double t = 0.0;
  bool up = false;               // grow (true) or shrink
  std::size_t from_shards = 0;   // active workers before
  std::size_t to_shards = 0;     // active workers after
  std::size_t moved_cars = 0;    // keys the ring remapped
  double churn_frac = 0.0;       // moved_cars / fleet size
  std::size_t drained = 0;       // queued requests moved off retiring shards
  std::string reason;            // breached/idle band that tipped the scaler
};

struct ServeReport {
  std::size_t requests = 0;         // arrivals offered to the service
  std::size_t completed = 0;        // served through the dynamic batcher
  std::size_t shed = 0;             // admission control -> per-sample edge
  std::size_t denied = 0;           // batched while the breaker was open
  std::size_t batches = 0;
  std::size_t cloud_batches = 0;
  std::size_t edge_batches = 0;
  std::size_t failover_batches = 0;  // cloud probe failed, edge took the batch
  double duration_s = 0.0;           // makespan: first arrival to last response
  double throughput_rps = 0.0;       // completed / duration_s

  // --- sharded-fleet attribution -----------------------------------------
  std::size_t shards = 1;        // PEAK worker slots over the run
  std::size_t shard_downs = 0;   // shard death verdicts across the run
  std::size_t shard_ups = 0;     // recoveries (re-admissions) across the run
  std::size_t rebalanced = 0;    // queued requests rerouted off dead shards

  // --- autoscaling --------------------------------------------------------
  std::size_t initial_shards = 1;  // workers at t = 0
  std::size_t final_shards = 1;    // active workers when the run drained
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  /// Ring resizes in timeline order; empty when the autoscaler is off.
  std::vector<ScaleEvent> scale_events;
  /// Per-car shed counts (size = cars): who paid for saturation.
  std::vector<std::size_t> shed_by_car;
  /// Per-shard count of queued requests rerouted away when that shard
  /// died (size = shards): which site's loss forced how much churn.
  std::vector<std::size_t> failover_by_shard;
  /// Per-shard aggregates (size = shards).
  std::vector<ShardStats> shard_stats;

  /// Batch boundaries in dispatch order — the determinism fingerprint.
  std::vector<std::size_t> batch_sizes;
  /// Every finished request in completion order (shed ones included).
  std::vector<ServeRecord> records;
  /// Completed requests per model version (hot-swap visibility).
  std::map<std::uint64_t, std::size_t> requests_by_version;
  /// Breaker-observed degradation (cloud usage, failovers, denied calls).
  fault::DegradationStats degradation;

  double mean_batch() const;
  std::size_t max_batch() const;
  /// Quantile (0..1) of time spent waiting in the batcher, over completed
  /// (non-shed) requests; 0 when none completed.
  double queued_quantile_s(double q) const;
  /// Quantile of arrival-to-response time over all records.
  double total_quantile_s(double q) const;
  /// Mean |steering| over all predictions — evidence the batched forward
  /// actually ran through the model.
  double mean_abs_steering() const;

  /// Deterministic snapshot (aggregates + batch boundaries + quantiles;
  /// per-record data summarized, not dumped).
  util::Json to_json() const;
  /// One-line human-readable summary; equal runs produce equal strings.
  std::string summary() const;
};

}  // namespace autolearn::serve
