// Versioned model registry with atomic hot-swap.
//
// The serving tier never touches a model directly: workers grab an
// immutable Snapshot (model + version + tag) at batch-dispatch time, so a
// publish() racing a running batch is safe — in-flight batches finish on
// the version they started with, the next dispatch sees the new one.
// Versions are 1-based and strictly monotonic; a publish from a scheduled
// event models the trainer pushing a freshly fitted model into the fleet.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ml/driving_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace autolearn::serve {

/// Immutable view of one published model. Holders keep the model alive
/// through shared ownership even after it is superseded.
struct ModelSnapshot {
  std::shared_ptr<ml::DrivingModel> model;
  std::uint64_t version = 0;
  std::string tag;  // free-form provenance ("bootstrap", "retrain-3", ...)
};

class ModelRegistry {
 public:
  ModelRegistry() = default;

  /// Optional observability sinks: publishes become "serve.model_swap"
  /// trace instants and a "serve.model.publishes" counter.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Attribution label for sharded fleets (e.g. "shard-2"); included in
  /// swap instants when non-empty so per-replica publishes stay tellable
  /// apart in one trace.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// Atomically replaces the current model; returns the new version.
  /// When a plan batch is set (set_plan_batch), the model is compiled for
  /// that batch cap before the snapshot is installed, so serving never
  /// observes a published-but-uncompiled model.
  std::uint64_t publish(std::shared_ptr<ml::DrivingModel> model,
                        std::string tag = "");

  /// Sets the cap served models compile for: every model published from
  /// now on (and the currently published one, if any) gets its
  /// CompiledModel plan attached at publish time for chunks of up to
  /// `max_batch` rows, so no served batch pays a lazy compile.
  /// `max_batch == 0` stops compiling at publish (existing plans stay
  /// attached); such models compile on their first predict instead.
  void set_plan_batch(std::size_t max_batch);

  /// Plan batch cap compiled into published models; 0 when unset.
  std::size_t plan_batch() const;

  /// Installs an existing snapshot (shared with another replica) without
  /// minting a new version: the registry's current() becomes `snapshot`
  /// and the next publish() continues from snapshot->version + 1. The
  /// replication tier uses this to bring a scaled-in replica level with
  /// the incumbents — same model object, same version, plan already
  /// attached — before the new shard admits traffic.
  void adopt(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Latest published snapshot; nullptr before the first publish.
  std::shared_ptr<const ModelSnapshot> current() const;

  bool empty() const { return current() == nullptr; }
  /// Version of the current snapshot; 0 before the first publish.
  std::uint64_t version() const;
  /// Hot-swaps performed: publishes beyond the first.
  std::size_t swaps() const;

  /// Persists the current model (a self-describing type+config+full-state
  /// bundle) as a new checkpoint generation under `key`. Returns the
  /// generation, or nullopt before the first publish.
  std::optional<std::uint64_t> checkpoint_current(
      ckpt::CheckpointStore& store, const std::string& key,
      const ml::ModelConfig& config);

  /// Warm start: rebuilds the model from the newest *valid* checkpoint
  /// generation of `key` (corrupt ones are quarantined and skipped by the
  /// store) and publishes it tagged "warm-start:gen-N" — the fleet serves
  /// its first request without retraining. Returns the published version,
  /// or nullopt when no loadable checkpoint exists.
  std::optional<std::uint64_t> warm_start(ckpt::CheckpointStore& store,
                                          const std::string& key);

 private:
  /// Attaches a plan to `model` when plan_batch_ is set; emits the
  /// "plan.compile" instant + serve.plan.* gauges when a compile actually
  /// ran (attach_plan is an idempotent no-op for an already-matching cap).
  /// Either way the plan's exec counters report into this registry's
  /// metrics.
  void compile_model(ml::DrivingModel& model, const char* reason);

  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::size_t plan_batch_ = 0;
  std::uint64_t next_version_ = 1;
  std::string label_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace autolearn::serve
