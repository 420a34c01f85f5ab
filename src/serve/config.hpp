// One configuration surface for the serving tier.
//
// The serve:: subsystems each grew their own options struct — FleetOptions,
// BatcherConfig, HealthOptions, AutoScalerOptions, CanaryOptions — and a
// caller assembling a full serving stack had to validate five structs in
// the right order and catch five separate throw-on-first errors.
// ServeConfig aggregates them behind a single validate() that collects
// EVERY violation before throwing one ConfigErrorList, each entry
// carrying its dotted field() path ("autoscaler.cooldown_s",
// "batcher.max_batch", ...). One pass over a config reports all the
// typos, not just the first.
//
// Migration: the per-struct validate() methods are gone. Build a
// ServeConfig, call validate() once, and hand .fleet / .canary to the
// constructors; each constructor still throws the FIRST violation of its
// own struct as a plain ConfigError (throw_first_issue in errors.hpp).
#pragma once

#include "serve/autoscaler.hpp"
#include "serve/batcher.hpp"
#include "serve/errors.hpp"
#include "serve/health.hpp"
#include "serve/replication.hpp"
#include "serve/service.hpp"

namespace autolearn::serve {

struct ServeConfig {
  /// Fleet shape, sharding, admission control, autoscaling bands, load
  /// spikes — everything FleetService consumes.
  FleetOptions fleet;
  /// Canary rollout gate for ReplicatedRegistry::publish_canary.
  CanaryOptions canary;

  // Aliases into the nested structs, so call sites read uniformly
  // (config.batcher().max_batch, config.autoscaler().cooldown_s).
  BatcherConfig& batcher() { return fleet.batcher; }
  const BatcherConfig& batcher() const { return fleet.batcher; }
  HealthOptions& health() { return fleet.health; }
  const HealthOptions& health() const { return fleet.health; }
  AutoScalerOptions& autoscaler() { return fleet.autoscaler; }
  const AutoScalerOptions& autoscaler() const { return fleet.autoscaler; }

  /// Every violation across every nested struct, in declaration order;
  /// empty means the config is serveable.
  ConfigIssues issues() const;

  /// Throws ConfigErrorList carrying ALL violations (never just the
  /// first); no-op on a valid config.
  void validate() const;
};

}  // namespace autolearn::serve
