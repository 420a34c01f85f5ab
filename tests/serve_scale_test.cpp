// Fleet autoscaling: elastic consistent-hash ring resizes with bounded
// key churn, the AutoScaler control loop's hysteresis/cooldown/clamp
// stability, the unified ServeConfig collect-all validation surface, and
// end-to-end scale-up under a 4x load spike (deterministic timeline,
// zero failed requests, chaos partitions never flap the scaler).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "net/network.hpp"
#include "serve/config.hpp"
#include "serve/errors.hpp"
#include "serve/service.hpp"
#include "testbed/topology.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {
namespace {

constexpr std::size_t kKeys = 256;

std::shared_ptr<ml::DrivingModel> make_shared_model(std::uint64_t seed = 42) {
  ml::ModelConfig cfg;
  cfg.seed = seed;
  return std::shared_ptr<ml::DrivingModel>(
      ml::make_model(ml::ModelType::Linear, cfg));
}

// --- ring resize: bounded churn --------------------------------------------

TEST(ShardRouterResize, ExpectedRemapFractionMatchesShipsInTheRing) {
  EXPECT_DOUBLE_EQ(expected_remap_fraction(4, 5), 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(expected_remap_fraction(5, 4), 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(expected_remap_fraction(1, 2), 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(expected_remap_fraction(3, 3), 0.0);
  EXPECT_DOUBLE_EQ(expected_remap_fraction(0, 4), 0.0);
}

TEST(ShardRouterResize, GrowMovesKeysOnlyToNewShardsWithinExpectedFraction) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 6u}) {
    for (const std::uint64_t salt_xor : {0ull, 0xabcdefull, 0x5eedull}) {
      ShardRouterConfig cfg;
      cfg.shards = n;
      cfg.salt ^= salt_xor;
      ShardRouter r(cfg);
      const auto before = r.mapping(kKeys);

      r.resize(n + 1);
      ASSERT_EQ(r.shards(), n + 1);
      ASSERT_EQ(r.alive_count(), n + 1);
      const auto after = r.mapping(kKeys);

      std::size_t moved = 0;
      for (std::size_t k = 0; k < kKeys; ++k) {
        if (before[k] == after[k]) continue;
        ++moved;
        // Structural half of the churn contract: a grow only moves keys
        // TO the new shard, never between incumbents.
        EXPECT_EQ(after[k], n) << "n=" << n << " salt^=" << salt_xor;
      }
      EXPECT_GT(moved, 0u);
      // Statistical half: ~1/(n+1) of keys move; 64 virtual points per
      // shard leave variance, so allow 2x slack.
      const double frac =
          static_cast<double>(moved) / static_cast<double>(kKeys);
      EXPECT_LE(frac, 2.0 * expected_remap_fraction(n, n + 1))
          << "n=" << n << " salt^=" << salt_xor;
    }
  }
}

TEST(ShardRouterResize, ShrinkMovesOnlyTheRetiredShardsKeys) {
  for (const std::size_t n : {2u, 3u, 4u, 6u}) {
    ShardRouterConfig cfg;
    cfg.shards = n;
    ShardRouter r(cfg);
    const auto before = r.mapping(kKeys);

    r.resize(n - 1);
    ASSERT_EQ(r.shards(), n - 1);
    const auto after = r.mapping(kKeys);

    std::size_t moved = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
      if (before[k] == n - 1) {
        // The retired shard's keys spill to a survivor.
        EXPECT_LT(after[k], n - 1);
        ++moved;
      } else {
        // Everyone else keeps their shard.
        EXPECT_EQ(after[k], before[k]) << "n=" << n;
      }
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LE(static_cast<double>(moved) / static_cast<double>(kKeys),
              2.0 * expected_remap_fraction(n, n - 1));
  }
}

TEST(ShardRouterResize, ShrinkThenGrowRestoresTheMappingBitwise) {
  for (const std::size_t n : {2u, 4u, 7u}) {
    ShardRouterConfig cfg;
    cfg.shards = n;
    ShardRouter r(cfg);
    const auto original = r.mapping(kKeys);

    r.resize(1);
    r.resize(n);
    EXPECT_EQ(r.mapping(kKeys), original) << "n=" << n;

    // Multi-step walk lands on the same ring as a direct resize: points
    // are a pure function of (salt, shard, replica).
    r.resize(n + 3);
    const auto grown = r.mapping(kKeys);
    ShardRouterConfig direct = cfg;
    direct.shards = n + 3;
    EXPECT_EQ(ShardRouter(direct).mapping(kKeys), grown) << "n=" << n;
  }
}

TEST(ShardRouterResize, ResizeInteractsWithLiveness) {
  ShardRouterConfig cfg;
  cfg.shards = 3;
  ShardRouter r(cfg);
  r.set_alive(2, false);
  EXPECT_EQ(r.alive_count(), 2u);

  // Retiring a dead shard must not double-decrement the live count.
  r.resize(2);
  EXPECT_EQ(r.alive_count(), 2u);
  // Retiring a live shard drops it.
  r.resize(1);
  EXPECT_EQ(r.alive_count(), 1u);

  // Grown shards enter live.
  r.resize(4);
  EXPECT_EQ(r.alive_count(), 4u);
  EXPECT_THROW(r.resize(0), std::invalid_argument);
}

// --- unified ServeConfig validation ----------------------------------------

TEST(ServeConfigTest, DefaultIsValidAndAliasesReachNestedStructs) {
  ServeConfig config;
  EXPECT_TRUE(config.issues().empty());
  EXPECT_NO_THROW(config.validate());

  config.batcher().max_batch = 12;
  config.health().timeout_s = 0.08;
  config.autoscaler().max_shards = 5;
  EXPECT_EQ(config.fleet.batcher.max_batch, 12u);
  EXPECT_EQ(config.fleet.health.timeout_s, 0.08);
  EXPECT_EQ(config.fleet.autoscaler.max_shards, 5u);
}

TEST(ServeConfigTest, ValidateCollectsEveryViolationWithFieldPaths) {
  ServeConfig config;
  config.fleet.cars = 0;
  config.fleet.duration_s = -1.0;
  config.fleet.queue_budget = 0;
  config.fleet.batcher.max_batch = 0;
  config.fleet.health.timeout_s = 0.0;
  config.fleet.autoscaler.sample_interval_s = 0.0;
  config.fleet.autoscaler.cooldown_s = -0.5;
  config.fleet.autoscaler.min_shards = 4;
  config.fleet.autoscaler.max_shards = 2;
  config.canary.max_error_rate = 2.0;

  try {
    config.validate();
    FAIL() << "expected ConfigErrorList";
  } catch (const ConfigErrorList& e) {
    EXPECT_GE(e.size(), 9u);
    for (const char* field :
         {"fleet.cars", "fleet.duration_s", "fleet.queue_budget",
          "batcher.max_batch", "health.timeout_s",
          "autoscaler.sample_interval_s", "autoscaler.cooldown_s",
          "autoscaler.max_shards", "canary.max_error_rate"}) {
      EXPECT_TRUE(e.has(field)) << "missing violation for " << field
                                << "; what(): " << e.what();
    }
    // Every entry is itself a typed ConfigError with a dotted path.
    for (const ConfigError& err : e.errors()) {
      EXPECT_NE(err.field().find('.'), std::string::npos) << err.field();
    }
  }
}

TEST(ServeConfigTest, StartingShardsMustSitInsideTheAutoscalerClamp) {
  ServeConfig config;
  config.fleet.shards = 6;
  config.fleet.autoscaler.enabled = true;
  config.fleet.autoscaler.min_shards = 1;
  config.fleet.autoscaler.max_shards = 4;
  ConfigIssues issues = config.issues();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues.front().field(), "fleet.shards");

  // Disabled scaler: the clamp is irrelevant.
  config.fleet.autoscaler.enabled = false;
  EXPECT_TRUE(config.issues().empty());
}

TEST(ServeConfigTest, LoadSpikesAreValidatedUpFrontWithIndexedPaths) {
  // These used to surface only at spike-attach time, as a mid-run throw
  // from set_load_factor; validate() now collects them with the rest.
  ServeConfig config;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config.fleet.load_spikes.push_back({-1.0, 2.0, 4.0});   // negative at
  config.fleet.load_spikes.push_back({0.5, nan, 4.0});    // NaN duration
  config.fleet.load_spikes.push_back({0.5, 2.0, 0.0});    // non-positive factor
  config.fleet.load_spikes.push_back(
      {0.5, 2.0, std::numeric_limits<double>::infinity()});  // inf factor

  ConfigIssues issues = config.issues();
  EXPECT_GE(issues.size(), 4u);
  for (const char* field :
       {"fleet.load_spikes[0].at", "fleet.load_spikes[1].duration",
        "fleet.load_spikes[2].factor", "fleet.load_spikes[3].factor"}) {
    bool found = false;
    for (const ConfigError& err : issues) {
      if (err.field() == field) found = true;
    }
    EXPECT_TRUE(found) << "missing violation for " << field;
  }

  // A clean spike list stays clean.
  config.fleet.load_spikes.clear();
  config.fleet.load_spikes.push_back({0.5, 2.0, 4.0});
  EXPECT_TRUE(config.issues().empty());
}

TEST(ServeConfigTest, ConstructorsThrowFirstIssueAsConfigError) {
  AutoScalerOptions opt;
  opt.cooldown_s = -1.0;
  util::EventQueue queue;
  try {
    AutoScaler scaler(queue, opt);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "autoscaler.cooldown_s");
  }
  BatcherConfig b;
  b.max_batch = 0;
  EXPECT_THROW(DynamicBatcher{b}, ConfigError);
}

// --- AutoScaler control loop (stubbed sampler/resizer) ----------------------

struct ScalerHarness {
  util::EventQueue queue;
  AutoScaler scaler;
  ScaleSignals signals;           // what the next tick will see
  std::vector<std::size_t> targets;  // resize requests, in order

  explicit ScalerHarness(AutoScalerOptions opt) : scaler(queue, opt) {
    signals.active_shards = 2;
    signals.live_shards = 2;
    signals.queue_budget = 10.0;
    scaler.set_sampler([this](double) { return signals; });
    scaler.set_resizer(
        [this](std::size_t target, double, const std::string&) {
          targets.push_back(target);
          signals.active_shards = target;
          signals.live_shards = target;
          return true;
        });
  }
};

AutoScalerOptions unit_options() {
  AutoScalerOptions opt;
  opt.enabled = true;
  opt.sample_interval_s = 0.05;
  opt.queue_high = 0.75;
  opt.queue_low = 0.10;
  opt.breach_samples = 2;
  opt.idle_samples = 3;
  opt.cooldown_s = 0.0;
  opt.min_shards = 1;
  opt.max_shards = 4;
  return opt;
}

TEST(AutoScalerLoop, HysteresisNeedsConsecutiveBreaches) {
  ScalerHarness h(unit_options());
  h.signals.mean_queue_depth = 9.0;  // 0.9 of budget: breach
  h.scaler.tick();
  EXPECT_TRUE(h.targets.empty());  // one breach is noise

  h.signals.mean_queue_depth = 1.5;  // back under the band
  h.scaler.tick();
  h.signals.mean_queue_depth = 9.0;
  h.scaler.tick();
  EXPECT_TRUE(h.targets.empty());  // streak was broken

  h.scaler.tick();  // second CONSECUTIVE breach
  ASSERT_EQ(h.targets.size(), 1u);
  EXPECT_EQ(h.targets[0], 3u);
  EXPECT_EQ(h.scaler.scale_ups(), 1u);
  ASSERT_EQ(h.scaler.decisions().size(), 1u);
  EXPECT_TRUE(h.scaler.decisions()[0].applied);
  EXPECT_NE(h.scaler.decisions()[0].reason.find("queue"), std::string::npos);
}

TEST(AutoScalerLoop, CooldownBlocksBackToBackScales) {
  AutoScalerOptions opt = unit_options();
  opt.breach_samples = 1;
  opt.cooldown_s = 10.0;  // longer than this test's virtual time
  ScalerHarness h(opt);
  h.signals.mean_queue_depth = 9.0;
  h.scaler.tick();  // t=0: cooled (no prior event), scales
  ASSERT_EQ(h.targets.size(), 1u);
  h.scaler.tick();
  h.scaler.tick();
  EXPECT_EQ(h.targets.size(), 1u);  // still saturated, still cooling
}

TEST(AutoScalerLoop, ClampNeverTargetsOutsideBounds) {
  AutoScalerOptions opt = unit_options();
  opt.breach_samples = 1;
  opt.idle_samples = 1;
  ScalerHarness h(opt);
  h.signals.active_shards = 4;  // at max
  h.signals.live_shards = 4;
  h.signals.mean_queue_depth = 10.0;
  h.scaler.tick();
  h.scaler.tick();
  EXPECT_TRUE(h.targets.empty());  // saturated at the clamp: no decision

  h.signals.active_shards = 1;  // at min
  h.signals.live_shards = 1;
  h.signals.mean_queue_depth = 0.0;
  h.signals.utilization = 0.0;
  h.scaler.tick();
  h.scaler.tick();
  EXPECT_TRUE(h.targets.empty());
}

TEST(AutoScalerLoop, PartitionMaskedCapacityIsNeverRetired) {
  AutoScalerOptions opt = unit_options();
  opt.idle_samples = 1;
  ScalerHarness h(opt);
  h.signals.active_shards = 3;
  h.signals.live_shards = 2;  // one shard dark behind a partition
  h.signals.mean_queue_depth = 0.0;
  h.signals.utilization = 0.0;
  for (int i = 0; i < 5; ++i) h.scaler.tick();
  EXPECT_TRUE(h.targets.empty());  // idle, but shrink is vetoed

  h.signals.live_shards = 3;  // partition healed
  h.scaler.tick();
  ASSERT_EQ(h.targets.size(), 1u);
  EXPECT_EQ(h.targets[0], 2u);
  EXPECT_EQ(h.scaler.scale_downs(), 1u);
}

TEST(AutoScalerLoop, ShedsVetoScaleDownAndCountAsBreach) {
  AutoScalerOptions opt = unit_options();
  opt.idle_samples = 1;
  opt.breach_samples = 1;
  opt.shed_high = 0.0;
  ScalerHarness h(opt);
  h.signals.mean_queue_depth = 0.0;
  h.signals.shed_rate = 0.05;  // any shed above the 0 watermark
  h.scaler.tick();
  ASSERT_EQ(h.targets.size(), 1u);
  EXPECT_EQ(h.targets[0], 3u);  // scaled UP on sheds alone
}

// --- end-to-end: load spike scales the fleet up -----------------------------

FleetOptions spike_fleet_options(std::uint64_t seed) {
  FleetOptions opt;
  opt.cars = 16;
  opt.shards = 1;
  opt.duration_s = 2.0;
  opt.mean_interarrival_s = 0.02;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::OnDevice;
  // Price the model so ONE shard rides comfortably at the base load but
  // saturates under the 4x spike — the scaler has real work to do.
  opt.continuum.flops_scale = 30.0;
  opt.queue_budget = 24;
  opt.seed = seed;
  opt.autoscaler.enabled = true;
  opt.autoscaler.sample_interval_s = 0.02;
  opt.autoscaler.queue_high = 0.25;
  opt.autoscaler.queue_low = 0.05;
  opt.autoscaler.breach_samples = 2;
  opt.autoscaler.idle_samples = 10;
  opt.autoscaler.cooldown_s = 0.1;
  opt.autoscaler.min_shards = 1;
  opt.autoscaler.max_shards = 4;
  // 4x offered load during the middle of the run.
  opt.load_spikes.push_back({0.5, 0.8, 4.0});
  return opt;
}

ServeReport run_spike_fleet(std::uint64_t seed) {
  util::EventQueue queue;
  ModelRegistry registry;
  registry.publish(make_shared_model());
  FleetService service(queue, registry, spike_fleet_options(seed));
  return service.run();
}

TEST(AutoscaledFleet, FourXSpikeScalesUpWithZeroFailedRequests) {
  const ServeReport r = run_spike_fleet(11);
  ASSERT_GE(r.scale_ups, 1u);
  EXPECT_EQ(r.initial_shards, 1u);
  EXPECT_GT(r.final_shards, 0u);
  ASSERT_FALSE(r.scale_events.empty());

  // Every scale event carries the churn accounting and a band reason.
  double last_t = -1.0;
  for (const ScaleEvent& e : r.scale_events) {
    EXPECT_GT(e.t, last_t);
    last_t = e.t;
    EXPECT_NE(e.from_shards, e.to_shards);
    EXPECT_FALSE(e.reason.empty());
    EXPECT_LE(e.churn_frac, 1.0);
  }
  const ScaleEvent& first = r.scale_events.front();
  EXPECT_TRUE(first.up);
  EXPECT_GE(first.t, 0.5);  // tripped by the spike, not the warmup

  // The invariant the whole design defends: degraded, never failed.
  EXPECT_GT(r.requests, 100u);
  EXPECT_EQ(r.requests, r.completed + r.shed);
  EXPECT_EQ(r.records.size(), r.requests);

  // Added capacity restores the queueing latency: the post-spike tail
  // must not be worse than the spike's own congestion.
  std::vector<double> during;
  std::vector<double> after;
  for (const ServeRecord& rec : r.records) {
    if (rec.shed) continue;
    if (rec.t_dispatch >= 0.5 && rec.t_dispatch < 0.9) {
      during.push_back(rec.queued_s());
    } else if (rec.t_dispatch >= 1.5) {
      after.push_back(rec.queued_s());
    }
  }
  ASSERT_FALSE(during.empty());
  ASSERT_FALSE(after.empty());
  std::sort(during.begin(), during.end());
  std::sort(after.begin(), after.end());
  const double p99_during = during[(during.size() - 1) * 99 / 100];
  const double p99_after = after[(after.size() - 1) * 99 / 100];
  EXPECT_LT(p99_after, p99_during);

  // Against the fixed-size control, added capacity absorbs most of the
  // spike instead of shedding it.
  FleetOptions fixed = spike_fleet_options(11);
  fixed.autoscaler.enabled = false;
  util::EventQueue queue;
  ModelRegistry registry;
  registry.publish(make_shared_model());
  FleetService control(queue, registry, fixed);
  const ServeReport c = control.run();
  EXPECT_EQ(c.requests, r.requests);  // same arrival schedule
  EXPECT_LT(r.shed * 2, c.shed);
}

TEST(AutoscaledFleet, ScaleTimelineIsBitwiseDeterministic) {
  const ServeReport a = run_spike_fleet(11);
  const ServeReport b = run_spike_fleet(11);
  ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
  for (std::size_t i = 0; i < a.scale_events.size(); ++i) {
    EXPECT_EQ(a.scale_events[i].t, b.scale_events[i].t);
    EXPECT_EQ(a.scale_events[i].to_shards, b.scale_events[i].to_shards);
    EXPECT_EQ(a.scale_events[i].moved_cars, b.scale_events[i].moved_cars);
    EXPECT_EQ(a.scale_events[i].reason, b.scale_events[i].reason);
  }
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.summary(), b.summary());

  const ServeReport c = run_spike_fleet(12);
  EXPECT_NE(a.to_json().dump(), c.to_json().dump());
}

TEST(AutoscaledFleet, DisabledScalerLeavesTheFleetFixed) {
  FleetOptions opt = spike_fleet_options(11);
  opt.autoscaler.enabled = false;
  util::EventQueue queue;
  ModelRegistry registry;
  registry.publish(make_shared_model());
  FleetService service(queue, registry, opt);
  EXPECT_EQ(service.autoscaler(), nullptr);
  const ServeReport r = service.run();
  EXPECT_TRUE(r.scale_events.empty());
  EXPECT_EQ(r.initial_shards, r.final_shards);
  EXPECT_EQ(r.requests, r.completed + r.shed);
}

// --- end-to-end: replicated registries follow the scaler --------------------

TEST(AutoscaledFleet, ScaledInShardsServeTheIncumbentThroughNewReplicas) {
  util::EventQueue queue;
  ReplicatedRegistry registry(1);
  auto model = make_shared_model();
  const std::uint64_t version = registry.publish_all(model, "incumbent");

  FleetOptions opt = spike_fleet_options(11);
  FleetService service(queue, registry, opt);
  const ServeReport r = service.run();

  ASSERT_GE(r.scale_ups, 1u);
  ASSERT_GT(registry.shards(), 1u);
  // Every replica the scaler minted serves the incumbent snapshot —
  // same version, same model object, compiled plan attached.
  const auto incumbent = registry.shard(0).current();
  for (std::size_t s = 1; s < registry.shards(); ++s) {
    const auto replica = registry.shard(s).current();
    ASSERT_TRUE(replica);
    EXPECT_EQ(replica->version, incumbent->version);
    EXPECT_EQ(replica->model, incumbent->model);
  }
  EXPECT_NE(incumbent->model->plan(), nullptr);
  // All completed traffic ran the one published version.
  ASSERT_EQ(r.requests_by_version.size(), 1u);
  EXPECT_EQ(r.requests_by_version.begin()->first, version);
  // The grown shards actually served requests.
  std::size_t grown_completed = 0;
  for (std::size_t s = 1; s < r.shard_stats.size(); ++s) {
    grown_completed += r.shard_stats[s].completed;
    EXPECT_GT(r.shard_stats[s].admitted_at, 0.0);
  }
  EXPECT_GT(grown_completed, 0u);
  EXPECT_EQ(r.requests, r.completed + r.shed);
}

// --- end-to-end: manual resize + chaos partition mid-resize -----------------

TEST(FleetResize, ManualShrinkDrainsRetiringQueuesIntoSurvivors) {
  util::EventQueue queue;
  ModelRegistry registry;
  registry.publish(make_shared_model());

  FleetOptions opt;
  opt.cars = 16;
  opt.shards = 3;
  opt.duration_s = 1.0;
  opt.mean_interarrival_s = 0.005;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::OnDevice;
  opt.seed = 5;

  FleetService service(queue, registry, opt);
  queue.schedule_at(0.5, [&] {
    EXPECT_TRUE(service.resize(1, "manual shrink"));
    EXPECT_FALSE(service.resize(1, "no-op"));  // already there
  });
  const ServeReport r = service.run();

  ASSERT_EQ(r.scale_events.size(), 1u);
  const ScaleEvent& e = r.scale_events[0];
  EXPECT_FALSE(e.up);
  EXPECT_EQ(e.from_shards, 3u);
  EXPECT_EQ(e.to_shards, 1u);
  EXPECT_EQ(r.final_shards, 1u);
  EXPECT_EQ(r.shards, 3u);  // peak slots stay visible
  EXPECT_GE(r.shard_stats[1].retired_at, 0.5);
  EXPECT_GE(r.shard_stats[2].retired_at, 0.5);
  EXPECT_EQ(r.shard_stats[0].retired_at, -1.0);
  // Nothing queued on the retiring shards was lost.
  EXPECT_EQ(r.requests, r.completed + r.shed);
  // After the shrink every completion ran on shard 0.
  for (const ServeRecord& rec : r.records) {
    if (!rec.shed && rec.t_dispatch > 0.5) {
      EXPECT_EQ(rec.shard, 0u);
    }
  }
}

/// Chaos partitions CHI@TACC while a load spike (driven through the
/// chaos engine's LoadSpike fault) is pushing the scaler around: the
/// scaler must not retire partition-masked capacity, and no queued car
/// may be lost across the overlapping resize + failover churn.
ServeReport run_chaos_scaled_fleet(std::uint64_t seed) {
  util::EventQueue queue;
  net::Network net = testbed::chameleon_network();
  fault::ChaosEngine chaos(queue, 7);
  chaos.attach_network(net);

  ModelRegistry registry;
  registry.publish(make_shared_model());

  FleetOptions opt = spike_fleet_options(seed);
  opt.load_spikes.clear();  // the chaos engine drives the load instead
  opt.shards = 2;
  opt.site_probe = [&net](const std::string& site, double) {
    return net.route(testbed::kCampusGateway, site).has_value();
  };

  FleetService service(queue, registry, opt);
  chaos.attach_load([&service](double f) { service.set_load_factor(f); });

  fault::FaultSpec spike;
  spike.kind = fault::FaultKind::LoadSpike;
  spike.at = 0.4;
  spike.duration = 0.8;
  spike.load_mult = 4.0;
  chaos.inject(spike);

  fault::FaultSpec partition;
  partition.kind = fault::FaultKind::Partition;
  partition.at = 0.6;
  partition.duration = 0.5;
  partition.target = testbed::kSiteTACC;
  chaos.inject(partition);

  return service.run();
}

TEST(AutoscaledFleet, ChaosPartitionMidResizeNeitherFlapsNorLosesCars) {
  const ServeReport r = run_chaos_scaled_fleet(11);

  // Conservation across overlapping scale + failover churn.
  EXPECT_GT(r.requests, 100u);
  EXPECT_EQ(r.requests, r.completed + r.shed);
  EXPECT_EQ(r.records.size(), r.requests);

  // The spike still forced growth.
  EXPECT_GE(r.scale_ups, 1u);
  // No capacity was retired while the partition masked it: any down
  // event lands outside the dark window (detection starts after 0.6).
  for (const ScaleEvent& e : r.scale_events) {
    if (!e.up) {
      EXPECT_FALSE(e.t > 0.6 && e.t < 1.1)
          << "scaled down at t=" << e.t << " during the partition";
    }
  }

  // Determinism holds under chaos + elastic resize.
  const ServeReport again = run_chaos_scaled_fleet(11);
  EXPECT_EQ(r.to_json().dump(), again.to_json().dump());
}

}  // namespace
}  // namespace autolearn::serve
