// Fleet serving tier: dynamic batcher unit tests, model registry hot-swap,
// and end-to-end FleetService runs on the simulated clock — determinism
// (same seed -> bitwise-identical batch boundaries and report), admission
// control / load shedding, and the circuit breaker guarding the cloud
// worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/errors.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {
namespace {

std::shared_ptr<ml::DrivingModel> make_shared_model(
    ml::ModelType type = ml::ModelType::Linear, std::uint64_t seed = 42) {
  ml::ModelConfig cfg;
  cfg.seed = seed;
  return std::shared_ptr<ml::DrivingModel>(ml::make_model(type, cfg));
}

// --- dynamic batcher -------------------------------------------------------

TEST(DynamicBatcher, ValidatesConfig) {
  BatcherConfig bad;
  bad.max_batch = 0;
  EXPECT_THROW(DynamicBatcher{bad}, std::invalid_argument);
  bad = BatcherConfig{};
  bad.max_delay_s = -1.0;
  EXPECT_THROW(DynamicBatcher{bad}, std::invalid_argument);
}

TEST(DynamicBatcher, FlushesOnCapOrDeadline) {
  BatcherConfig cfg;
  cfg.max_batch = 3;
  cfg.max_delay_s = 0.5;
  DynamicBatcher b(cfg);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.ready(0.0));
  EXPECT_TRUE(std::isinf(b.deadline()));

  ServeRequest r;
  r.id = 1;
  r.t_arrive = 1.0;
  b.push(r);
  // One request: not full, flushes only when the oldest ages out.
  EXPECT_FALSE(b.ready(1.0));
  EXPECT_DOUBLE_EQ(b.deadline(), 1.5);
  EXPECT_TRUE(b.ready(1.5));

  r.id = 2;
  b.push(r);
  EXPECT_FALSE(b.ready(1.2));
  r.id = 3;
  b.push(r);
  // Cap reached: ready regardless of age.
  EXPECT_TRUE(b.full());
  EXPECT_TRUE(b.ready(1.2));
}

TEST(DynamicBatcher, TakeIsFifoAndCapped) {
  BatcherConfig cfg;
  cfg.max_batch = 2;
  DynamicBatcher b(cfg);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ServeRequest r;
    r.id = id;
    b.push(r);
  }
  const auto first = b.take();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].id, 1u);
  EXPECT_EQ(first[1].id, 2u);
  EXPECT_EQ(b.pending(), 3u);
  const auto second = b.take();
  EXPECT_EQ(second[0].id, 3u);
  const auto third = b.take();
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].id, 5u);
  EXPECT_TRUE(b.empty());
}

// --- model registry --------------------------------------------------------

TEST(ModelRegistry, VersionsAreMonotonicAndSwapIsAtomic) {
  ModelRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.version(), 0u);
  EXPECT_THROW(reg.publish(nullptr), std::invalid_argument);

  EXPECT_EQ(reg.publish(make_shared_model(), "bootstrap"), 1u);
  const auto v1 = reg.current();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->tag, "bootstrap");
  EXPECT_EQ(reg.swaps(), 0u);

  EXPECT_EQ(reg.publish(make_shared_model(ml::ModelType::Linear, 7),
                        "retrain-1"),
            2u);
  // The old snapshot stays valid for in-flight batches; the registry
  // serves the new one.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_NE(v1->model, nullptr);
  EXPECT_EQ(reg.version(), 2u);
  EXPECT_EQ(reg.swaps(), 1u);
}

// --- fleet service ---------------------------------------------------------

struct FleetOut {
  ServeReport report;
  std::string metrics_json;
  fault::CircuitBreaker::State breaker_state{};
};

FleetOut run_fleet(FleetOptions options, std::uint64_t model_seed = 42,
                   double swap_at_s = -1.0) {
  util::EventQueue queue;
  obs::MetricsRegistry metrics;
  options.continuum.metrics = &metrics;
  ModelRegistry registry;
  registry.publish(make_shared_model(ml::ModelType::Linear, model_seed),
                   "bootstrap");
  if (swap_at_s >= 0.0) {
    queue.schedule_at(swap_at_s, [&registry] {
      registry.publish(make_shared_model(ml::ModelType::Linear, 1234),
                       "retrain-1");
    });
  }
  FleetService service(queue, registry, options);
  FleetOut out;
  out.report = service.run();
  out.metrics_json = metrics.to_json().dump();
  out.breaker_state = service.breaker().state();
  return out;
}

FleetOptions small_cloud_fleet() {
  FleetOptions opt;
  opt.cars = 4;
  opt.duration_s = 1.0;
  opt.mean_interarrival_s = 0.01;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::Cloud;
  opt.seed = 11;
  return opt;
}

TEST(FleetService, SameSeedIsBitwiseIdentical) {
  const FleetOut a = run_fleet(small_cloud_fleet());
  const FleetOut b = run_fleet(small_cloud_fleet());
  // Batch boundaries are the determinism fingerprint; the JSON snapshot
  // pins every aggregate, quantile, and the degradation block too.
  EXPECT_EQ(a.report.batch_sizes, b.report.batch_sizes);
  EXPECT_EQ(a.report.to_json().dump(), b.report.to_json().dump());
  EXPECT_EQ(a.report.summary(), b.report.summary());
  EXPECT_EQ(a.metrics_json, b.metrics_json);

  FleetOptions other = small_cloud_fleet();
  other.seed = 12;
  const FleetOut c = run_fleet(other);
  EXPECT_NE(a.report.to_json().dump(), c.report.to_json().dump());
}

TEST(FleetService, EveryArrivalIsAnswered) {
  const FleetOut out = run_fleet(small_cloud_fleet());
  const ServeReport& r = out.report;
  EXPECT_GT(r.requests, 100u);
  // Conservation: shed requests degrade to the edge, they never vanish.
  EXPECT_EQ(r.requests, r.completed + r.shed);
  EXPECT_EQ(r.records.size(), r.requests);
  EXPECT_GT(r.throughput_rps, 0.0);
  EXPECT_GE(r.duration_s, 1.0);
  std::size_t batched = 0;
  for (std::size_t s : r.batch_sizes) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 8u);
    batched += s;
  }
  EXPECT_EQ(batched, r.completed);
  EXPECT_GT(r.mean_batch(), 1.0);  // arrivals outpace the 10 ms age-out
  EXPECT_GE(r.queued_quantile_s(0.99), r.queued_quantile_s(0.50));
}

TEST(FleetService, MetricsMirrorTheReport) {
  util::EventQueue queue;
  obs::MetricsRegistry metrics;
  ModelRegistry registry;
  registry.publish(make_shared_model());
  FleetOptions opt = small_cloud_fleet();
  opt.continuum.metrics = &metrics;
  FleetService service(queue, registry, opt);
  const ServeReport r = service.run();
  EXPECT_EQ(metrics.counter_value("serve.requests"), r.requests);
  EXPECT_EQ(metrics.counter_value("serve.batches"), r.batches);
  const obs::Histogram* sizes = metrics.find_histogram("serve.batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), r.batches);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("serve.queue_depth"), 0.0);
}

TEST(FleetService, CapOneMeansNoBatching) {
  FleetOptions opt = small_cloud_fleet();
  opt.batcher.max_batch = 1;
  const FleetOut out = run_fleet(opt);
  for (std::size_t s : out.report.batch_sizes) EXPECT_EQ(s, 1u);
  EXPECT_EQ(out.report.batches, out.report.completed);
}

TEST(FleetService, OnDeviceNeverTouchesTheCloud) {
  FleetOptions opt = small_cloud_fleet();
  opt.placement = core::Placement::OnDevice;
  const FleetOut out = run_fleet(opt);
  EXPECT_EQ(out.report.cloud_batches, 0u);
  EXPECT_EQ(out.report.edge_batches, out.report.batches);
  EXPECT_DOUBLE_EQ(out.report.degradation.cloud_usage, 0.0);
  for (const ServeRecord& rec : out.report.records) {
    EXPECT_EQ(rec.tier, Tier::Edge);
  }
}

// FLOPs scaled far past the arrival stream's service rate, cap 4: with
// the worker saturated, a budget of 4 sheds about half the requests.
FleetOptions saturated_fleet() {
  FleetOptions opt = small_cloud_fleet();
  opt.continuum.flops_scale = 30000.0;
  opt.mean_interarrival_s = 0.002;
  opt.duration_s = 0.3;
  opt.batcher.max_batch = 4;
  return opt;
}

TEST(FleetService, OverloadShedsToEdgePerSample) {
  FleetOptions opt = saturated_fleet();
  opt.queue_budget = 4;
  const FleetOut out = run_fleet(opt);
  const ServeReport& r = out.report;
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.requests, r.completed + r.shed);
  for (const ServeRecord& rec : r.records) {
    if (rec.shed) {
      // Shed requests never queue: the car's own edge answers per-sample.
      EXPECT_EQ(rec.tier, Tier::Edge);
      EXPECT_EQ(rec.batch, 1u);
      EXPECT_GT(rec.total_s(), 0.0);
    }
  }
  // Records reach the report in completion order: every batch and every
  // shed is delivered at its own t_done, with the sheds between batches.
  EXPECT_TRUE(std::is_sorted(r.records.begin(), r.records.end(),
                             [](const ServeRecord& a, const ServeRecord& b) {
                               return a.t_done < b.t_done;
                             }));
}

TEST(FleetService, ShedAnswersMatchTheQueuedPathRequestForRequest) {
  // Each car draws its arrivals and samples from its own Rng split, so the
  // queue budget changes which requests are shed, not what they carry. The
  // host predicts held sheds in batches; a shed's answer must still be the
  // one the queued path gives the same request on the same model. The swap
  // at 0.12 s lands while sheds of the first model are held.
  FleetOptions queued = saturated_fleet();
  queued.queue_budget = 1000000;
  FleetOptions shedding = saturated_fleet();
  shedding.queue_budget = 4;
  const FleetOut a = run_fleet(queued, /*model_seed=*/42, /*swap_at_s=*/0.12);
  const FleetOut b =
      run_fleet(shedding, /*model_seed=*/42, /*swap_at_s=*/0.12);
  ASSERT_EQ(a.report.shed, 0u);
  ASSERT_GT(b.report.shed, 0u);
  ASSERT_EQ(a.report.records.size(), b.report.records.size());

  std::map<std::uint64_t, const ServeRecord*> queued_by_id;
  for (const ServeRecord& rec : a.report.records) queued_by_id[rec.id] = &rec;
  std::map<std::uint64_t, std::size_t> compared_by_version;
  for (const ServeRecord& rec : b.report.records) {
    const auto it = queued_by_id.find(rec.id);
    ASSERT_NE(it, queued_by_id.end()) << "request " << rec.id;
    const ServeRecord& ref = *it->second;
    EXPECT_EQ(rec.car, ref.car) << "request " << rec.id;
    EXPECT_EQ(rec.t_arrive, ref.t_arrive) << "request " << rec.id;
    if (!rec.shed || rec.model_version != ref.model_version) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rec.prediction.steering),
              std::bit_cast<std::uint64_t>(ref.prediction.steering))
        << "request " << rec.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rec.prediction.throttle),
              std::bit_cast<std::uint64_t>(ref.prediction.throttle))
        << "request " << rec.id;
    ++compared_by_version[rec.model_version];
  }
  // Sheds answered by both models were held to the queued path.
  EXPECT_EQ(compared_by_version.size(), 2u);
}

TEST(FleetService, ShedRequestsShareHostPredicts) {
  // Every request is predicted exactly once, and held sheds share plan
  // runs: fewer than one run per dispatched batch plus one per shed.
  util::EventQueue queue;
  obs::MetricsRegistry metrics;
  ModelRegistry registry;
  registry.instrument(nullptr, &metrics);
  registry.publish(make_shared_model());
  FleetOptions opt = saturated_fleet();
  opt.queue_budget = 4;
  opt.continuum.metrics = &metrics;
  FleetService service(queue, registry, opt);
  const ServeReport r = service.run();
  ASSERT_GT(r.shed, 0u);
  EXPECT_EQ(metrics.counter_value("serve.plan.exec.rows"), r.requests);
  EXPECT_LT(metrics.counter_value("serve.plan.exec.batches"),
            r.batches + r.shed);
}

TEST(FleetService, BreakerTripsAndFailsOverToEdge) {
  FleetOptions opt = small_cloud_fleet();
  opt.continuum.cloud_probe = [](double) { return false; };
  opt.continuum.breaker.failure_threshold = 3;
  opt.continuum.breaker.open_duration_s = 0.2;
  const FleetOut out = run_fleet(opt);
  const ServeReport& r = out.report;
  // Probes fail -> failovers; the trip denies later batches outright.
  EXPECT_GE(r.failover_batches, 3u);
  EXPECT_GT(r.denied, 0u);
  EXPECT_EQ(r.cloud_batches, 0u);
  EXPECT_EQ(r.edge_batches, r.batches);
  EXPECT_GE(r.degradation.failovers, 1u);
  EXPECT_GT(r.degradation.denied_calls, 0u);
  EXPECT_GT(r.degradation.degraded_time_s, 0.0);
  // Degraded, not broken: every request still gets a command.
  EXPECT_EQ(r.requests, r.completed + r.shed);
  EXPECT_NE(out.breaker_state, fault::CircuitBreaker::State::Closed);
}

TEST(FleetService, BreakerRecoversWhenTheCloudComesBack) {
  FleetOptions opt = small_cloud_fleet();
  // Cloud dark for the first 300 ms, healthy afterwards.
  opt.continuum.cloud_probe = [](double now) { return now >= 0.3; };
  opt.continuum.breaker.failure_threshold = 2;
  opt.continuum.breaker.open_duration_s = 0.05;
  const FleetOut out = run_fleet(opt);
  const ServeReport& r = out.report;
  EXPECT_GE(r.degradation.failovers, 1u);
  EXPECT_GT(r.cloud_batches, 0u);  // service went back to the cloud
  EXPECT_GT(r.edge_batches, 0u);   // ... after riding out the outage on edge
  EXPECT_EQ(out.breaker_state, fault::CircuitBreaker::State::Closed);
  EXPECT_GE(r.degradation.recovery_latency_s, 0.0);
  EXPECT_EQ(r.requests, r.completed + r.shed);
}

TEST(FleetService, HotSwapServesBothVersions) {
  const FleetOut out =
      run_fleet(small_cloud_fleet(), /*model_seed=*/42, /*swap_at_s=*/0.5);
  const ServeReport& r = out.report;
  ASSERT_EQ(r.requests_by_version.size(), 2u);
  EXPECT_GT(r.requests_by_version.at(1), 0u);
  EXPECT_GT(r.requests_by_version.at(2), 0u);
  std::size_t by_version_total = 0;
  for (const auto& [version, count] : r.requests_by_version) {
    by_version_total += count;
  }
  EXPECT_EQ(by_version_total, r.requests);
  // Versions only move forward along the timeline.
  double last_v2_free_t = 0.0;
  for (const ServeRecord& rec : r.records) {
    if (rec.model_version == 1) {
      EXPECT_LE(rec.t_dispatch, 0.5 + 1e-9);
    } else {
      last_v2_free_t = std::max(last_v2_free_t, rec.t_dispatch);
      EXPECT_GE(rec.t_dispatch, 0.5 - 1e-9);
    }
  }
  EXPECT_GT(last_v2_free_t, 0.5);
}

TEST(FleetService, ValidatesOptionsAndLifecycle) {
  util::EventQueue queue;
  ModelRegistry registry;
  FleetOptions opt = small_cloud_fleet();
  opt.cars = 0;
  EXPECT_THROW(FleetService(queue, registry, opt), std::invalid_argument);
  opt = small_cloud_fleet();
  opt.queue_budget = 0;
  EXPECT_THROW(FleetService(queue, registry, opt), std::invalid_argument);

  // No published model: run() refuses instead of serving nothing.
  FleetService empty(queue, registry, small_cloud_fleet());
  EXPECT_THROW(empty.run(), std::logic_error);

  registry.publish(make_shared_model());
  util::EventQueue queue2;
  FleetService once(queue2, registry, small_cloud_fleet());
  once.run();
  EXPECT_THROW(once.run(), std::logic_error);
}

TEST(FleetService, ConfigErrorsNameTheOffendingField) {
  util::EventQueue queue;
  ModelRegistry registry;
  const auto field_of = [&](FleetOptions opt) -> std::string {
    try {
      FleetService service(queue, registry, opt);
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "<no throw>";
  };
  FleetOptions opt = small_cloud_fleet();
  opt.cars = 0;
  EXPECT_EQ(field_of(opt), "fleet.cars");
  opt = small_cloud_fleet();
  opt.duration_s = 0.0;
  EXPECT_EQ(field_of(opt), "fleet.duration_s");
  opt = small_cloud_fleet();
  opt.mean_interarrival_s = -1.0;
  EXPECT_EQ(field_of(opt), "fleet.mean_interarrival_s");
  opt = small_cloud_fleet();
  opt.shards = 0;
  EXPECT_EQ(field_of(opt), "fleet.shards");
  opt = small_cloud_fleet();
  opt.ring_replicas = 0;
  EXPECT_EQ(field_of(opt), "fleet.ring_replicas");
  opt = small_cloud_fleet();
  opt.sites = {"chi-uc", ""};
  EXPECT_EQ(field_of(opt), "fleet.sites");
  opt = small_cloud_fleet();
  opt.health.timeout_s = 0.0;
  EXPECT_EQ(field_of(opt), "health.timeout_s");
  opt = small_cloud_fleet();
  opt.batcher.max_batch = 0;
  EXPECT_EQ(field_of(opt), "batcher.max_batch");
  // Every batch and shed is priced at FLOPs x flops_scale; a scale with no
  // price fails at construction, not mid-run.
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                             std::numeric_limits<double>::infinity()}) {
    opt = small_cloud_fleet();
    opt.continuum.flops_scale = scale;
    EXPECT_EQ(field_of(opt), "fleet.continuum.flops_scale") << scale;
  }
  // The typed error still reads as the message the old tests pinned.
  try {
    opt = small_cloud_fleet();
    opt.queue_budget = 0;
    FleetService service(queue, registry, opt);
    FAIL() << "must throw";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "serve config: fleet.queue_budget: must be >= 1");
  }
}

TEST(ModelRegistry, PublishRacingAnInFlightBatchStaysOnItsPinnedSnapshot) {
  // A batch snapshots the registry at formation time; a publish() landing
  // while that batch is in flight must not change what the batch computes.
  ModelRegistry reg;
  reg.publish(make_shared_model(ml::ModelType::Linear, 42), "v1");
  const auto pinned = reg.current();  // batch formation
  ml::Sample obs;
  obs.frames.emplace_back(32, 24, 0.5f);
  ml::Prediction before;
  pinned->model->predict_batch(&obs, 1, &before);

  reg.publish(make_shared_model(ml::ModelType::Linear, 1234),
              "race");  // racing publish

  ml::Prediction after;
  pinned->model->predict_batch(&obs, 1, &after);
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->tag, "v1");
  EXPECT_DOUBLE_EQ(after.steering, before.steering);
  EXPECT_DOUBLE_EQ(after.throttle, before.throttle);

  // The next batch to form sees the new version.
  EXPECT_EQ(reg.current()->version, 2u);
  ml::Prediction swapped;
  reg.current()->model->predict_batch(&obs, 1, &swapped);
  EXPECT_NE(swapped.steering, before.steering);
}

}  // namespace
}  // namespace autolearn::serve
