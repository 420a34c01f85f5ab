// Chaos-engine integration: deterministic fault timelines, retry/backoff
// under injected faults, container failure paths, lease preemption, and the
// acceptance scenario — a mid-evaluation partition tripping the hybrid
// pilot's circuit breaker without killing the run.
#include <gtest/gtest.h>

#include "core/continuum.hpp"
#include "edge/container.hpp"
#include "edge/registry.hpp"
#include "fault/chaos.hpp"
#include "net/transfer.hpp"
#include "testbed/lease.hpp"
#include "track/track.hpp"

namespace autolearn {
namespace {

using fault::ChaosEngine;
using fault::FaultKind;
using fault::FaultSpec;

/// The car <-> campus <-> cloud topology every test uses.
net::Network make_continuum() {
  net::Network net;
  net.add_host("car-01");
  net.add_host("campus");
  net.add_host("chi-uc");
  net.add_duplex("car-01", "campus", net::Link::edge_wifi());
  net.add_duplex("campus", "chi-uc", net::Link::campus_to_cloud());
  return net;
}

// --- determinism -----------------------------------------------------------

TEST(Chaos, SameSeedAndPlanSameTimeline) {
  const std::vector<FaultSpec> plan = {
      {FaultKind::Partition, 2.0, 3.0, "chi-uc"},
      {FaultKind::LinkDegrade, 4.0, 2.0, "car-01", "campus", 4.0, 0.2, 0.5},
      {FaultKind::Partition, 9.0, 1.0, "campus"},
  };
  fault::ChaosReport reports[2];
  for (int run = 0; run < 2; ++run) {
    util::EventQueue queue;
    net::Network net = make_continuum();
    ChaosEngine engine(queue, /*seed=*/7);
    engine.attach_network(net);
    engine.inject_plan(plan);
    queue.run_until(20.0);
    reports[run] = engine.report();
  }
  EXPECT_TRUE(reports[0] == reports[1]);
  EXPECT_EQ(reports[0].injected, 3u);
  EXPECT_EQ(reports[0].recovered, 3u);
  EXPECT_DOUBLE_EQ(reports[0].partition_s, 4.0);
  EXPECT_DOUBLE_EQ(reports[0].degraded_link_s, 2.0);
  EXPECT_EQ(reports[0].count(FaultKind::Partition), 2u);
  EXPECT_EQ(reports[0].count(FaultKind::Partition, /*recoveries=*/true), 2u);
}

TEST(Chaos, RandomPlanIsSeedReproducible) {
  fault::RandomPlanOptions opt;
  opt.horizon_s = 30.0;
  opt.faults = 6;
  opt.partition_host = "chi-uc";
  opt.link_from = "car-01";
  opt.link_to = "campus";
  std::vector<FaultSpec> plans[2];
  for (int run = 0; run < 2; ++run) {
    util::EventQueue queue;
    ChaosEngine engine(queue, /*seed=*/123);
    plans[run] = engine.random_plan(opt);
  }
  ASSERT_EQ(plans[0].size(), 6u);
  ASSERT_EQ(plans[0].size(), plans[1].size());
  for (std::size_t i = 0; i < plans[0].size(); ++i) {
    EXPECT_EQ(plans[0][i].kind, plans[1][i].kind) << i;
    EXPECT_DOUBLE_EQ(plans[0][i].at, plans[1][i].at) << i;
    EXPECT_DOUBLE_EQ(plans[0][i].duration, plans[1][i].duration) << i;
    EXPECT_EQ(plans[0][i].target, plans[1][i].target) << i;
    if (i > 0) {
      EXPECT_GE(plans[0][i].at, plans[0][i - 1].at);
    }
  }
}

TEST(Chaos, InjectValidatesAttachmentAndTime) {
  util::EventQueue queue;
  ChaosEngine engine(queue);
  EXPECT_THROW(engine.inject({FaultKind::Partition, 1.0, 1.0, "chi-uc"}),
               std::logic_error);
  net::Network net = make_continuum();
  engine.attach_network(net);
  queue.schedule_at(5.0, [] {});
  queue.run_until(5.0);
  FaultSpec past{FaultKind::Partition, 1.0, 1.0, "chi-uc"};
  EXPECT_THROW(engine.inject(past), std::invalid_argument);
}

// --- network fault overlays ------------------------------------------------

TEST(Chaos, PartitionWindowRemovesAndRestoresRoutes) {
  util::EventQueue queue;
  net::Network net = make_continuum();
  ChaosEngine engine(queue, 1);
  engine.attach_network(net);
  engine.inject({FaultKind::Partition, 2.0, 3.0, "campus"});

  EXPECT_TRUE(net.route("car-01", "chi-uc").has_value());
  queue.run_until(2.5);
  EXPECT_TRUE(net.partitioned("campus"));
  EXPECT_FALSE(net.route("car-01", "chi-uc").has_value());
  try {
    util::Rng rng(1);
    net.sample_latency("car-01", "chi-uc", rng);
    FAIL() << "expected UnreachableError";
  } catch (const net::UnreachableError& e) {
    EXPECT_EQ(e.from(), "car-01");
    EXPECT_EQ(e.to(), "chi-uc");
  }
  queue.run_until(6.0);
  EXPECT_FALSE(net.partitioned("campus"));
  EXPECT_TRUE(net.route("car-01", "chi-uc").has_value());
}

TEST(Chaos, LinkDegradeScalesLatencyForTheWindow) {
  util::EventQueue queue;
  net::Network net = make_continuum();
  const double healthy = net.base_latency("car-01", "chi-uc");
  ChaosEngine engine(queue, 1);
  engine.attach_network(net);
  FaultSpec degrade{FaultKind::LinkDegrade, 1.0, 2.0, "campus", "chi-uc"};
  degrade.latency_mult = 10.0;
  engine.inject(degrade);
  queue.run_until(1.5);
  EXPECT_GT(net.base_latency("car-01", "chi-uc"), 2.0 * healthy);
  queue.run_until(4.0);
  EXPECT_DOUBLE_EQ(net.base_latency("car-01", "chi-uc"), healthy);
}

// --- transfers retry through fault windows --------------------------------

TEST(Chaos, TransferBacksOffThroughFlapAndCompletes) {
  util::EventQueue queue;
  net::Network net = make_continuum();
  ChaosEngine engine(queue, 1);
  engine.attach_network(net);
  // Every attempt inside [0, 4) drops; the link then heals.
  engine.inject({FaultKind::TransferFlap, 0.0, 4.0, "car-01", "campus"});

  fault::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_delay_s = 0.5;
  policy.multiplier = 2.0;
  policy.max_delay_s = 8.0;
  policy.jitter = fault::RetryPolicy::Jitter::None;
  net::TransferManager tm(net, queue, util::Rng(9), policy);

  net::TransferResult final_result;
  // Start from inside the event loop so the flap is already applied.
  queue.schedule_at(0.5, [&] {
    tm.start("car-01", "chi-uc", 300'000,
             [&](const net::TransferResult& r) { final_result = r; });
  });
  queue.run_until(60.0);

  EXPECT_EQ(final_result.status, net::TransferStatus::Done);
  EXPECT_GT(final_result.attempts, 1);
  ASSERT_EQ(final_result.attempt_starts.size(),
            static_cast<std::size_t>(final_result.attempts));
  // Consecutive attempts are separated by at least the deterministic
  // exponential backoff (plus the wasted half-transfer).
  double expected_backoff = policy.base_delay_s;
  for (std::size_t i = 1; i < final_result.attempt_starts.size(); ++i) {
    const double gap =
        final_result.attempt_starts[i] - final_result.attempt_starts[i - 1];
    EXPECT_GE(gap, expected_backoff) << "attempt " << i;
    expected_backoff =
        std::min(policy.max_delay_s, expected_backoff * policy.multiplier);
  }
  // The winning attempt started after the flap window closed.
  EXPECT_GE(final_result.attempt_starts.back(), 4.0);
  EXPECT_EQ(tm.completed(), 1u);
  EXPECT_EQ(tm.failed(), 0u);
}

TEST(Chaos, TransferExhaustsRetriesUnderPermanentFlap) {
  util::EventQueue queue;
  net::Network net = make_continuum();
  ChaosEngine engine(queue, 1);
  engine.attach_network(net);
  engine.inject({FaultKind::TransferFlap, 0.0, 0.0, "car-01", "campus"});

  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_s = 0.1;
  policy.jitter = fault::RetryPolicy::Jitter::None;
  net::TransferManager tm(net, queue, util::Rng(9), policy);
  net::TransferResult final_result;
  queue.schedule_at(0.5, [&] {
    tm.start("car-01", "chi-uc", 300'000,
             [&](const net::TransferResult& r) { final_result = r; });
  });
  queue.run_until(60.0);
  EXPECT_EQ(final_result.status, net::TransferStatus::Failed);
  EXPECT_EQ(final_result.attempts, 3);
  EXPECT_EQ(tm.failed(), 1u);
}

// --- containers and devices ------------------------------------------------

struct ChaosEdgeFixture : public ::testing::Test {
  util::EventQueue queue;
  edge::EdgeRegistry registry{queue};

  void enroll(const std::string& name, const std::string& project) {
    registry.register_device(name, project);
    registry.flash_device(name);
    registry.boot_device(name);
    queue.run_until(queue.now() + registry.config().boot_delay_s +
                    registry.config().enroll_delay_s + 1);
  }
};

TEST_F(ChaosEdgeFixture, PartitionedPullFailsThenAutoRestartRecovers) {
  net::Network net;
  net.add_host("registry");
  net.add_host("pi-01");
  net.add_duplex("registry", "pi-01", net::Link::edge_wifi());

  edge::ContainerConfig cfg;
  cfg.auto_restart = true;
  cfg.restart_delay_s = 2.0;
  cfg.max_restarts = 3;
  cfg.pull_retry = fault::RetryPolicy::immediate(1);  // fail fast per pull
  edge::ContainerService svc(registry, queue, cfg);
  svc.use_network(net, "registry", util::Rng(4));
  enroll("pi-01", "CHI-edu-1");

  const double t0 = queue.now();
  ChaosEngine engine(queue, 1);
  engine.attach_network(net);
  // Registry is unreachable for 3 s starting now; the restart at t0+2 still
  // lands inside the window, the one after that succeeds.
  engine.inject({FaultKind::Partition, t0, 3.0, "registry"});
  queue.run_until(t0 + 0.5);

  edge::ContainerSpec spec = edge::ContainerSpec::autolearn_car();
  spec.image_bytes = 3'000'000;  // ~1 s over edge Wi-Fi
  int failed = 0;
  bool running = false;
  const std::uint64_t id = svc.launch(
      "pi-01", "CHI-edu-1", spec, [&](const edge::Container&) { running = true; },
      [&](const edge::Container& c) {
        ++failed;
        EXPECT_EQ(c.state, edge::ContainerState::Failed);
        EXPECT_FALSE(c.failure_reason.empty());
      });
  queue.run_until(t0 + 1.0);
  EXPECT_EQ(svc.container(id).state, edge::ContainerState::Failed);
  EXPECT_GE(failed, 1);
  EXPECT_FALSE(running);

  queue.run_until(t0 + 60.0);
  EXPECT_TRUE(running);
  EXPECT_EQ(svc.container(id).state, edge::ContainerState::Running);
  EXPECT_GE(svc.container(id).restarts, 1);
}

TEST_F(ChaosEdgeFixture, DeviceCrashKillsContainersAndReviveRestores) {
  enroll("pi-01", "CHI-edu-1");
  edge::ContainerService svc(registry, queue);  // legacy downlink pull path
  edge::ContainerSpec spec = edge::ContainerSpec::autolearn_car();
  spec.image_bytes = 4'000'000;
  const std::uint64_t id = svc.launch("pi-01", "CHI-edu-1", spec);
  queue.run_until(queue.now() + 30.0);
  ASSERT_EQ(svc.container(id).state, edge::ContainerState::Running);

  const double t0 = queue.now();
  ChaosEngine engine(queue, 1);
  engine.attach_registry(registry);
  engine.attach_containers(svc);
  engine.inject({FaultKind::DeviceCrash, t0 + 1.0, 50.0, "pi-01"});

  queue.run_until(t0 + 2.0);
  EXPECT_TRUE(registry.is_failed("pi-01"));
  EXPECT_EQ(svc.container(id).state, edge::ContainerState::Failed);
  EXPECT_EQ(svc.container(id).failure_reason, "device crashed");
  EXPECT_EQ(engine.report().count(FaultKind::DeviceCrash), 1u);
  EXPECT_EQ(engine.report().count(FaultKind::ContainerKill), 1u);

  queue.run_until(t0 + 200.0);  // crash window ends; device reboots
  EXPECT_FALSE(registry.is_failed("pi-01"));
  EXPECT_EQ(registry.device("pi-01").state, edge::DeviceState::Ready);
  EXPECT_EQ(engine.report().count(FaultKind::DeviceCrash, true), 1u);
}

// --- lease preemption ------------------------------------------------------

TEST(Chaos, LeasePreemptionFreesNodes) {
  const testbed::Inventory inv = testbed::Inventory::chameleon();
  testbed::LeaseManager lm(inv);
  testbed::LeaseRequest req;
  req.project_id = "CHI-edu-1";
  req.node_type = "gpu_v100";
  req.count = 4;
  req.start = 0.0;
  req.duration = 3600.0;
  const auto id = lm.request(req);
  ASSERT_TRUE(id);
  lm.tick(10.0);
  ASSERT_EQ(lm.lease(*id).status, testbed::LeaseStatus::Active);
  EXPECT_EQ(lm.available("gpu_v100", 10.0, 3600.0), 0u);

  util::EventQueue queue;
  ChaosEngine engine(queue, 1);
  engine.attach_leases(lm);
  queue.schedule_at(100.0, [] {});
  queue.run_until(99.0);
  FaultSpec preempt{FaultKind::LeasePreempt, 100.0, 0.0, "gpu_v100"};
  engine.inject(preempt);
  queue.run_until(101.0);

  EXPECT_EQ(lm.lease(*id).status, testbed::LeaseStatus::Preempted);
  EXPECT_LE(lm.lease(*id).end, 100.0);
  EXPECT_EQ(lm.preempted_count(), 1u);
  EXPECT_TRUE(lm.live_leases("gpu_v100", 101.0).empty());
  // Reclaimed nodes are immediately re-leasable.
  EXPECT_EQ(lm.available("gpu_v100", 101.0, 3600.0), 4u);
  EXPECT_TRUE(lm.request_on_demand("CHI-edu-2", "gpu_v100", 4, 101.0, 600.0));
  EXPECT_EQ(engine.report().count(FaultKind::LeasePreempt), 1u);
  // Preempting a finished lease is an error.
  EXPECT_THROW(lm.preempt(*id, 102.0), std::logic_error);
}

// --- hybrid pilot staleness boundary --------------------------------------

TEST(Chaos, HybridStalenessBoundaryIsInclusive) {
  ml::ModelConfig cfg;
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  auto cloud_model = ml::make_model(ml::ModelType::Linear, cfg);
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);

  // dt = 1/16 s is exact in binary, so ages are exact multiples of dt. The
  // cloud delay lands in (2 dt, 3 dt]: each command matures two control
  // periods after its stamp and is used at age exactly 2 dt = 0.125 s.
  core::ContinuumOptions opt;
  opt.control_dt = 0.0625;
  opt.network_rtt_s = 0.15;
  opt.rtt_jitter_s = 0.0;
  opt.hybrid_staleness_s = 0.125;  // == the command age at use time
  core::HybridPilot at_boundary(*edge_model, *cloud_model, opt, util::Rng(3));
  for (int i = 0; i < 50; ++i) at_boundary.act(frame);
  EXPECT_GT(at_boundary.cloud_usage(), 0.9);  // <= semantics: still fresh

  opt.hybrid_staleness_s = 0.124;  // one hair under the arrival age
  core::HybridPilot too_stale(*edge_model, *cloud_model, opt, util::Rng(3));
  for (int i = 0; i < 50; ++i) too_stale.act(frame);
  EXPECT_DOUBLE_EQ(too_stale.cloud_usage(), 0.0);
}

TEST(Chaos, OffTrackResetPreservesBreakerAccounting) {
  ml::ModelConfig cfg;
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  auto cloud_model = ml::make_model(ml::ModelType::Linear, cfg);
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);

  core::ContinuumOptions opt;
  opt.rtt_jitter_s = 0.0;
  opt.breaker.failure_threshold = 2;
  opt.breaker.open_duration_s = 100.0;  // stays open for the whole test
  opt.cloud_probe = [](double) { return false; };
  core::HybridPilot pilot(*edge_model, *cloud_model, opt, util::Rng(3));
  for (int i = 0; i < 5; ++i) pilot.act(frame);
  ASSERT_EQ(pilot.breaker().state(), fault::CircuitBreaker::State::Open);
  ASSERT_EQ(pilot.breaker().times_opened(), 1u);
  const fault::DegradationStats before = pilot.degradation();
  ASSERT_GT(before.denied_calls, 0u);

  // Off-track reset: the evaluator puts the car back on the line. That
  // local intervention must not heal the breaker or erase its accounting.
  pilot.reset();
  EXPECT_EQ(pilot.breaker().state(), fault::CircuitBreaker::State::Open);
  EXPECT_EQ(pilot.breaker().times_opened(), 1u);
  EXPECT_EQ(pilot.degradation().failovers, before.failovers);
  EXPECT_EQ(pilot.degradation().denied_calls, before.denied_calls);
  pilot.act(frame);  // still partitioned: denial accounting continues
  EXPECT_GT(pilot.degradation().denied_calls, before.denied_calls);
}

// --- acceptance: partition mid-evaluation ----------------------------------

/// Runs the Hybrid placement with a car<->cloud partition over
/// [4 s, 8 s) of a 16 s evaluation and returns the result.
eval::EvalResult run_partitioned_hybrid(std::uint64_t seed) {
  const track::Track t = track::Track::paper_oval();
  ml::ModelConfig cfg;
  auto main_model = ml::make_model(ml::ModelType::Linear, cfg);
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);

  net::Network net = make_continuum();
  util::EventQueue queue;
  ChaosEngine engine(queue, seed);
  engine.attach_network(net);
  engine.inject({FaultKind::Partition, 4.0, 4.0, "chi-uc"});

  core::ContinuumOptions copt;
  // RTT longer than one control period: the first command after the
  // breaker re-closes needs two periods to flow back, so the recovery
  // latency is observable (an RTT under dt recovers within the same step).
  copt.network_rtt_s = 0.08;
  copt.rtt_jitter_s = 0.0;
  copt.breaker.failure_threshold = 2;
  copt.breaker.open_duration_s = 0.5;
  copt.cloud_probe = [&net](double) {
    return net.route("car-01", "chi-uc").has_value();
  };

  eval::EvalOptions eopt;
  eopt.duration_s = 16.0;
  eopt.seed = seed;
  eopt.chaos_queue = &queue;
  return core::evaluate_placement(t, *main_model, *edge_model,
                                  core::Placement::Hybrid, copt, eopt);
}

TEST(Chaos, PartitionTripsBreakerAndRecovers) {
  const eval::EvalResult r = run_partitioned_hybrid(21);
  // The run survived the partition end to end.
  EXPECT_EQ(r.steps, 320u);
  EXPECT_GT(r.distance_m, 0.0);
  // The breaker tripped at least once (the initial trip plus any re-trips
  // from failed half-open probes inside the window).
  EXPECT_GE(r.degradation.failovers, 1u);
  EXPECT_GT(r.degradation.denied_calls, 0u);
  // Degraded for roughly the partition window: trip happens a couple of
  // control periods after 4 s, recovery at the first probe past 8 s.
  EXPECT_GT(r.degradation.degraded_time_s, 2.0);
  EXPECT_LT(r.degradation.degraded_time_s, 6.0);
  // Cloud commands steered the car outside the window...
  EXPECT_GT(r.degradation.cloud_usage, 0.5);
  // ...but not during it: 4 s of 16 s partitioned caps usage below 80%.
  EXPECT_LT(r.degradation.cloud_usage, 0.8);
  // Recovery latency: re-close to the first cloud-steered step.
  EXPECT_GT(r.degradation.recovery_latency_s, 0.0);
  EXPECT_LT(r.degradation.recovery_latency_s, 2.0);
}

TEST(Chaos, PartitionedHybridIsSeedReproducible) {
  const eval::EvalResult a = run_partitioned_hybrid(21);
  const eval::EvalResult b = run_partitioned_hybrid(21);
  EXPECT_DOUBLE_EQ(a.distance_m, b.distance_m);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.degradation.failovers, b.degradation.failovers);
  EXPECT_EQ(a.degradation.denied_calls, b.degradation.denied_calls);
  EXPECT_DOUBLE_EQ(a.degradation.degraded_time_s,
                   b.degradation.degraded_time_s);
  EXPECT_DOUBLE_EQ(a.degradation.cloud_usage, b.degradation.cloud_usage);
  EXPECT_DOUBLE_EQ(a.degradation.recovery_latency_s,
                   b.degradation.recovery_latency_s);
}

TEST(Chaos, HealthyHybridReportsNoDegradation) {
  const track::Track t = track::Track::paper_oval();
  ml::ModelConfig cfg;
  auto main_model = ml::make_model(ml::ModelType::Linear, cfg);
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  core::ContinuumOptions copt;
  copt.network_rtt_s = 0.02;
  copt.rtt_jitter_s = 0.0;
  eval::EvalOptions eopt;
  eopt.duration_s = 5.0;
  const eval::EvalResult r = core::evaluate_placement(
      t, *main_model, *edge_model, core::Placement::Hybrid, copt, eopt);
  EXPECT_EQ(r.degradation.failovers, 0u);
  EXPECT_EQ(r.degradation.denied_calls, 0u);
  EXPECT_DOUBLE_EQ(r.degradation.degraded_time_s, 0.0);
  EXPECT_GT(r.degradation.cloud_usage, 0.5);
}

}  // namespace
}  // namespace autolearn
