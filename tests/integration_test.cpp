// Cross-module integration tests: whole-continuum scenarios that exercise
// the orchestration substrates together the way the educational module
// uses them.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/pathway.hpp"
#include "core/model_zoo.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/tub.hpp"
#include "edge/container.hpp"
#include "edge/registry.hpp"
#include "eval/pilot.hpp"
#include "hub/hub.hpp"
#include "ml/trainer.hpp"
#include "net/transfer.hpp"
#include "objectstore/objectstore.hpp"
#include "testbed/deployment.hpp"
#include "testbed/identity.hpp"
#include "testbed/inventory.hpp"
#include "testbed/lease.hpp"
#include "track/track.hpp"
#include "workflow/notebook.hpp"

namespace autolearn {
namespace {

namespace fs = std::filesystem;

// The full classroom story: identity -> lease -> deploy -> BYOD -> data
// movement -> training -> model to object store -> hub metrics. Everything
// rides one event queue and must reach a consistent end state.
TEST(Integration, ClassroomStoryEndToEnd) {
  util::EventQueue clock;

  // Identity: instructor + student join an education project.
  testbed::IdentityService identity;
  identity.add_user("instructor", "MU");
  identity.add_user("student", "MJC");
  identity.create_project("CHI-edu-9", "AutoLearn",
                          testbed::ProjectDomain::Education, "instructor");
  identity.add_member("CHI-edu-9", "student");
  const testbed::Session session = identity.login("student");
  ASSERT_TRUE(identity.user_for_token(session.token).has_value());

  // Testbed: reserve and deploy a trainer node.
  const testbed::Inventory inventory = testbed::Inventory::chameleon();
  testbed::LeaseManager leases(inventory);
  const auto lease = leases.request_on_demand("CHI-edu-9", "gpu_v100", 1,
                                              clock.now(), 7200);
  ASSERT_TRUE(lease);
  leases.tick(clock.now());
  testbed::DeploymentService deployments(leases, clock);
  bool trainer_ready = false;
  deployments.deploy(*lease, testbed::ImageSpec::autolearn_trainer(),
                     [&](const testbed::Deployment&) { trainer_ready = true; });

  // Edge: enroll the car and launch its container.
  edge::EdgeRegistry registry(clock);
  edge::ContainerService containers(registry, clock);
  registry.register_device("donkey-01", "CHI-edu-9");
  registry.flash_device("donkey-01");
  registry.boot_device("donkey-01");
  clock.run_until(clock.now() + 60);
  ASSERT_EQ(registry.device("donkey-01").state, edge::DeviceState::Ready);
  bool car_container = false;
  containers.launch("donkey-01", "CHI-edu-9",
                    edge::ContainerSpec::autolearn_car(),
                    [&](const edge::Container&) { car_container = true; });
  clock.run();
  EXPECT_TRUE(trainer_ready);
  EXPECT_TRUE(car_container);

  // Data: a short physical-car session recorded on the car.
  const track::Track track = track::Track::paper_oval();
  const fs::path workdir =
      fs::temp_directory_path() / ("autolearn_integ_" + std::to_string(getpid()));
  fs::remove_all(workdir);
  data::CollectOptions copt;
  copt.duration_s = 60.0;
  copt.expert.steering_noise = 0.08;
  const data::CollectStats cstats = data::collect_session(
      track, data::DataPath::PhysicalCar, copt, workdir / "tub");
  data::Tub tub(workdir / "tub");

  // Network: rsync the tub to the trainer node; the simulated duration
  // must reflect the tub's real byte size over the bottleneck link.
  net::Network network;
  for (const char* h : {"donkey-01", "campus-gw", "chi-uc-trainer"}) {
    network.add_host(h);
  }
  network.add_duplex("donkey-01", "campus-gw", net::Link::edge_wifi());
  network.add_duplex("campus-gw", "chi-uc-trainer",
                     net::Link::campus_to_cloud());
  net::TransferManager transfers(network, clock, util::Rng(3));
  const double before = clock.now();
  bool copied = false;
  transfers.start("donkey-01", "chi-uc-trainer", tub.size_bytes(),
                  [&](const net::TransferResult& r) {
                    copied = r.status == net::TransferStatus::Done;
                  });
  clock.run();
  ASSERT_TRUE(copied);
  const double transfer_time = clock.now() - before;
  // ~1.3 MB over a 3 MB/s Wi-Fi bottleneck: order of a second.
  EXPECT_GT(transfer_time, 0.05);
  EXPECT_LT(transfer_time, 60.0);

  // Training on the "trainer node" via a notebook.
  auto samples = data::build_samples(tub.read_all(), {});
  auto [train, val] = data::split_train_val(std::move(samples), 0.15);
  auto model = ml::make_model(ml::ModelType::Inferred);
  workflow::Notebook nb("train-model");
  hub::Hub trovi;
  hub::Artifact& artifact =
      trovi.create_artifact("autolearn", "AutoLearn", {"instructor"});
  nb.set_on_cell_success(
      [&](const workflow::Cell&) { artifact.record_cell_execution("student"); });
  nb.add_cell("fit", [&] {
    ml::TrainOptions topt;
    topt.epochs = 4;
    const ml::TrainResult r = ml::fit(*model, train, val, topt);
    return "val loss " + std::to_string(r.best_val_loss);
  });
  artifact.record_launch("student");
  ASSERT_EQ(nb.run_all(), 1u);

  // Model checkpoint into the object store, then restored and driven.
  objectstore::ObjectStore store;
  store.create_container("models");
  std::ostringstream blob;
  model->save(blob);
  const std::string bytes = blob.str();
  store.put("models", "inferred-v1",
            std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
            {{"model", "inferred"}, {"dataset", "physical-car"}});

  auto restored = ml::make_model(ml::ModelType::Inferred);
  const auto obj = store.get("models", "inferred-v1");
  ASSERT_TRUE(obj);
  std::istringstream in(std::string(obj->bytes.begin(), obj->bytes.end()));
  restored->load(in);
  eval::ModelPilot pilot(*restored);
  eval::EvalOptions eopt;
  eopt.duration_s = 30.0;
  const eval::EvalResult result = eval::run_evaluation(track, pilot, eopt);
  EXPECT_GT(result.laps, 1.0);

  // Hub accounting reflects the session.
  const hub::ArtifactMetrics metrics = artifact.metrics();
  EXPECT_EQ(metrics.launch_clicks, 1u);
  EXPECT_EQ(metrics.users_executed_cell, 1u);
  EXPECT_GT(cstats.records, 0u);
  fs::remove_all(workdir);
}

// Failure injection: the car drops off the network mid-session; the class
// recovers it and relaunches the container.
TEST(Integration, DeviceFailureAndRecovery) {
  util::EventQueue clock;
  edge::EdgeRegistry registry(clock);
  edge::ContainerService containers(registry, clock);
  registry.register_device("donkey-02", "p");
  registry.flash_device("donkey-02");
  registry.boot_device("donkey-02");
  clock.run_until(60);
  const auto c1 = containers.launch("donkey-02", "p",
                                    edge::ContainerSpec::autolearn_car());
  clock.run();
  ASSERT_EQ(containers.container(c1).state, edge::ContainerState::Running);

  registry.fail_device("donkey-02");
  clock.run_until(clock.now() + 120);
  EXPECT_EQ(registry.device("donkey-02").state,
            edge::DeviceState::Disconnected);

  registry.recover_device("donkey-02");
  clock.run_until(clock.now() + 60);
  ASSERT_EQ(registry.device("donkey-02").state, edge::DeviceState::Ready);
  // Image is cached, so the relaunch is fast.
  const double t0 = clock.now();
  const auto c2 = containers.launch("donkey-02", "p",
                                    edge::ContainerSpec::autolearn_car());
  clock.run();
  EXPECT_EQ(containers.container(c2).state, edge::ContainerState::Running);
  EXPECT_LT(clock.now() - t0, 15.0);
}

// Lossy-network failure injection: the rsync step retries and still lands.
TEST(Integration, LossyTransferRetriesAndCompletes) {
  util::EventQueue clock;
  net::Network network;
  network.add_host("car");
  network.add_host("cloud");
  net::LinkSpec lossy = net::Link::edge_wifi();
  lossy.loss_prob = 0.3;
  network.add_duplex("car", "cloud", lossy);
  net::TransferManager transfers(network, clock, util::Rng(7),
                                 fault::RetryPolicy::immediate(21));
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    transfers.start("car", "cloud", 500'000,
                    [&](const net::TransferResult& r) {
                      done += r.status == net::TransferStatus::Done;
                    });
  }
  clock.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(transfers.failed(), 0u);
}

// The three §4 pathways materialize as runnable notebooks whose phases
// execute against the simulation.
TEST(Integration, PathwayNotebooksRun) {
  const track::Track track = track::Track::paper_oval();
  for (core::PathwayKind kind :
       {core::PathwayKind::Regular, core::PathwayKind::Classroom,
        core::PathwayKind::Digital}) {
    const core::PathwayPlan plan = core::make_pathway(kind);
    workflow::Notebook nb = core::to_notebook(
        plan, [&](const core::PhasePlan& phase) {
          // A dry-run phase runner: validate the phase description and
          // report the chosen alternative.
          EXPECT_FALSE(phase.alternative.empty());
          return phase.phase + " via " + phase.alternative;
        });
    EXPECT_EQ(nb.run_all(), nb.cell_count()) << core::to_string(kind);
  }
}


// §3.5 "mix and match": a strong team trains and publishes to the zoo; a
// hardware-free team pulls the published checkpoint and evaluates it in
// the simulator without training anything.
TEST(Integration, MixAndMatchViaModelZoo) {
  const track::Track track = track::Track::paper_oval();
  const fs::path workdir =
      fs::temp_directory_path() / ("autolearn_zoo_" + std::to_string(getpid()));
  fs::remove_all(workdir);

  // Team A: full pipeline, then publish.
  core::PipelineOptions opt;
  opt.model = ml::ModelType::Inferred;
  opt.collect_duration_s = 90.0;
  opt.driver.steering_noise = 0.08;
  opt.train.epochs = 6;
  opt.eval.duration_s = 5.0;
  core::Pipeline pipeline(track, opt, workdir);
  const core::PipelineReport report = pipeline.run();

  objectstore::ObjectStore store;
  core::ModelZoo zoo(store);
  zoo.publish("inferred-oval-v1", pipeline.model(), track.name(),
              report.train_result.best_val_loss, report.steering_mae);

  // Team B: no training — pull the checkpoint and drive.
  const auto best = zoo.best_for_track(track.name());
  ASSERT_TRUE(best);
  auto model = zoo.load(best->name);
  eval::ModelPilot pilot(*model);
  eval::EvalOptions eopt;
  eopt.duration_s = 30.0;
  const eval::EvalResult r = eval::run_evaluation(track, pilot, eopt);
  EXPECT_GT(r.laps, 1.0);
  EXPECT_LT(r.errors, 6u);
  fs::remove_all(workdir);
}

}  // namespace
}  // namespace autolearn
