// Serving-tier integration of the compiled forward path: registries
// compile models at publish time (and retroactively on set_plan_batch),
// replication forwards the plan cap to every replica without recompiling
// a shared model, and a FleetService compiles the published model at its
// batcher cap. Selected by `ctest -L plan` (and -L serve).
#include <gtest/gtest.h>

#include <memory>

#include "ml/driving_model.hpp"
#include "ml/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/replication.hpp"
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

TEST(RegistryPlan, PublishCompilesWhenPlanBatchIsSet) {
  ModelRegistry reg;
  reg.set_plan_batch(8);
  EXPECT_EQ(reg.plan_batch(), 8u);
  auto model = make_shared_model();
  EXPECT_EQ(model->plan(), nullptr);
  reg.publish(model, "bootstrap");
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), 8u);
}

TEST(RegistryPlan, SetPlanBatchCompilesTheAlreadyPublishedModel) {
  ModelRegistry reg;
  auto model = make_shared_model();
  reg.publish(model, "bootstrap");
  EXPECT_EQ(model->plan(), nullptr);  // plans disabled at publish time
  reg.set_plan_batch(16);
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), 16u);
}

TEST(RegistryPlan, ZeroCapDisablesCompilationForFuturePublishes) {
  ModelRegistry reg;
  reg.set_plan_batch(8);
  reg.set_plan_batch(0);
  auto model = make_shared_model();
  reg.publish(model, "bootstrap");
  EXPECT_EQ(model->plan(), nullptr);  // compiles on its first predict
}

TEST(RegistryPlan, CompileIsObservedOncePerActualCompile) {
  obs::MetricsRegistry metrics;
  ModelRegistry reg;
  reg.instrument(nullptr, &metrics);
  reg.set_plan_batch(8);
  auto model = make_shared_model();
  reg.publish(model, "bootstrap");
  EXPECT_EQ(metrics.counter("serve.plan.compiles").value(), 1u);
  // Republishing the same (already compiled, matching cap) model must not
  // emit a second compile event.
  reg.publish(model, "republish");
  EXPECT_EQ(metrics.counter("serve.plan.compiles").value(), 1u);
}

TEST(RegistryPlan, LazilyCompiledPlanReportsIntoTheRegistry) {
  obs::MetricsRegistry metrics;
  ModelRegistry reg;
  reg.instrument(nullptr, &metrics);
  reg.set_plan_batch(32);
  auto model = make_shared_model();
  ml::Sample obs;
  obs.frames.emplace_back(ml::ModelConfig{}.img_w, ml::ModelConfig{}.img_h);
  model->predict(obs);  // compiles at the default cap, which matches
  reg.publish(model, "bootstrap");
  EXPECT_EQ(metrics.counter("serve.plan.compiles").value(), 0u);
  model->predict(obs);
  EXPECT_EQ(metrics.counter("serve.plan.exec.batches").value(), 1u);
}

TEST(ReplicatedRegistryPlan, ForwardsCapAndSharedModelCompilesOnce) {
  obs::MetricsRegistry metrics;
  ReplicatedRegistry reg(3);
  reg.instrument(nullptr, &metrics);
  reg.set_plan_batch(8);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(reg.shard(s).plan_batch(), 8u);
  }
  auto model = make_shared_model();
  reg.publish_all(model, "bootstrap");
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), 8u);
  // publish_all lands ONE shared model on all replicas: the first replica
  // compiles, the other two see a matching plan and skip.
  EXPECT_EQ(metrics.counter("serve.plan.compiles").value(), 1u);
}

FleetOptions small_fleet() {
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

TEST(FleetServicePlan, DefaultOptionsCompileThePublishedModel) {
  util::EventQueue queue;
  FleetOptions opt = small_fleet();
  ModelRegistry reg;
  auto model = make_shared_model();
  reg.publish(model, "bootstrap");
  FleetService service(queue, reg, opt);
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), opt.batcher.max_batch);
}

}  // namespace
}  // namespace autolearn::serve
