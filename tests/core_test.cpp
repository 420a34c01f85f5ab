#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "core/continuum.hpp"
#include "core/pathway.hpp"
#include "core/pipeline.hpp"
#include "core/twin.hpp"
#include "data/collector.hpp"
#include "data/dataset.hpp"
#include "data/tub.hpp"
#include "gpu/perf_model.hpp"
#include "ml/quant_model.hpp"
#include "ml/trainer.hpp"
#include "obs/metrics.hpp"

namespace autolearn::core {
namespace {

namespace fs = std::filesystem;

fs::path temp_workdir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("autolearn_core_" + tag + "_" + std::to_string(getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

// --- pathway ---------------------------------------------------------------

TEST(Pathway, ThreePathsHaveFourPhases) {
  for (PathwayKind k :
       {PathwayKind::Regular, PathwayKind::Classroom, PathwayKind::Digital}) {
    const PathwayPlan plan = make_pathway(k);
    EXPECT_EQ(plan.phases.size(), 4u) << to_string(k);
    EXPECT_FALSE(plan.audience.empty());
  }
}

TEST(Pathway, DigitalPathNeedsNoCar) {
  EXPECT_FALSE(make_pathway(PathwayKind::Digital).needs_physical_car());
  EXPECT_TRUE(make_pathway(PathwayKind::Regular).needs_physical_car());
  EXPECT_TRUE(make_pathway(PathwayKind::Classroom).needs_physical_car());
}

TEST(Pathway, NotebookMaterialization) {
  const PathwayPlan plan = make_pathway(PathwayKind::Digital);
  int runs = 0;
  workflow::Notebook nb = to_notebook(plan, [&](const PhasePlan& p) {
    ++runs;
    return "done: " + p.phase;
  });
  EXPECT_EQ(nb.cell_count(), 4u);
  EXPECT_EQ(nb.run_all(), 4u);
  EXPECT_EQ(runs, 4);
  EXPECT_NE(nb.cell(0).output.find("data collection"), std::string::npos);
  EXPECT_THROW(to_notebook(plan, nullptr), std::invalid_argument);
}

// --- pipeline ---------------------------------------------------------------

TEST(Pipeline, EndToEndSampleDataset) {
  const track::Track t = track::Track::paper_oval();
  PipelineOptions opt;
  opt.collect_duration_s = 60.0;
  opt.model = ml::ModelType::Inferred;
  opt.train.epochs = 6;
  opt.eval.duration_s = 30.0;
  Pipeline pipe(t, opt, temp_workdir("e2e"));
  const PipelineReport report = pipe.run();
  EXPECT_EQ(report.collect.records, 1200u);
  EXPECT_GT(report.train_samples, 900u);
  EXPECT_GT(report.val_samples, 100u);
  EXPECT_LT(report.steering_mae, 0.3);
  EXPECT_GT(report.simulated_gpu_seconds, 0.0);
  EXPECT_GT(report.eval_result.distance_m, 1.0);
  EXPECT_NO_THROW(pipe.model());
}

TEST(Pipeline, CleaningRemovesMistakes) {
  const track::Track t = track::Track::paper_oval();
  PipelineOptions opt;
  opt.data_path = data::DataPath::Simulator;
  opt.collect_duration_s = 60.0;
  opt.driver.mistake_rate = 20.0;
  opt.model = ml::ModelType::Inferred;
  opt.train.epochs = 2;
  opt.eval.duration_s = 5.0;
  Pipeline pipe(t, opt, temp_workdir("clean"));
  const PipelineReport report = pipe.run();
  EXPECT_GT(report.collect.mistake_records, 0u);
  EXPECT_GE(report.clean.deleted, report.collect.mistake_records);
}

TEST(Pipeline, ModelBeforeRunThrows) {
  const track::Track t = track::Track::paper_oval();
  Pipeline pipe(t, PipelineOptions{}, temp_workdir("norun"));
  EXPECT_THROW(pipe.model(), std::logic_error);
}

// --- continuum -----------------------------------------------------------------

TEST(Continuum, PlacementNames) {
  EXPECT_STREQ(to_string(Placement::OnDevice), "on-device");
  EXPECT_STREQ(to_string(Placement::Cloud), "cloud");
  EXPECT_STREQ(to_string(Placement::Hybrid), "hybrid");
}

/// A model that only reports its FLOPs: the latency arithmetic reads
/// nothing else.
class FlopsOnlyModel : public ml::DrivingModel {
 public:
  explicit FlopsOnlyModel(std::uint64_t flops) : flops_(flops) {}
  ml::ModelType type() const override { return ml::ModelType::Linear; }
  ml::Prediction predict(const ml::Sample&) override { return {}; }
  double train_batch(const std::vector<const ml::Sample*>&) override {
    return 0.0;
  }
  double eval_batch(const std::vector<const ml::Sample*>&) override {
    return 0.0;
  }
  std::size_t num_parameters() override { return 0; }
  std::uint64_t flops_per_sample() const override { return flops_; }
  void save(std::ostream&) override {}
  void load(std::istream&) override {}

 private:
  std::uint64_t flops_;
};

TEST(Continuum, LatencyModelShapes) {
  ContinuumOptions opt;
  opt.network_rtt_s = 0.05;
  const FlopsOnlyModel small(2'000'000), big(40'000'000);
  const double on_device =
      placement_latency_s(Placement::OnDevice, opt, small, big);
  const double cloud = placement_latency_s(Placement::Cloud, opt, small, big);
  const double hybrid =
      placement_latency_s(Placement::Hybrid, opt, small, big);
  // On-device and hybrid respond at the Pi's small-model speed; the cloud
  // pays the network RTT on top of its (fast) GPU inference.
  EXPECT_DOUBLE_EQ(on_device, hybrid);
  EXPECT_GT(cloud, opt.network_rtt_s);
  EXPECT_LT(on_device, cloud);
  // The full-scale deployment (the paper's 160x120 stack) is slower on the
  // Pi in proportion to the scale factor.
  ContinuumOptions full = opt;
  full.flops_scale = 1500.0;
  EXPECT_GT(placement_latency_s(Placement::OnDevice, full, small, big),
            10 * on_device);
}

TEST(Continuum, CloudLatencyGrowsWithRtt) {
  ContinuumOptions a, b;
  a.network_rtt_s = 0.01;
  b.network_rtt_s = 0.3;
  const FlopsOnlyModel edge(1'000'000), cloud(10'000'000);
  const double la = placement_latency_s(Placement::Cloud, a, edge, cloud);
  const double lb = placement_latency_s(Placement::Cloud, b, edge, cloud);
  EXPECT_NEAR(lb - la, 0.29, 1e-9);
}

TEST(Continuum, HybridPilotUsesCloudWhenFast) {
  ml::ModelConfig cfg;
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  auto cloud_model = ml::make_model(ml::ModelType::Linear, cfg);
  ContinuumOptions fast;
  fast.network_rtt_s = 0.02;
  fast.rtt_jitter_s = 0.0;
  HybridPilot pilot(*edge_model, *cloud_model, fast, util::Rng(3));
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);
  for (int i = 0; i < 50; ++i) pilot.act(frame);
  EXPECT_GT(pilot.cloud_usage(), 0.8);

  ContinuumOptions slow = fast;
  slow.network_rtt_s = 0.5;  // way beyond staleness
  HybridPilot pilot2(*edge_model, *cloud_model, slow, util::Rng(3));
  pilot2.reset();
  for (int i = 0; i < 50; ++i) pilot2.act(frame);
  EXPECT_LT(pilot2.cloud_usage(), 0.2);
}

TEST(Continuum, EvaluatePlacementRuns) {
  const track::Track t = track::Track::paper_oval();
  ml::ModelConfig cfg;
  auto main_model = ml::make_model(ml::ModelType::Linear, cfg);
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  // Warm up flop counters.
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);
  ml::Sample s;
  s.frames = {frame, frame, frame};
  main_model->predict(s);
  edge_model->predict(s);

  ContinuumOptions copt;
  eval::EvalOptions eopt;
  eopt.duration_s = 5.0;
  for (Placement p :
       {Placement::OnDevice, Placement::Cloud, Placement::Hybrid}) {
    const eval::EvalResult r =
        evaluate_placement(t, *main_model, *edge_model, p, copt, eopt);
    EXPECT_EQ(r.steps, 100u) << to_string(p);
  }
}

TEST(Continuum, EvaluatePlacementPricesAFreshModel) {
  // A freshly built edge model has run no forward when the placement
  // prices it: every command still pays its full FLOPs, the one price
  // core::inference_s gives, and a forward does not change that price.
  const track::Track t = track::Track::paper_oval();
  ml::ModelConfig cfg;
  auto main_model = ml::make_model(ml::ModelType::Linear, cfg);
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  ContinuumOptions copt;
  copt.flops_scale = 1500.0;
  const double price = inference_s(copt, copt.edge_device, *edge_model);
  // 41,032 FLOPs x 1500 on the Pi: 0.350 ms overhead + 9.118 ms compute.
  EXPECT_NEAR(price, 9.468e-3, 1e-6);

  obs::MetricsRegistry metrics;
  copt.metrics = &metrics;
  eval::EvalOptions eopt;
  eopt.duration_s = 1.0;
  evaluate_placement(t, *main_model, *edge_model, Placement::OnDevice, copt,
                     eopt);
  const obs::Histogram* latency = metrics.find_histogram("eval.cmd_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 20u);
  EXPECT_EQ(latency->min(), price);
  EXPECT_EQ(latency->max(), price);
  EXPECT_EQ(inference_s(copt, copt.edge_device, *edge_model), price);
}

TEST(Continuum, InferencePriceRefusesAScaleOutsideTheCastRange) {
  // FLOPs x flops_scale becomes a uint64_t FLOP count: a NaN, negative,
  // infinite or too large product has no such count and is refused.
  ml::ModelConfig cfg;
  auto model = ml::make_model(ml::ModelType::Linear, cfg);
  ContinuumOptions copt;
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                             std::numeric_limits<double>::infinity(), 1e300}) {
    copt.flops_scale = scale;
    EXPECT_THROW(inference_s(copt, copt.edge_device, *model),
                 std::invalid_argument)
        << scale;
  }
  copt.flops_scale = 0.0;
  EXPECT_GT(inference_s(copt, copt.edge_device, *model), 0.0);
}

TEST(Continuum, OnDeviceInt8ModelIsPricedAtItsInt8Latency) {
  // An int8 edge model is billed at the device's int8 throughput on its
  // full FLOPs, conv layers included, though it has not run a forward of
  // its own when the placement reads them.
  const track::Track t = track::Track::paper_oval();
  ml::ModelConfig cfg;
  auto fp32 = ml::make_model(ml::ModelType::Linear, cfg);
  ml::Sample s;
  s.frames = {camera::Image(cfg.img_w, cfg.img_h, 0.5f)};
  auto int8 = ml::quantize_model(*fp32, cfg, {s, s, s, s});
  fp32->predict(s);  // sizes the source's conv FLOPs
  EXPECT_EQ(int8->flops_per_sample(), fp32->flops_per_sample());

  ContinuumOptions copt;
  copt.flops_scale = 1500.0;
  obs::MetricsRegistry metrics;
  copt.metrics = &metrics;
  eval::EvalOptions eopt;
  eopt.duration_s = 1.0;
  evaluate_placement(t, *int8, *int8, Placement::OnDevice, copt, eopt);

  const auto flops = static_cast<std::uint64_t>(
      static_cast<double>(fp32->flops_per_sample()) * copt.flops_scale);
  const gpu::DeviceSpec& pi = gpu::device(copt.edge_device);
  const double int8_price =
      gpu::inference_latency_s(pi, flops, 1, gpu::Precision::Int8);
  const obs::Histogram* latency = metrics.find_histogram("eval.cmd_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 20u);
  EXPECT_EQ(latency->min(), int8_price);
  EXPECT_EQ(latency->max(), int8_price);
  EXPECT_LT(int8_price,
            gpu::inference_latency_s(pi, flops, 1, gpu::Precision::Fp32));
}

// --- twin ------------------------------------------------------------------------

class ConstantPilot : public eval::Pilot {
 public:
  vehicle::DriveCommand act(const camera::Image&) override {
    return {0.15, 0.4};
  }
  void reset() override {}
  std::string name() const override { return "constant"; }
};

TEST(Twin, ZeroNoiseScaleIsPerfectTwin) {
  const track::Track t = track::Track::paper_oval();
  ConstantPilot pilot;
  TwinOptions opt;
  opt.duration_s = 10.0;
  opt.noise_scale = 0.0;
  const TwinReport r = compare_sim_to_real(t, pilot, opt);
  EXPECT_NEAR(r.position_rmse_m, 0.0, 1e-9);
  EXPECT_NEAR(r.fidelity, 1.0, 1e-9);
}

TEST(Twin, DivergenceGrowsWithNoise) {
  // Short runs: past ~20 s the divergence saturates at the loop size and
  // the ordering washes out, so compare while it is still growing.
  const track::Track t = track::Track::paper_oval();
  ConstantPilot pilot;
  TwinOptions mild, rough;
  mild.duration_s = 8.0;
  mild.noise_scale = 0.25;
  rough.duration_s = 8.0;
  rough.noise_scale = 2.0;
  const TwinReport r_mild = compare_sim_to_real(t, pilot, mild);
  const TwinReport r_rough = compare_sim_to_real(t, pilot, rough);
  EXPECT_GT(r_mild.position_rmse_m, 0.0);
  EXPECT_GT(r_rough.position_rmse_m, r_mild.position_rmse_m);
  EXPECT_LT(r_rough.fidelity, r_mild.fidelity);
  EXPECT_GT(r_mild.fidelity, 0.0);
  EXPECT_LE(r_mild.fidelity, 1.0);
}

TEST(Twin, Validation) {
  const track::Track t = track::Track::paper_oval();
  ConstantPilot pilot;
  TwinOptions bad;
  bad.duration_s = 0;
  EXPECT_THROW(compare_sim_to_real(t, pilot, bad), std::invalid_argument);
  bad = TwinOptions{};
  bad.noise_scale = -1;
  EXPECT_THROW(compare_sim_to_real(t, pilot, bad), std::invalid_argument);
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    bad = TwinOptions{};
    bad.duration_s = v;
    EXPECT_THROW(compare_sim_to_real(t, pilot, bad), std::invalid_argument)
        << "duration_s " << v;
    bad = TwinOptions{};
    bad.dt = v;
    EXPECT_THROW(compare_sim_to_real(t, pilot, bad), std::invalid_argument)
        << "dt " << v;
  }
}

TEST(Twin, ReportsBothRunsDistances) {
  const track::Track t = track::Track::paper_oval();
  ConstantPilot pilot;
  TwinOptions opt;
  opt.duration_s = 15.0;
  const TwinReport r = compare_sim_to_real(t, pilot, opt);
  EXPECT_GT(r.sim_distance_m, 0.0);
  EXPECT_GT(r.real_distance_m, 0.0);
}

}  // namespace
}  // namespace autolearn::core
