#include "gpu/perf_model.hpp"

#include <gtest/gtest.h>

namespace autolearn::gpu {
namespace {

TrainingWorkload typical_load() {
  TrainingWorkload load;
  load.forward_flops = 20'000'000ull * 24'000;  // 24k samples, 20 MFLOP each
  load.samples = 24'000;
  load.batch_size = 32;
  return load;
}

TEST(Devices, CatalogueLookup) {
  EXPECT_EQ(device("A100").name, "A100");
  EXPECT_GT(device("A100").peak_fp32_tflops, device("P100").peak_fp32_tflops);
  EXPECT_THROW(device("H100"), std::invalid_argument);
}

TEST(Devices, PaperListIsPresent) {
  const auto list = datacenter_devices();
  ASSERT_EQ(list.size(), 5u);  // A100, V100, v100NVLINK, RTX6000, P100
  for (const auto& name : list) EXPECT_NO_THROW(device(name));
}

TEST(Devices, AllDevicesIncludesEdge) {
  const auto names = all_devices();
  bool has_pi = false;
  for (const auto& n : names) has_pi |= (n == "RaspberryPi4");
  EXPECT_TRUE(has_pi);
  EXPECT_GE(names.size(), 9u);
}

TEST(TrainingTime, OrderingMatchesHardwareGeneration) {
  const auto load = typical_load();
  const double a100 = training_time_s(device("A100"), load);
  const double v100 = training_time_s(device("V100"), load);
  const double rtx = training_time_s(device("RTX6000"), load);
  const double p100 = training_time_s(device("P100"), load);
  EXPECT_LT(a100, v100);
  EXPECT_LT(v100, rtx);
  EXPECT_LT(rtx, p100);
}

TEST(TrainingTime, ScalesWithWorkload) {
  TrainingWorkload small = typical_load();
  TrainingWorkload big = small;
  big.forward_flops *= 4;
  big.samples *= 4;
  const double t_small = training_time_s(device("V100"), small);
  const double t_big = training_time_s(device("V100"), big);
  EXPECT_GT(t_big, 3.5 * t_small);
  EXPECT_LT(t_big, 4.5 * t_small);
}

TEST(TrainingTime, MultiGpuNvlinkFasterThanPcie) {
  const auto load = typical_load();
  const DeviceSpec& v100 = device("v100NVLINK");
  const double one = training_time_s(v100, load, 1);
  const double four_nvlink =
      training_time_s(v100, load, 4, Interconnect::NVLink);
  const double four_pcie = training_time_s(v100, load, 4, Interconnect::PCIe);
  EXPECT_LT(four_nvlink, four_pcie);
  EXPECT_LT(four_pcie, one);
  // Scaling is sublinear.
  EXPECT_GT(four_nvlink, one / 4.0);
}

TEST(TrainingTime, Validation) {
  const auto load = typical_load();
  EXPECT_THROW(training_time_s(device("A100"), load, 0),
               std::invalid_argument);
  EXPECT_THROW(training_time_s(device("A100"), load, 2, Interconnect::None),
               std::invalid_argument);
  TrainingWorkload bad = load;
  bad.batch_size = 0;
  EXPECT_THROW(training_time_s(device("A100"), bad), std::invalid_argument);
}

TEST(TrainingTime, SmallModelsAreLaunchBound) {
  // For a tiny model the overhead term dominates: halving flops barely
  // changes the time.
  TrainingWorkload tiny;
  tiny.forward_flops = 100'000ull * 6400;  // 0.1 MFLOP model
  tiny.samples = 6400;
  tiny.batch_size = 32;
  TrainingWorkload tinier = tiny;
  tinier.forward_flops /= 2;
  const double t1 = training_time_s(device("A100"), tiny);
  const double t2 = training_time_s(device("A100"), tinier);
  EXPECT_LT((t1 - t2) / t1, 0.10);
}

TEST(Inference, EdgeIsSlowerThanDatacenter) {
  const std::uint64_t model_flops = 20'000'000;  // linear model class
  const double pi = inference_latency_s(device("RaspberryPi4"), model_flops);
  const double v100 = inference_latency_s(device("V100"), model_flops);
  EXPECT_GT(pi, v100);
  // The Pi should take milliseconds, the V100 tens of microseconds.
  EXPECT_GT(pi, 1e-3);
  EXPECT_LT(v100, 1e-3);
}

TEST(Inference, SmallerModelIsFaster) {
  const DeviceSpec& pi = device("RaspberryPi4");
  EXPECT_LT(inference_latency_s(pi, 1'000'000),
            inference_latency_s(pi, 50'000'000));
}

TEST(Inference, BatchOfOneMatchesSingleSignatureBitwise) {
  // Omitting the batch means batch = 1 — equal bits, not just equal-ish
  // values.
  for (const std::string& name : all_devices()) {
    const DeviceSpec& spec = device(name);
    for (std::uint64_t flops : {0ull, 1'000'000ull, 50'000'000ull}) {
      EXPECT_EQ(inference_latency_s(spec, flops),
                inference_latency_s(spec, flops, 1))
          << name << " @ " << flops;
    }
  }
}

TEST(Inference, BatchingAmortizesPerCallOverhead) {
  const DeviceSpec& v100 = device("V100");
  const std::uint64_t model_flops = 2'000'000;  // DonkeyCar-class
  const double single = inference_latency_s(v100, model_flops, 1);
  for (std::size_t batch : {8u, 32u}) {
    const double batched = inference_latency_s(v100, model_flops, batch);
    // A batch costs more than one call but far less than `batch` calls.
    EXPECT_GT(batched, single);
    EXPECT_LT(batched, static_cast<double>(batch) * single);
    // Per-request cost strictly improves with batching.
    EXPECT_LT(batched / static_cast<double>(batch), single);
  }
  // Small models are overhead-bound: cap-32 batching must amortize at
  // least 3x per request on a datacenter GPU.
  EXPECT_GT(single / (inference_latency_s(v100, model_flops, 32) / 32.0),
            3.0);
}

TEST(Inference, BatchZeroThrows) {
  EXPECT_THROW(inference_latency_s(device("V100"), 1'000'000, 0),
               std::invalid_argument);
}

TEST(Scaling, EfficiencyRanges) {
  EXPECT_EQ(scaling_efficiency(Interconnect::None), 1.0);
  EXPECT_GT(scaling_efficiency(Interconnect::NVLink),
            scaling_efficiency(Interconnect::PCIe));
  EXPECT_LT(scaling_efficiency(Interconnect::NVLink), 1.0);
}

}  // namespace
}  // namespace autolearn::gpu
