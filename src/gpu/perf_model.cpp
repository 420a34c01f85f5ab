#include "gpu/perf_model.hpp"

#include <cmath>
#include <stdexcept>

namespace autolearn::gpu {
namespace {

const std::vector<DeviceSpec>& catalogue() {
  // peak fp32 TFLOPS from vendor spec sheets; utilization/overheads chosen
  // so small-model training is launch-bound (as observed in practice) and
  // the device ordering matches the hardware generations.
  // int8_speedup: devices with an integer dot-product path (dp4a on
  // Pascal-successors' successors — Volta/Turing/Ampere — and CDNA) get
  // ~4x over fp32 on small GEMMs; P100/M40/K80 predate dp4a and stay at
  // 1.0; the Pi 4's NEON gets ~2.5x from 8-bit widening multiplies
  // (consistent with the AVX2 qgemm-vs-sgemm ratio in BENCH_quant.json).
  static const std::vector<DeviceSpec> devices = {
      {"A100", 19.5, 0.42, 8.0, 45.0, 4.0, 2020},
      {"V100", 15.7, 0.38, 10.0, 55.0, 4.0, 2017},
      {"v100NVLINK", 15.7, 0.38, 9.0, 55.0, 4.0, 2017},
      {"RTX6000", 16.3, 0.33, 12.0, 60.0, 4.0, 2018},
      {"P100", 9.3, 0.32, 14.0, 70.0, 1.0, 2016},
      {"M40", 6.8, 0.28, 18.0, 90.0, 1.0, 2015},
      {"K80", 4.1, 0.25, 25.0, 120.0, 1.0, 2014},
      {"MI100", 23.1, 0.30, 11.0, 60.0, 4.0, 2020},
      // Edge: Raspberry Pi 4 CPU doing NEON fp32 inference.
      {"RaspberryPi4", 0.0135, 0.50, 0.0, 350.0, 2.5, 2019},
  };
  return devices;
}

}  // namespace

const DeviceSpec& device(const std::string& name) {
  for (const DeviceSpec& d : catalogue()) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("gpu: unknown device " + name);
}

std::vector<std::string> datacenter_devices() {
  return {"A100", "V100", "v100NVLINK", "RTX6000", "P100"};
}

std::vector<std::string> all_devices() {
  std::vector<std::string> out;
  for (const DeviceSpec& d : catalogue()) out.push_back(d.name);
  return out;
}

double scaling_efficiency(Interconnect link) {
  switch (link) {
    case Interconnect::None: return 1.0;
    case Interconnect::PCIe: return 0.75;
    case Interconnect::NVLink: return 0.92;
  }
  return 1.0;
}

double training_time_s(const DeviceSpec& spec, const TrainingWorkload& load,
                       int count, Interconnect link) {
  if (count < 1) throw std::invalid_argument("gpu: count must be >= 1");
  if (load.batch_size == 0) throw std::invalid_argument("gpu: batch 0");
  if (count > 1 && link == Interconnect::None) {
    throw std::invalid_argument("gpu: multi-GPU needs an interconnect");
  }
  const double total_flops =
      static_cast<double>(load.forward_flops) * load.backward_multiplier;
  // Data-parallel: each device sees samples/count, so the batch count per
  // device shrinks, but gradient all-reduce caps the scaling.
  const double eff_devices =
      count == 1 ? 1.0
                 : 1.0 + (count - 1) * scaling_efficiency(link);
  const double batches = std::ceil(
      static_cast<double>(load.samples) /
      static_cast<double>(load.batch_size) / eff_devices);
  const double compute_s = total_flops / (spec.effective_flops() * eff_devices);
  const double overhead_s = batches * spec.batch_overhead_us * 1e-6;
  return compute_s + overhead_s;
}

double inference_latency_s(const DeviceSpec& spec, std::uint64_t model_flops,
                           std::size_t batch, Precision precision) {
  if (batch == 0) throw std::invalid_argument("gpu: inference batch 0");
  // Written so batch = 1 at Fp32 is bitwise-identical to the historical
  // single-sample formula (overhead + flops / effective): the flops term
  // scales by the batch, the launch overhead does not. (At Fp32 the
  // precision factor is an exact multiply by 1.0.)
  return spec.infer_overhead_us * 1e-6 +
         static_cast<double>(batch) * static_cast<double>(model_flops) /
             spec.effective_flops(precision);
}

}  // namespace autolearn::gpu
