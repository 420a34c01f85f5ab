// Accelerator performance model.
//
// The paper trains on Chameleon GPU nodes ("We tested this process on a
// range of GPU nodes available via Chameleon including A100, V100,
// v100NVLINK, RTX6000, and P100"). Without CUDA hardware we train on CPU
// and *separately* convert the counted workload (forward FLOPs x samples,
// batches) into simulated wall-clock per device type. The model is
// deliberately simple and calibrated from public spec sheets:
//
//   time = batches x launch_overhead
//        + total_flops / (peak_fp32 x utilization x multi_gpu_scaling)
//
// Small DonkeyCar-class models are launch-bound on datacenter GPUs, which
// the per-batch overhead term captures; utilization reflects achievable
// throughput on small tensors rather than peak TFLOPS marketing numbers.
// The Raspberry Pi 4 entry models on-device (edge) inference for the
// continuum experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace autolearn::gpu {

/// Arithmetic precision an inference workload runs at. Int8 engages the
/// device's integer dot-product path (dp4a / NEON sdot) where one exists;
/// devices without such a path keep int8_speedup = 1.
enum class Precision { Fp32, Int8 };

struct DeviceSpec {
  std::string name;
  double peak_fp32_tflops = 0.0;   // per device
  double utilization = 0.35;       // achievable fraction on small models
  double batch_overhead_us = 0.0;  // per-batch launch/sync cost
  double infer_overhead_us = 0.0;  // per-inference-call cost
  double int8_speedup = 1.0;       // int8 throughput ratio vs fp32
  int year = 0;                    // release year (for documentation)

  /// Effective training throughput of one device, FLOP/s.
  double effective_flops() const {
    return peak_fp32_tflops * 1e12 * utilization;
  }

  /// Effective inference throughput at the given precision, (equivalent
  /// fp32) FLOP/s: int8 ops are counted as flops and run int8_speedup x
  /// faster, matching how the kernel counters report qgemm work.
  double effective_flops(Precision precision) const {
    return effective_flops() *
           (precision == Precision::Int8 ? int8_speedup : 1.0);
  }
};

/// Interconnect for multi-GPU nodes.
enum class Interconnect { None, PCIe, NVLink };

/// The device catalogue of §3.2: Chameleon accelerators plus the edge
/// device. Names match the paper's spelling.
const DeviceSpec& device(const std::string& name);
std::vector<std::string> datacenter_devices();  // the five the paper lists
std::vector<std::string> all_devices();

struct TrainingWorkload {
  std::uint64_t forward_flops = 0;  // sum over all trained samples
  std::uint64_t samples = 0;
  std::size_t batch_size = 32;
  /// backward+update costs ~2x forward; total = fwd * 3.
  double backward_multiplier = 3.0;
};

/// Simulated seconds to run the workload on `count` devices of this type.
double training_time_s(const DeviceSpec& spec, const TrainingWorkload& load,
                       int count = 1, Interconnect link = Interconnect::None);

/// Multi-GPU scaling efficiency per added device.
double scaling_efficiency(Interconnect link);

/// Simulated inference latency (seconds) of `batch` samples of a model
/// with the given forward FLOPs on this device: one per-call launch
/// overhead amortized across the whole batch, compute scaled by the batch
/// size. This is the cost model the fleet serving tier and the dynamic
/// batcher are sized against. Int8 workloads divide the compute term by
/// the device's int8_speedup, so an edge tier running the quantized path
/// is not priced as if it did fp32 math; the launch overhead is
/// precision-independent. Throws std::invalid_argument on batch 0.
double inference_latency_s(const DeviceSpec& spec, std::uint64_t model_flops,
                           std::size_t batch = 1,
                           Precision precision = Precision::Fp32);

}  // namespace autolearn::gpu
