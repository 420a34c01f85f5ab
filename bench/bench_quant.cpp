// Int8 inference benchmark. Measures:
//   1. qgemm (packed int8, AVX2 vpmaddubsw when available) vs fp32 sgemm
//      GFLOP/s on the six layer shapes of the default model zoo, plus
//      the portable scalar qgemm for reference,
//   2. end-to-end predict_batch wall time of every zoo model fp32 vs its
//      quantized twin (max-abs calibration from tub-style samples),
//   3. the perf-model continuum view: simulated inference_latency_s per
//      zoo model on the Pi 4 edge tier at fp32 vs int8, against a V100
//      fp32 datacenter baseline.
//
// Writes BENCH_quant.json (override with --out=PATH). `--smoke` shrinks
// iteration counts so the binary doubles as a ctest smoke test
// (`ctest -L bench`). Set AUTOLEARN_THREADS to pin the worker count the
// JSON records.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "camera/image.hpp"
#include "gpu/perf_model.hpp"
#include "ml/driving_model.hpp"
#include "ml/gemm.hpp"
#include "ml/quant.hpp"
#include "ml/quant_model.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- int8 vs fp32 GEMM on the zoo shapes ----------------------------------

struct GemmShape {
  const char* name;  // which model-zoo layer this is (batch 32, 24x32)
  std::size_t m, n, k;
};

// Same sweep as bench_ml_kernels: [OC, C*K*K] @ [C*K*K, N*OH*OW] for the
// encoder convs, [N, F] @ [F, O]^T for the heads, batch 32, 24x32 frames.
constexpr GemmShape kZooShapes[] = {
    {"encoder_conv1", 8, 5280, 9},    // Conv2D 1->8  k3 s2 on 24x32
    {"encoder_conv2", 16, 1120, 72},  // Conv2D 8->16 k3 s2 on 11x15
    {"encoder_conv3", 32, 192, 144},  // Conv2D 16->32 k3 s2 on 5x7
    {"dense_head", 32, 64, 192},      // Dense 192->64
    {"lstm_gates", 32, 128, 192},     // LSTM Wx: [N,D] @ [4H,D]^T
    {"conv3d_stage1", 8, 10560, 18},  // Conv3D 1->8 kd2 k3 sd1 s2, T=3
};

template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

util::Json bench_qgemm_shapes(bool smoke) {
  util::Json out = util::Json::array();
  util::Rng rng(1);
  const bool have_avx2 = ml::qgemm_isa_supported(ml::QGemmIsa::Avx2);
  for (const GemmShape& s : kZooShapes) {
    std::vector<float> w(s.m * s.k), x(s.k * s.n), c(s.m * s.n, 0.0f);
    for (float& v : w) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : x) v = static_cast<float>(rng.uniform(0, 1));
    const double flop = 2.0 * static_cast<double>(s.m) *
                        static_cast<double>(s.n) * static_cast<double>(s.k);
    const int reps = smoke ? 2 : std::max(10, static_cast<int>(2e8 / flop));

    // fp32 baseline: the same m x n x k product through sgemm.
    ml::sgemm(false, false, s.m, s.n, s.k, 1.0f, w.data(), s.k, x.data(), s.n,
              0.0f, c.data(), s.n);  // warm-up: sizes thread-local packs
    const double fp32_s = best_of(reps, [&] {
      ml::sgemm(false, false, s.m, s.n, s.k, 1.0f, w.data(), s.k, x.data(),
                s.n, 0.0f, c.data(), s.n);
    });

    // int8: weights prepacked offline (as in a deployed artifact),
    // activations pre-quantized (that cost is in the end-to-end section).
    const ml::QuantizedWeights qw = ml::quantize_weights(w.data(), s.m, s.k);
    const ml::ActQuant xq = ml::choose_act_quant(0.0f, 1.0f);
    std::vector<std::uint8_t> qx(s.k * s.n);
    ml::quantize_activations(x.data(), x.size(), xq, qx.data());
    ml::qgemm(qw, qx.data(), s.n, xq, c.data(), s.n);  // warm-up
    const double int8_s = best_of(reps, [&] {
      ml::qgemm(qw, qx.data(), s.n, xq, c.data(), s.n);
    });
    const double scalar_s = best_of(reps, [&] {
      ml::qgemm(qw, qx.data(), s.n, xq, c.data(), s.n, ml::QGemmIsa::Scalar);
    });

    util::Json row = util::Json::object();
    row.set("name", s.name);
    row.set("m", s.m);
    row.set("n", s.n);
    row.set("k", s.k);
    row.set("fp32_gflops", flop / fp32_s / 1e9);
    row.set("int8_gflops", flop / int8_s / 1e9);
    row.set("int8_scalar_gflops", flop / scalar_s / 1e9);
    row.set("int8_speedup", fp32_s / int8_s);
    row.set("avx2", have_avx2);
    out.push_back(std::move(row));
    std::cout << "  gemm " << s.name << ": fp32 " << flop / fp32_s / 1e9
              << " GFLOP/s, int8 " << flop / int8_s / 1e9 << " (scalar "
              << flop / scalar_s / 1e9 << "), speedup " << fp32_s / int8_s
              << "x\n";
  }
  return out;
}

// --- end-to-end zoo model latency -----------------------------------------

std::vector<ml::Sample> band_dataset(std::size_t n, const ml::ModelConfig& cfg,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ml::Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(cfg.img_w) - 3));
    camera::Image img(cfg.img_w, cfg.img_h, 0.1f);
    for (std::size_t y = 0; y < cfg.img_h; ++y) {
      for (std::size_t dx = 0; dx < 3; ++dx) img.at(col - 1 + dx, y) = 0.9f;
    }
    ml::Sample smp;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) smp.frames.push_back(img);
    const float steer = static_cast<float>(
        2.0 * static_cast<double>(col) / (cfg.img_w - 1) - 1.0);
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      smp.history.push_back(steer);
      smp.history.push_back(0.5f);
    }
    smp.steering = steer;
    smp.throttle = 0.5f;
    out.push_back(std::move(smp));
  }
  return out;
}

util::Json bench_zoo_models(bool smoke, util::Json* continuum_out) {
  util::Json out = util::Json::array();
  util::Json continuum = util::Json::array();
  ml::ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  const std::size_t batch = 32;
  const auto samples = band_dataset(batch, cfg, 5);
  const auto calibration = band_dataset(64, cfg, 6);
  const int reps = smoke ? 2 : 30;
  const gpu::DeviceSpec& pi = gpu::device("RaspberryPi4");
  const gpu::DeviceSpec& v100 = gpu::device("V100");
  for (ml::ModelType type : ml::all_model_types()) {
    auto fp32 = ml::make_model(type, cfg);
    auto int8 = ml::quantize_model(*fp32, cfg, calibration,
                                   ml::QuantizeOptions{});
    std::vector<ml::Prediction> sink(batch);
    auto time_model = [&](ml::DrivingModel& m) {
      m.predict_batch(samples.data(), batch, sink.data());  // warm-up
      return best_of(reps,
                     [&] { m.predict_batch(samples.data(), batch, sink.data()); });
    };
    const double fp32_s = time_model(*fp32);
    const double int8_s = time_model(*int8);
    util::Json row = util::Json::object();
    row.set("model", fp32->type_name());
    row.set("batch", batch);
    row.set("fp32_ms", fp32_s * 1e3);
    row.set("int8_ms", int8_s * 1e3);
    row.set("speedup", fp32_s / int8_s);
    out.push_back(std::move(row));
    std::cout << "  model " << fp32->type_name() << ": fp32 "
              << fp32_s * 1e3 << " ms, int8 " << int8_s * 1e3
              << " ms, speedup " << fp32_s / int8_s << "x\n";

    // Continuum view: the same model priced by the perf model — edge
    // (Pi 4) fp32 vs int8 and the V100 fp32 datacenter tier, batch 1
    // (the on-device steering loop is unbatched).
    const std::uint64_t flops = fp32->flops_per_sample();
    util::Json crow = util::Json::object();
    crow.set("model", fp32->type_name());
    crow.set("flops_per_sample", flops);
    crow.set("pi4_fp32_ms",
             gpu::inference_latency_s(pi, flops, 1, gpu::Precision::Fp32) *
                 1e3);
    crow.set("pi4_int8_ms",
             gpu::inference_latency_s(pi, flops, 1, gpu::Precision::Int8) *
                 1e3);
    crow.set("v100_fp32_ms",
             gpu::inference_latency_s(v100, flops, 1, gpu::Precision::Fp32) *
                 1e3);
    continuum.push_back(std::move(crow));
  }
  *continuum_out = std::move(continuum);
  return out;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_quant.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_quant [--smoke] [--out=PATH]\n";
      return 1;
    }
  }
  const std::size_t threads = util::ThreadPool::shared().size();
  std::cout << "bench_quant: " << threads << " worker(s)"
            << (smoke ? ", smoke mode" : "")
            << (ml::qgemm_isa_supported(ml::QGemmIsa::Avx2) ? ", avx2"
                                                            : ", scalar")
            << "\n";

  util::Json doc = util::Json::object();
  doc.set("bench", "quant");
  doc.set("threads", threads);
  doc.set("smoke", smoke);
  doc.set("avx2", ml::qgemm_isa_supported(ml::QGemmIsa::Avx2));
  std::cout << "int8 vs fp32 GEMM on model-zoo shapes:\n";
  doc.set("gemm", bench_qgemm_shapes(smoke));
  std::cout << "end-to-end zoo models (predict_batch, batch 32):\n";
  util::Json continuum;
  doc.set("models", bench_zoo_models(smoke, &continuum));
  doc.set("continuum_latency", std::move(continuum));

  const ml::KernelCounters kc = ml::kernel_counters();
  util::Json counters = util::Json::object();
  counters.set("gemm_calls", kc.gemm_calls);
  counters.set("gemm_flops", kc.gemm_flops);
  counters.set("qgemm_calls", kc.qgemm_calls);
  counters.set("qgemm_ops", kc.qgemm_ops);
  doc.set("kernel_counters", std::move(counters));

  std::ofstream f(out_path);
  if (!f) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  f << doc.dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace autolearn::bench

int main(int argc, char** argv) { return autolearn::bench::run(argc, argv); }
