// Kernel benchmark for the ml GEMM backbone. Measures:
//   1. sgemm GFLOP/s on the six layer shapes of the default model zoo
//      (batch 32, 24x32 frames),
//   2. the ml::fit wall time of the Linear architecture,
// and records the process-wide kernel counters.
//
// Writes BENCH_ml.json (override with --out=PATH). `--smoke` shrinks
// iteration counts so the binary doubles as a ctest smoke test
// (`ctest -L bench`). Set AUTOLEARN_THREADS to pin the worker count the
// JSON records.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "camera/image.hpp"
#include "ml/driving_model.hpp"
#include "ml/gemm.hpp"
#include "ml/trainer.hpp"
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

// --- GEMM shape sweep ------------------------------------------------------

struct GemmShape {
  const char* name;  // which model-zoo layer this is (batch 32, 24x32)
  std::size_t m, n, k;
};

// [OC, C*K*K] @ [C*K*K, N*OH*OW] for the encoder convs, [N, F] @ [F, O]^T
// for the heads; all at the default batch size 32 on 24x32 frames.
constexpr GemmShape kZooShapes[] = {
    {"encoder_conv1", 8, 5280, 9},    // Conv2D 1->8  k3 s2 on 24x32
    {"encoder_conv2", 16, 1120, 72},  // Conv2D 8->16 k3 s2 on 11x15
    {"encoder_conv3", 32, 192, 144},  // Conv2D 16->32 k3 s2 on 5x7
    {"dense_head", 32, 64, 192},      // Dense 192->64
    {"lstm_gates", 32, 128, 192},     // LSTM Wx: [N,D] @ [4H,D]^T
    {"conv3d_stage1", 8, 10560, 18},  // Conv3D 1->8 kd2 k3 sd1 s2, T=3
};

util::Json bench_gemm_shapes(bool smoke) {
  util::Json out = util::Json::array();
  util::Rng rng(1);
  for (const GemmShape& s : kZooShapes) {
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1, 1));
    const double flop = 2.0 * static_cast<double>(s.m) *
                        static_cast<double>(s.n) * static_cast<double>(s.k);
    // Repeat until ~0.2s of work (2 reps in smoke mode); report the best
    // rep so scheduling noise does not understate the kernel.
    const int reps =
        smoke ? 2 : std::max(10, static_cast<int>(2e8 / flop));
    ml::sgemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
              0.0f, c.data(), s.n);  // warm-up: sizes thread-local packs
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_seconds();
      ml::sgemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(),
                s.n, 0.0f, c.data(), s.n);
      best = std::min(best, now_seconds() - t0);
    }
    util::Json row = util::Json::object();
    row.set("name", s.name);
    row.set("m", s.m);
    row.set("n", s.n);
    row.set("k", s.k);
    row.set("gflops", flop / best / 1e9);
    out.push_back(std::move(row));
    std::cout << "  gemm " << s.name << ": " << flop / best / 1e9
              << " GFLOP/s\n";
  }
  return out;
}

// --- end-to-end training --------------------------------------------------

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

util::Json bench_end_to_end(bool smoke) {
  const std::size_t n = smoke ? 64 : 256;
  const std::size_t epochs = smoke ? 1 : 3;
  const std::size_t batch_size = 32;
  ml::ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  auto model = ml::make_model(ml::ModelType::Linear, cfg);
  const auto train = band_dataset(n, cfg, 41);
  ml::TrainOptions opt;
  opt.epochs = epochs;
  opt.batch_size = batch_size;
  const ml::TrainResult r = ml::fit(*model, train, {}, opt);

  util::Json out = util::Json::object();
  out.set("architecture", "linear (3xconv2d + 2xdense)");
  out.set("samples", n);
  out.set("epochs", epochs);
  out.set("batch_size", batch_size);
  out.set("fit_linear_wall_seconds", r.wall_seconds);
  std::cout << "  ml::fit " << r.wall_seconds << " s\n";
  return out;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ml.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_ml_kernels [--smoke] [--out=PATH]\n";
      return 1;
    }
  }
  const std::size_t threads = util::ThreadPool::shared().size();
  std::cout << "bench_ml_kernels: " << threads << " worker(s)"
            << (smoke ? ", smoke mode" : "") << "\n";

  util::Json doc = util::Json::object();
  doc.set("bench", "ml_kernels");
  doc.set("threads", threads);
  doc.set("smoke", smoke);
  std::cout << "GEMM model-zoo shapes:\n";
  doc.set("gemm", bench_gemm_shapes(smoke));
  std::cout << "end-to-end training:\n";
  doc.set("fit_end_to_end", bench_end_to_end(smoke));

  const ml::KernelCounters kc = ml::kernel_counters();
  util::Json counters = util::Json::object();
  counters.set("gemm_calls", kc.gemm_calls);
  counters.set("gemm_flops", kc.gemm_flops);
  counters.set("im2col_elems", kc.im2col_elems);
  counters.set("col2im_elems", kc.col2im_elems);
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
