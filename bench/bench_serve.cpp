// Fleet serving benchmark: what dynamic batching buys.
//
// Two measurements, both on the conv3d zoo model (the heaviest forward):
//   1. wall_clock — real CPU time of predict() one-by-one vs
//      predict_batch() in chunks of 8 and 32: the GEMM-backbone
//      amortization (one im2col + one sgemm per layer instead of n).
//   2. fleet_sim — the FleetService under a saturating arrival stream at
//      batch caps 1 / 8 / 32: simulated throughput (req/s) and p50/p99
//      queue latency, priced by the gpu::perf_model batched latency on a
//      V100 worker.
//
// Writes BENCH_serve.json (override with --out=PATH). `--smoke` shrinks
// the workload so the binary doubles as a ctest smoke test
// (`ctest -L bench -L serve`).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "camera/image.hpp"
#include "gpu/perf_model.hpp"
#include "ml/driving_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/event_queue.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace autolearn::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<ml::Sample> make_samples(const ml::ModelConfig& cfg,
                                     std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ml::Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ml::Sample s;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) {
      camera::Image img(cfg.img_w, cfg.img_h);
      for (float& px : img.pixels()) {
        px = static_cast<float>(rng.uniform(0.0, 1.0));
      }
      s.frames.push_back(std::move(img));
    }
    out.push_back(std::move(s));
  }
  return out;
}

// --- 1: real wall-clock, per-sample vs batched forward ---------------------

util::Json bench_wall_clock(bool smoke) {
  const std::size_t n = smoke ? 64 : 512;
  const int reps = smoke ? 1 : 5;
  ml::ModelConfig cfg;
  const auto model = ml::make_model(ml::ModelType::Conv3d, cfg);
  const auto samples = make_samples(cfg, n, 3);
  std::vector<ml::Prediction> preds(n);
  model->predict_batch(samples.data(), 1, preds.data());  // size the layers

  const auto time_chunked = [&](std::size_t chunk) {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_seconds();
      for (std::size_t b = 0; b < n; b += chunk) {
        const std::size_t m = std::min(chunk, n - b);
        model->predict_batch(samples.data() + b, m, preds.data() + b);
      }
      best = std::min(best, now_seconds() - t0);
    }
    return best;
  };

  const double per_sample_s = time_chunked(1);
  util::Json out = util::Json::object();
  out.set("model", "3d");
  out.set("samples", n);
  out.set("per_sample_s", per_sample_s);
  out.set("per_sample_rps", static_cast<double>(n) / per_sample_s);
  util::Json rows = util::Json::array();
  for (std::size_t chunk : {std::size_t{8}, std::size_t{32}}) {
    const double t = time_chunked(chunk);
    util::Json row = util::Json::object();
    row.set("batch", chunk);
    row.set("total_s", t);
    row.set("rps", static_cast<double>(n) / t);
    row.set("speedup_vs_per_sample", per_sample_s / t);
    std::cout << "  wall-clock batch " << chunk << ": "
              << static_cast<double>(n) / t << " samples/s ("
              << per_sample_s / t << "x per-sample)\n";
    rows.push_back(std::move(row));
  }
  out.set("batched", std::move(rows));
  return out;
}

// --- 2: simulated fleet throughput vs batch cap ----------------------------

serve::ServeReport run_fleet(std::size_t batch_cap, bool smoke) {
  util::EventQueue queue;
  serve::ModelRegistry registry;
  ml::ModelConfig cfg;
  registry.publish(std::shared_ptr<ml::DrivingModel>(
                       ml::make_model(ml::ModelType::Conv3d, cfg)),
                   "bench");

  serve::FleetOptions opt;
  opt.cars = 16;
  // ~80k req/s offered: saturates the cap-1 worker (a V100 is launch-bound
  // at ~18k calls/s on this model) while cap-32 keeps up.
  opt.mean_interarrival_s = smoke ? 0.0008 : 0.0002;
  // Long enough that the constant RTT tail on the last response does not
  // dominate the makespan.
  opt.duration_s = smoke ? 0.02 : 0.1;
  opt.batcher.max_batch = batch_cap;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::Cloud;
  // Capacity measurement: admission control off (nothing shed), the
  // backlog drains after the arrival window and the makespan reflects it.
  opt.queue_budget = 1u << 20;
  opt.seed = 7;
  serve::FleetService service(queue, registry, opt);
  return service.run();
}

util::Json fleet_row(std::size_t cap, bool smoke) {
  const serve::ServeReport r = run_fleet(cap, smoke);
  util::Json row = util::Json::object();
  row.set("batch_cap", cap);
  row.set("requests", r.requests);
  row.set("completed", r.completed);
  row.set("batches", r.batches);
  row.set("mean_batch", r.mean_batch());
  row.set("makespan_s", r.duration_s);
  row.set("throughput_rps", r.throughput_rps);
  row.set("queued_p50_s", r.queued_quantile_s(0.50));
  row.set("queued_p99_s", r.queued_quantile_s(0.99));
  std::cout << "  fleet cap " << cap << ": " << r.throughput_rps
            << " req/s, mean batch " << r.mean_batch() << ", queued p99 "
            << r.queued_quantile_s(0.99) << " s\n";
  return row;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_serve [--smoke] [--out=PATH]\n";
      return 1;
    }
  }
  std::cout << "bench_serve" << (smoke ? " (smoke mode)" : "") << "\n";

  util::Json doc = util::Json::object();
  doc.set("bench", "serve");
  doc.set("smoke", smoke);

  std::cout << "real wall-clock, conv3d predict vs predict_batch:\n";
  doc.set("wall_clock", bench_wall_clock(smoke));

  std::cout << "simulated fleet, throughput vs batch cap:\n";
  util::Json fleet = util::Json::array();
  double cap1_rps = 0.0;
  double cap32_rps = 0.0;
  for (std::size_t cap : {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
    util::Json row = fleet_row(cap, smoke);
    const double rps = row.at("throughput_rps").as_number();
    if (cap == 1) cap1_rps = rps;
    if (cap == 32) cap32_rps = rps;
    fleet.push_back(std::move(row));
  }
  util::Json sim = util::Json::object();
  sim.set("rows", std::move(fleet));
  sim.set("speedup_vs_cap1", cap1_rps > 0.0 ? cap32_rps / cap1_rps : 0.0);
  doc.set("fleet_sim", std::move(sim));
  std::cout << "  dynamic batching speedup (cap 32 vs cap 1): "
            << (cap1_rps > 0.0 ? cap32_rps / cap1_rps : 0.0) << "x\n";

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
