// Federated continual learning benchmark: what round-based FedAvg buys
// at the fleet scale the paper cares about.
//
// Two measurements, both on the virtual clock (deterministic: same seed,
// same JSON):
//   1. rounds — held-out steering MAE of the fleet incumbent after 1..R
//      federated rounds with every car healthy: the curve must descend
//      from the bootstrap MAE (each round's canary-gated merge helps).
//   2. dropout — the same fleet with 0, 1, and 2 of the cars dropped for
//      the whole run (FaultKind::ClientDropout via the chaos engine):
//      rounds still publish off the surviving quorum, and the final MAE
//      degrades gracefully rather than collapsing.
// Every scenario also totals the bytes the round actually shipped
// (CRC-framed weight deltas, FedReport::delta_bytes_shipped) against the
// raw-frame alternative — uploading every participating car's local
// slice each round — to quantify the paper's "ship deltas, not frames"
// saving.
//
// Writes BENCH_fed.json (override with --out=PATH). `--smoke` shrinks
// the workload so the binary doubles as a ctest smoke test
// (`ctest -L fed`).
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fed/aggregator.hpp"
#include "fed/client.hpp"
#include "fed/delta.hpp"
#include "fed/report.hpp"
#include "ml/driving_model.hpp"
#include "net/network.hpp"
#include "net/transfer.hpp"
#include "objectstore/objectstore.hpp"
#include "serve/replication.hpp"
#include "util/event_queue.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace autolearn::bench {
namespace {

struct FedConfig {
  std::size_t cars = 4;
  std::uint64_t rounds = 3;
  std::size_t dropped = 0;  // cars offline for the whole run
  std::size_t slice_base = 10;
  std::size_t slice_step = 2;  // car i trains on slice_base + i * step
  std::size_t probe_count = 24;
};

ml::ModelConfig bench_config() {
  ml::ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  return cfg;
}

/// Bright vertical band whose column encodes the steering label (the
/// repo's standard synthetic task).
std::vector<ml::Sample> synthetic_dataset(std::size_t n,
                                          const ml::ModelConfig& cfg,
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
    ml::Sample s;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) s.frames.push_back(img);
    const float steer = static_cast<float>(
        2.0 * static_cast<double>(col) / (cfg.img_w - 1) - 1.0);
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      s.history.push_back(steer);
      s.history.push_back(0.5f);
    }
    s.steering = steer;
    s.throttle = 0.5f;
    out.push_back(std::move(s));
  }
  return out;
}

std::string car_name(std::size_t i) { return "car-0" + std::to_string(i + 1); }

std::size_t slice_size(const FedConfig& cfg, std::size_t car) {
  return cfg.slice_base + cfg.slice_step * car;
}

/// Bytes a car would ship per round under the centralized alternative:
/// its whole local slice as raw float32 frames (plus the scalar labels).
std::uint64_t raw_slice_bytes(const FedConfig& fed, const ml::ModelConfig& ml,
                              std::size_t car) {
  const std::uint64_t frame = static_cast<std::uint64_t>(ml.img_w) * ml.img_h *
                              sizeof(float);
  const std::uint64_t sample =
      frame * ml.seq_len + 2 * sizeof(float) * ml.history_len +
      2 * sizeof(float);
  return sample * slice_size(fed, car);
}

double steering_mae(ml::DrivingModel& model,
                    const std::vector<ml::Sample>& probes) {
  double sum = 0.0;
  for (const auto& p : probes) {
    sum += std::abs(model.predict(p).steering - static_cast<double>(p.steering));
  }
  return probes.empty() ? 0.0 : sum / static_cast<double>(probes.size());
}

struct FedRun {
  fed::FedReport report;
  double mae_bootstrap = 0.0;
  double mae_final = 0.0;
  std::uint64_t raw_frame_bytes = 0;  // centralized-alternative bytes
};

/// One complete federated run: cloud + cars on a simulated network, a
/// two-shard replicated registry bootstrapped with a fresh Linear model,
/// and (optionally) the first `dropped` cars offline for the whole run.
FedRun run_federation(const FedConfig& cfg) {
  util::EventQueue queue;
  net::Network network;
  network.add_host("cloud");
  for (std::size_t i = 0; i < cfg.cars; ++i) {
    network.add_host(car_name(i));
    network.add_duplex(car_name(i), "cloud", net::LinkSpec{});
  }
  net::TransferManager transfers{network, queue, util::Rng(5)};
  objectstore::ObjectStore os;
  serve::ReplicatedRegistry registry{2};

  const ml::ModelConfig mlcfg = bench_config();
  std::shared_ptr<ml::DrivingModel> bootstrap =
      ml::make_model(ml::ModelType::Linear, mlcfg);
  registry.publish_all(bootstrap, "bootstrap");

  fed::FedOptions opt;
  opt.rounds = cfg.rounds;
  opt.round_timeout_s = 600.0;
  opt.quorum_frac = 0.5;
  opt.cloud_host = "cloud";
  opt.canary.max_steering_drift = 0.5;
  opt.canary.bake_s = 1.0;

  fed::Aggregator agg(queue, registry, transfers, os, ml::ModelType::Linear,
                      mlcfg, opt);
  for (std::size_t i = 0; i < cfg.cars; ++i) {
    fed::ClientOptions copt;
    copt.name = car_name(i);
    copt.seed = 100 + i;
    agg.add_client(copt, synthetic_dataset(slice_size(cfg, i), mlcfg, 500 + i));
  }
  const std::vector<ml::Sample> probes =
      synthetic_dataset(cfg.probe_count, mlcfg, 999);
  agg.set_probes(synthetic_dataset(8, mlcfg, 777));

  fault::ChaosEngine chaos(queue, 42);
  chaos.attach_fed(agg.fault_hooks());
  for (std::size_t i = 0; i < cfg.dropped; ++i) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::ClientDropout;
    spec.at = 0.0;
    spec.duration = cfg.rounds * (opt.round_timeout_s + 60.0);  // whole run
    spec.target = car_name(i);
    chaos.inject(spec);
  }

  FedRun out;
  out.mae_bootstrap = steering_mae(*bootstrap, probes);
  out.report = agg.run();
  out.mae_final = steering_mae(*registry.shard(0).current()->model, probes);
  for (const auto& round : out.report.rounds) {
    for (std::size_t i = 0; i < round.clients.size(); ++i) {
      // Dropped cars ship nothing either way; everyone else would have
      // uploaded its full slice under the centralized alternative.
      if (round.clients[i].outcome == fed::ClientOutcome::Dropout) continue;
      out.raw_frame_bytes += raw_slice_bytes(cfg, mlcfg, i);
    }
  }
  return out;
}

util::Json run_row(const FedConfig& cfg, const FedRun& run) {
  util::Json row = util::Json::object();
  row.set("cars", cfg.cars);
  row.set("dropped", cfg.dropped);
  row.set("rounds", cfg.rounds);
  row.set("rounds_published", run.report.rounds_published);
  row.set("rounds_rolled_back", run.report.rounds_rolled_back);
  row.set("rounds_no_quorum", run.report.rounds_no_quorum);
  row.set("deltas_accepted", run.report.deltas_accepted);
  row.set("dropouts", run.report.dropouts);
  row.set("mae_bootstrap", run.mae_bootstrap);
  row.set("mae_final", run.mae_final);
  row.set("delta_bytes_shipped", run.report.delta_bytes_shipped);
  row.set("raw_frame_bytes", run.raw_frame_bytes);
  row.set("frames_over_deltas",
          run.report.delta_bytes_shipped > 0
              ? static_cast<double>(run.raw_frame_bytes) /
                    static_cast<double>(run.report.delta_bytes_shipped)
              : 0.0);
  return row;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fed.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_fed [--smoke] [--out=PATH]\n";
      return 1;
    }
  }
  std::cout << "bench_fed" << (smoke ? " (smoke mode)" : "") << "\n";
  const std::uint64_t max_rounds = smoke ? 1 : 3;

  util::Json doc = util::Json::object();
  doc.set("bench", "fed");
  doc.set("smoke", smoke);

  // --- 1: rounds vs held-out steering MAE, healthy fleet -------------------
  util::Json curve = util::Json::array();
  for (std::uint64_t r = 1; r <= max_rounds; ++r) {
    FedConfig cfg;
    cfg.rounds = r;
    const FedRun run = run_federation(cfg);
    std::cout << "rounds=" << r << ": MAE " << run.mae_bootstrap << " -> "
              << run.mae_final << " (" << run.report.rounds_published
              << " published)\n";
    curve.push_back(run_row(cfg, run));
  }
  doc.set("rounds_curve", std::move(curve));

  // --- 2: dropout sweep at fixed rounds ------------------------------------
  util::Json sweep = util::Json::array();
  const std::size_t max_dropped = smoke ? 1 : 2;
  for (std::size_t dropped = 0; dropped <= max_dropped; ++dropped) {
    FedConfig cfg;
    cfg.rounds = max_rounds;
    cfg.dropped = dropped;
    const FedRun run = run_federation(cfg);
    std::cout << "dropped=" << dropped << "/" << cfg.cars << ": MAE "
              << run.mae_final << ", " << run.report.deltas_accepted
              << " deltas accepted, " << run.report.delta_bytes_shipped
              << " delta bytes vs " << run.raw_frame_bytes
              << " raw-frame bytes ("
              << (run.report.delta_bytes_shipped > 0
                      ? static_cast<double>(run.raw_frame_bytes) /
                            static_cast<double>(run.report.delta_bytes_shipped)
                      : 0.0)
              << "x saving)\n";
    sweep.push_back(run_row(cfg, run));
  }
  doc.set("dropout_sweep", std::move(sweep));

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
