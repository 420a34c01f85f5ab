// E7 — §3.3/§3.4 extensions: "exploring the edge to cloud interaction by
// attempting to run inference models in the cloud, constructing hybrid
// edge cloud inference models" (the study the Zheng SC'23 poster carried
// out on real hardware).
//
// Sweeps the car<->cloud network RTT and evaluates the three inference
// placements. Expected shape: cloud wins at small RTT (better model, low
// latency), on-device wins past a crossover RTT, and hybrid tracks the
// better of the two across the sweep.
//
// Microbenchmark: hybrid-pilot step cost.
#include "bench_common.hpp"

#include "core/continuum.hpp"
#include "eval/evaluator.hpp"
#include "util/table.hpp"

namespace {

using namespace autolearn;

void BM_HybridPilotStep(benchmark::State& state) {
  ml::ModelConfig cfg;
  auto edge_model = ml::make_model(ml::ModelType::Inferred, cfg);
  auto cloud_model = ml::make_model(ml::ModelType::Linear, cfg);
  core::ContinuumOptions copt;
  core::HybridPilot pilot(*edge_model, *cloud_model, copt, util::Rng(5));
  camera::Image frame(cfg.img_w, cfg.img_h, 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pilot.act(frame));
  }
}
BENCHMARK(BM_HybridPilotStep)->Unit(benchmark::kMicrosecond);

void reproduce() {
  const track::Track track = track::Track::paper_oval();
  vehicle::ExpertConfig driver;
  driver.steering_noise = 0.08;
  const bench::PreparedData data =
      bench::prepare_data(track, data::DataPath::Sample, 120.0, driver);
  std::cout << "Training the cloud (linear) and edge (inferred) models...\n";
  bench::TrainedModel cloud_model =
      bench::train_model(ml::ModelType::Linear, data, 8);
  // The edge fallback is deliberately the lesser pilot: a small model,
  // briefly trained, with a conservative throttle policy — what actually
  // fits next to the data-collection stack on the Pi.
  ml::ModelConfig edge_cfg;
  edge_cfg.inferred_throttle_base = 0.30;
  edge_cfg.inferred_throttle_gain = 0.18;
  bench::TrainedModel edge_model =
      bench::train_model(ml::ModelType::Inferred, data, 2, edge_cfg);

  util::TablePrinter table({"RTT (ms)", "placement", "cmd latency (ms)",
                            "mean speed", "laps", "errors", "score"});
  struct Best {
    double rtt;
    std::string winner;
  };
  std::vector<Best> winners;
  eval::EvalOptions eopt;
  eopt.duration_s = 45.0;
  // Like E2: evaluation happens on the physical car.
  eopt.real_profiles = true;
  for (double rtt_ms : {5.0, 20.0, 60.0, 120.0, 250.0, 400.0}) {
    core::ContinuumOptions copt;
    copt.network_rtt_s = rtt_ms / 1000.0;
    // Model the paper's full-scale deployment: the real 160x120 DonkeyCar
    // network is ~1500x our reduced-resolution arithmetic.
    copt.flops_scale = 1500.0;
    double best_score = -1;
    std::string best_name;
    for (core::Placement p : {core::Placement::OnDevice,
                              core::Placement::Cloud,
                              core::Placement::Hybrid}) {
      const double latency = core::placement_latency_s(
          p, copt, *edge_model.model, *cloud_model.model);
      const eval::EvalResult r = core::evaluate_placement(
          track, *cloud_model.model, *edge_model.model, p, copt, eopt);
      table.add_row(
          {util::TablePrinter::num(rtt_ms, 0), core::to_string(p),
           util::TablePrinter::num(latency * 1000, 1),
           util::TablePrinter::num(r.mean_speed, 2),
           util::TablePrinter::num(r.laps, 2),
           util::TablePrinter::num(static_cast<long long>(r.errors)),
           util::TablePrinter::num(r.score(), 3)});
      if (p != core::Placement::Hybrid && r.score() > best_score) {
        best_score = r.score();
        best_name = core::to_string(p);
      }
    }
    winners.push_back({rtt_ms, best_name});
  }
  table.print(std::cout, "E7: inference placement across the continuum");
  std::cout << "\nEdge-vs-cloud winner per RTT:";
  for (const Best& w : winners) {
    std::cout << "  " << w.rtt << "ms->" << w.winner;
  }
  std::cout << "\nShape to check: cloud wins at low RTT, on-device past the "
               "crossover.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return autolearn::bench::run_bench_main(argc, argv, reproduce);
}
