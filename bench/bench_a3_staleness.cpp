// A3 (ablation) — the hybrid placement's staleness threshold (DESIGN.md
// design decision 1 / core::ContinuumOptions::hybrid_staleness_s): how old
// may a cloud command be before the edge model takes over? Too small and
// the hybrid never uses the better cloud model; too large and it acts on
// stale commands. Sweeps the threshold at a fixed RTT and reports cloud
// usage and driving quality.
#include "bench_common.hpp"

#include "core/continuum.hpp"
#include "eval/evaluator.hpp"
#include "util/table.hpp"

namespace {

using namespace autolearn;

void BM_PlacementLatency(benchmark::State& state) {
  core::ContinuumOptions copt;
  const auto edge = ml::make_model(ml::ModelType::Inferred);
  const auto cloud = ml::make_model(ml::ModelType::Linear);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::placement_latency_s(
        core::Placement::Cloud, copt, *edge, *cloud));
  }
}
BENCHMARK(BM_PlacementLatency)->Unit(benchmark::kNanosecond);

void reproduce() {
  const track::Track track = track::Track::paper_oval();
  vehicle::ExpertConfig driver;
  driver.steering_noise = 0.08;
  const bench::PreparedData data =
      bench::prepare_data(track, data::DataPath::Sample, 120.0, driver);
  std::cout << "Training cloud (linear) and edge (inferred) models...\n";
  bench::TrainedModel cloud_model =
      bench::train_model(ml::ModelType::Linear, data, 8);
  // Same weak edge fallback as E7: small, briefly trained, conservative.
  ml::ModelConfig edge_cfg;
  edge_cfg.inferred_throttle_base = 0.30;
  edge_cfg.inferred_throttle_gain = 0.18;
  bench::TrainedModel edge_model =
      bench::train_model(ml::ModelType::Inferred, data, 2, edge_cfg);

  util::TablePrinter table({"RTT (ms)", "staleness (ms)", "cloud usage",
                            "laps", "errors", "score"});
  for (double rtt_ms : {120.0, 400.0}) {
    for (double staleness_ms : {60.0, 150.0, 500.0}) {
      core::ContinuumOptions copt;
      copt.network_rtt_s = rtt_ms / 1000.0;
      copt.hybrid_staleness_s = staleness_ms / 1000.0;
      copt.flops_scale = 1500.0;  // full-scale DonkeyCar deployment
      core::HybridPilot pilot(*edge_model.model, *cloud_model.model, copt,
                              util::Rng(31));
      eval::EvalOptions eopt;
      eopt.duration_s = 45.0;
      eopt.real_profiles = true;
      eopt.command_latency_s = core::placement_latency_s(
          core::Placement::Hybrid, copt, *edge_model.model,
          *cloud_model.model);
      const eval::EvalResult r = eval::run_evaluation(track, pilot, eopt);
      table.add_row(
          {util::TablePrinter::num(rtt_ms, 0),
           util::TablePrinter::num(staleness_ms, 0),
           util::TablePrinter::num(pilot.cloud_usage(), 2),
           util::TablePrinter::num(r.laps, 2),
           util::TablePrinter::num(static_cast<long long>(r.errors)),
           util::TablePrinter::num(r.score(), 3)});
    }
  }
  table.print(std::cout, "A3: hybrid staleness-threshold ablation");
  std::cout << "\nShape to check: a threshold below the RTT fences the "
               "cloud out entirely\n(weak edge model drives); at a fast RTT "
               "a moderate threshold admits the\nbetter cloud commands, "
               "while at a slow RTT a generous threshold lets\nstale cloud "
               "commands degrade driving below the edge fallback.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return autolearn::bench::run_bench_main(argc, argv, reproduce);
}
