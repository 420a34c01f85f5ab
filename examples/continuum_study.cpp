// Edge-to-cloud inference study (§3.3/§3.4 extension; the Zheng SC'23
// poster grew from this exercise): where should the self-driving model
// run? Sweeps the network RTT and compares on-device, cloud, and hybrid
// placements of a trained model.
//
//   $ ./continuum_study
#include <filesystem>
#include <iostream>

#include "core/continuum.hpp"
#include "core/pipeline.hpp"
#include "track/track.hpp"
#include "util/table.hpp"

int main() {
  using namespace autolearn;
  namespace fs = std::filesystem;

  const track::Track track = track::Track::paper_oval();

  // Train the big (linear) cloud model well, and a deliberately small,
  // briefly-trained edge fallback (what actually fits on the Pi beside the
  // data-collection stack).
  auto train_model = [&](ml::ModelType type, std::size_t epochs,
                         ml::ModelConfig mcfg) {
    core::PipelineOptions opt;
    opt.model = type;
    opt.model_config = mcfg;
    opt.collect_duration_s = 120.0;
    opt.driver.steering_noise = 0.08;  // recovery examples
    opt.train.epochs = epochs;
    opt.eval.duration_s = 1.0;  // skip the long built-in eval
    core::Pipeline pipe(track, opt,
                        fs::temp_directory_path() /
                            (std::string("autolearn_cont_") +
                             ml::to_string(type)));
    pipe.run();
    return pipe;
  };
  std::cout << "Training the cloud model (linear)...\n";
  core::Pipeline cloud_pipe =
      train_model(ml::ModelType::Linear, 8, ml::ModelConfig{});
  std::cout << "Training the edge model (inferred, small budget)...\n";
  ml::ModelConfig edge_cfg;
  edge_cfg.inferred_throttle_base = 0.30;
  edge_cfg.inferred_throttle_gain = 0.18;
  core::Pipeline edge_pipe =
      train_model(ml::ModelType::Inferred, 2, edge_cfg);

  util::TablePrinter table(
      {"RTT (ms)", "placement", "latency (ms)", "laps", "errors", "score"});
  eval::EvalOptions eopt;
  eopt.duration_s = 45.0;
  eopt.real_profiles = true;  // evaluation happens on the physical car
  for (double rtt_ms : {10.0, 50.0, 120.0, 250.0}) {
    core::ContinuumOptions copt;
    copt.network_rtt_s = rtt_ms / 1000.0;
    // Model the full-scale 160x120 DonkeyCar network's arithmetic.
    copt.flops_scale = 1500.0;
    for (core::Placement p : {core::Placement::OnDevice,
                              core::Placement::Cloud,
                              core::Placement::Hybrid}) {
      const double latency = core::placement_latency_s(
          p, copt, edge_pipe.model(), cloud_pipe.model());
      const eval::EvalResult r = core::evaluate_placement(
          track, cloud_pipe.model(), edge_pipe.model(), p, copt, eopt);
      table.add_row({util::TablePrinter::num(rtt_ms, 0),
                     core::to_string(p),
                     util::TablePrinter::num(latency * 1000, 1),
                     util::TablePrinter::num(r.laps, 2),
                     util::TablePrinter::num(static_cast<long long>(r.errors)),
                     util::TablePrinter::num(r.score(), 3)});
    }
  }
  table.print(std::cout, "Inference placement vs. network RTT");
  std::cout << "\nReading the table: cloud wins on a fast network (big model,"
               "\nsmall latency), loses as RTT grows; hybrid stays close to"
               "\nthe better of the two at every RTT.\n";
  return 0;
}
