// Command-line interface to the AutoLearn pipeline — the analogue of the
// donkey/CHI@Edge CLI utilities the paper's students drive. Each
// subcommand wraps one pipeline phase so sessions can be scripted:
//
//   autolearn_cli tracks
//   autolearn_cli collect  <track> <sample|simulator|physical-car> <secs> <tub>
//   autolearn_cli clean    <tub>
//   autolearn_cli train    <tub> <model> <epochs> <checkpoint>
//   autolearn_cli evaluate <track> <model> <checkpoint> <secs>
//   autolearn_cli devices
//
// Every number must be the whole token (seconds finite and > 0, epochs
// plain digits); a bad one exits 2 before any work starts.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "data/collector.hpp"
#include "data/dataset.hpp"
#include "data/tub.hpp"
#include "data/tubclean.hpp"
#include "eval/evaluator.hpp"
#include "eval/pilot.hpp"
#include "gpu/perf_model.hpp"
#include "ml/trainer.hpp"
#include "cli_args.hpp"
#include "track/track.hpp"
#include "util/table.hpp"

namespace {

using namespace autolearn;

track::Track track_by_name(const std::string& name) {
  if (name == "paper-oval") return track::Track::paper_oval();
  if (name == "waveshare") return track::Track::waveshare();
  if (name == "square-loop") return track::Track::square_loop();
  throw std::invalid_argument("unknown track '" + name +
                              "' (try: paper-oval, waveshare, square-loop)");
}

data::DataPath path_by_name(const std::string& name) {
  if (name == "sample") return data::DataPath::Sample;
  if (name == "simulator") return data::DataPath::Simulator;
  if (name == "physical-car") return data::DataPath::PhysicalCar;
  throw std::invalid_argument("unknown data path '" + name + "'");
}

int cmd_tracks() {
  util::TablePrinter table({"track", "length (m)", "width (m)", "notes"});
  const track::Track oval = track::Track::paper_oval();
  table.add_row({oval.name(), util::TablePrinter::num(oval.length(), 2),
                 util::TablePrinter::num(oval.width(), 2),
                 "paper Fig. 3a: 330/509 in tape oval"});
  const track::Track wave = track::Track::waveshare();
  table.add_row({wave.name(), util::TablePrinter::num(wave.length(), 2),
                 util::TablePrinter::num(wave.width(), 2),
                 "commercial mat with S-bend"});
  const track::Track square = track::Track::square_loop();
  table.add_row({square.name(), util::TablePrinter::num(square.length(), 2),
                 util::TablePrinter::num(square.width(), 2),
                 "custom classroom layout"});
  table.print(std::cout, "available tracks");
  return 0;
}

int cmd_collect(const std::vector<std::string>& args) {
  if (args.size() != 4) {
    std::cerr << "usage: collect <track> <path> <seconds> <tubdir>\n";
    return 2;
  }
  const std::optional<double> seconds = cli::parse_seconds(args[2]);
  if (!seconds) return cli::bad_number("collect: bad seconds", args[2]);
  const track::Track track = track_by_name(args[0]);
  data::CollectOptions opt;
  opt.duration_s = *seconds;
  opt.expert.steering_noise = 0.08;
  const data::CollectStats stats =
      data::collect_session(track, path_by_name(args[1]), opt, args[3]);
  std::cout << "collected " << stats.records << " records ("
            << stats.mistake_records << " flagged) over "
            << stats.distance_m << " m into " << args[3] << "\n";
  return 0;
}

int cmd_clean(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::cerr << "usage: clean <tubdir>\n";
    return 2;
  }
  data::Tub tub(args[0]);
  const data::CleanStats stats = data::review_clean(tub);
  std::cout << "reviewed " << stats.reviewed << " records, deleted "
            << stats.deleted << " in " << stats.segments << " segment(s); "
            << tub.active_records() << " remain\n";
  return 0;
}

int cmd_train(const std::vector<std::string>& args) {
  if (args.size() != 4) {
    std::cerr << "usage: train <tubdir> <model> <epochs> <checkpoint>\n";
    return 2;
  }
  const std::optional<std::size_t> epochs =
      cli::parse_number<std::size_t>(args[2]);
  if (!epochs) return cli::bad_number("train: bad epochs", args[2]);
  data::Tub tub(args[0]);
  auto samples = data::build_samples(tub.read_all(), {});
  auto [train, val] = data::split_train_val(std::move(samples), 0.15);
  auto model = ml::make_model(ml::model_type_from_string(args[1]));
  ml::TrainOptions opt;
  opt.epochs = *epochs;
  const ml::TrainResult result = ml::fit(*model, train, val, opt);
  std::ofstream os(args[3], std::ios::binary);
  if (!os) {
    std::cerr << "cannot write " << args[3] << "\n";
    return 1;
  }
  model->save(os);
  gpu::TrainingWorkload load;
  load.forward_flops = result.forward_flops;
  load.samples = result.samples_seen;
  std::cout << "trained " << args[1] << " on " << train.size()
            << " samples: val loss " << result.best_val_loss
            << ", steering MAE " << ml::steering_mae(*model, val)
            << "\nCPU time " << result.wall_seconds
            << " s; simulated V100 time "
            << gpu::training_time_s(gpu::device("V100"), load)
            << " s\ncheckpoint written to " << args[3] << "\n";
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& args) {
  if (args.size() != 4) {
    std::cerr << "usage: evaluate <track> <model> <checkpoint> <seconds>\n";
    return 2;
  }
  const std::optional<double> seconds = cli::parse_seconds(args[3]);
  if (!seconds) return cli::bad_number("evaluate: bad seconds", args[3]);
  const track::Track track = track_by_name(args[0]);
  auto model = ml::make_model(ml::model_type_from_string(args[1]));
  std::ifstream is(args[2], std::ios::binary);
  if (!is) {
    std::cerr << "cannot read " << args[2] << "\n";
    return 1;
  }
  model->load(is);
  eval::ModelPilot pilot(*model);
  eval::EvalOptions opt;
  opt.duration_s = *seconds;
  const eval::EvalResult r = eval::run_evaluation(track, pilot, opt);
  std::cout << "laps " << r.laps << ", errors " << r.errors
            << ", mean speed " << r.mean_speed << " m/s, best lap "
            << r.best_lap() << " s, score " << r.score() << "\n";
  return 0;
}

int cmd_devices() {
  util::TablePrinter table(
      {"device", "peak fp32 (TFLOPS)", "year", "inference 300 MFLOP (ms)"});
  for (const std::string& name : gpu::all_devices()) {
    const gpu::DeviceSpec& spec = gpu::device(name);
    table.add_row(
        {spec.name, util::TablePrinter::num(spec.peak_fp32_tflops, 1),
         util::TablePrinter::num(static_cast<long long>(spec.year)),
         util::TablePrinter::num(
             gpu::inference_latency_s(spec, 300'000'000) * 1000, 2)});
  }
  table.print(std::cout, "device catalogue (full-scale DonkeyCar inference)");
  return 0;
}

int usage() {
  std::cerr << "autolearn_cli — AutoLearn pipeline CLI\n"
               "  tracks\n"
               "  collect  <track> <sample|simulator|physical-car> <secs> "
               "<tubdir>\n"
               "  clean    <tubdir>\n"
               "  train    <tubdir> <model> <epochs> <checkpoint>\n"
               "  evaluate <track> <model> <checkpoint> <secs>\n"
               "  devices\n"
               "models: linear memory 3d categorical inferred rnn\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "tracks") return cmd_tracks();
    if (cmd == "collect") return cmd_collect(args);
    if (cmd == "clean") return cmd_clean(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "devices") return cmd_devices();
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
