// Post-training quantization of the model zoo: observe activation ranges
// on calibration tub data, then swap every Dense and Conv in the
// model's nets for an int8 twin (quant_layers.hpp). The result is a
// frozen QuantizedModel serving through the unchanged predict /
// predict_batch entry points, whose compiled plan lowers the twins to
// packed-qgemm steps — the paper's edge tier trades ~4x cheaper
// arithmetic for a bounded steering drift (gated by ctest -L quant).
#pragma once

#include <memory>
#include <vector>

#include "ml/driving_model.hpp"

namespace autolearn::ml {

/// How a layer's observed activation range becomes a quantizer.
enum class Calibrator {
  MaxAbs,      // exact observed [min, max] — no clipping, widest scale
  Percentile,  // clip to the [1-p, p] sample quantiles — outlier-robust
};

const char* to_string(Calibrator calibrator);

struct QuantizeOptions {
  Calibrator calibrator = Calibrator::MaxAbs;
  /// Percentile calibrator: p in (0.5, 1]. 0.999 keeps the 0.1% tails
  /// from stretching the scale.
  double percentile = 0.999;
  /// Forward-pass batch size while observing activation ranges.
  std::size_t calibration_batch = 32;
};

/// int8 view of a trained zoo model. Inference delegates to the inner
/// (layer-swapped) model; training and parameter loading throw — a
/// quantized model is a frozen deployment artifact, re-derived from the
/// fp32 source when weights change. save() still works (the quant layers
/// retain the fp32 parameters) so a published variant can be archived.
class QuantizedModel : public DrivingModel {
 public:
  ModelType type() const override { return inner_->type(); }
  Precision precision() const override { return Precision::Int8; }
  std::size_t seq_len() const override { return inner_->seq_len(); }
  std::size_t history_len() const override { return inner_->history_len(); }
  Prediction predict(const Sample& obs) override {
    return inner_->predict(obs);
  }
  void predict_batch(const Sample* obs, std::size_t n,
                     Prediction* out) override {
    inner_->predict_batch(obs, n, out);
  }
  double train_batch(const std::vector<const Sample*>& batch) override;
  double eval_batch(const std::vector<const Sample*>& batch) override {
    return inner_->eval_batch(batch);
  }
  std::size_t num_parameters() override { return inner_->num_parameters(); }
  std::uint64_t flops_per_sample() const override {
    return inner_->flops_per_sample();
  }
  void save(std::ostream& os) override { inner_->save(os); }
  void load(std::istream& is) override;

  /// Plan compilation delegates to the layer-swapped inner model: the
  /// int8 twins compile into packed-qgemm steps in the same arena program.
  bool attach_plan(std::size_t max_batch) override {
    return inner_->attach_plan(max_batch);
  }
  void detach_plan() override { inner_->detach_plan(); }
  CompiledModel* plan() override { return inner_->plan(); }

  /// The layer-swapped model, exposed for introspection in tests.
  DrivingModel& inner() { return *inner_; }

 private:
  friend std::unique_ptr<QuantizedModel> quantize_model(
      DrivingModel& src, const ModelConfig& cfg,
      const std::vector<Sample>& calibration, const QuantizeOptions& options);

  explicit QuantizedModel(std::unique_ptr<DrivingModel> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<DrivingModel> inner_;
};

/// Builds an int8 QuantizedModel from a trained source model. `cfg` must
/// be the config `src` was built with (the clone is reconstructed through
/// make_model + save/load). Calibration runs eval_batch — the interpreted
/// forward, since observed layers cannot compile — over the given samples
/// in chunks of calibration_batch with range observers attached, then
/// every quantizable layer is replaced in place. Throws
/// std::invalid_argument if `calibration` is empty or the model exposes no
/// nets.
std::unique_ptr<QuantizedModel> quantize_model(
    DrivingModel& src, const ModelConfig& cfg,
    const std::vector<Sample>& calibration,
    const QuantizeOptions& options = {});

}  // namespace autolearn::ml
