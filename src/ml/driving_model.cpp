#include "ml/driving_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/lstm.hpp"
#include "ml/plan.hpp"
#include "util/binio.hpp"

namespace autolearn::ml {

const char* to_string(Precision precision) {
  return precision == Precision::Int8 ? "int8" : "fp32";
}

const char* to_string(ModelType type) {
  switch (type) {
    case ModelType::Linear: return "linear";
    case ModelType::Categorical: return "categorical";
    case ModelType::Inferred: return "inferred";
    case ModelType::Memory: return "memory";
    case ModelType::Rnn: return "rnn";
    case ModelType::Conv3d: return "3d";
  }
  return "?";
}

ModelType model_type_from_string(const std::string& name) {
  for (ModelType t : all_model_types()) {
    if (name == to_string(t)) return t;
  }
  throw std::invalid_argument("unknown model type: " + name);
}

std::vector<ModelType> all_model_types() {
  return {ModelType::Linear, ModelType::Memory, ModelType::Conv3d,
          ModelType::Categorical, ModelType::Inferred, ModelType::Rnn};
}

void DrivingModel::predict_batch(const Sample* obs, std::size_t n,
                                 Prediction* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = predict(obs[i]);
}

namespace {

/// Rows a plan compiles for when no attach_plan set a cap: the batch that
/// steering_mae and the fleet benches use.
constexpr std::size_t kDefaultPlanCap = 32;

std::size_t elems(const std::vector<std::size_t>& shape) {
  std::size_t e = 1;
  for (std::size_t d : shape) e *= d;
  return e;
}

/// `shape` behind a leading batch dimension of `rows`.
std::vector<std::size_t> batched(std::size_t rows,
                                 std::vector<std::size_t> shape) {
  shape.insert(shape.begin(), rows);
  return shape;
}

/// Standard conv encoder for 24x32-class frames: three strided 3x3 convs.
void add_encoder(Sequential& net, util::Rng& rng) {
  net.add<Conv2D>(1, 8, 3, 2, rng);
  net.add<ReLU>();
  net.add<Conv2D>(8, 16, 3, 2, rng);
  net.add<ReLU>();
  net.add<Conv2D>(16, 32, 3, 2, rng);
  net.add<ReLU>();
  net.add<Flatten>();
}

std::size_t encoder_features(std::size_t img_h, std::size_t img_w) {
  auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
  const std::size_t h = conv(conv(conv(img_h)));
  const std::size_t w = conv(conv(conv(img_w)));
  return 32 * h * w;
}

/// Bin/unbin helpers for the categorical model (linear bins as in
/// donkeycar's linear_bin / linear_unbin utilities).
std::size_t to_bin(double v, double lo, double hi, std::size_t bins) {
  const double t = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
  return std::min(bins - 1,
                  static_cast<std::size_t>(std::lround(t * (bins - 1))));
}

double from_bin(std::size_t bin, double lo, double hi, std::size_t bins) {
  return lo + (hi - lo) * static_cast<double>(bin) /
                  static_cast<double>(bins - 1);
}

// ---------------------------------------------------------------------------

/// The one implementation of every zoo model. An encoder net_ (the whole
/// net when head_ stays empty) and, for memory and rnn, a head_ fed by
/// join(); one training step behind train_batch and eval_batch, one plan
/// run behind predict_batch, and (de)serialization over nets(). A type's
/// constructor builds the layers and sets the four geometry members;
/// categorical and inferred also replace loss() and decode().
class NetModel : public DrivingModel {
 public:
  /// Single-sample inference is the batched path at n = 1, so predict and
  /// predict_batch can never drift apart.
  Prediction predict(const Sample& obs) final {
    Prediction p;
    predict_batch(&obs, 1, &p);
    return p;
  }

  /// Runs the batch through the compiled plan in chunks of its cap. With
  /// no plan attached, compiles one at the cap attach_plan last set (or
  /// kDefaultPlanCap) first.
  void predict_batch(const Sample* obs, std::size_t n,
                     Prediction* out) final {
    if (n == 0) return;
    if (!plan_) attach_plan(plan_cap_);
    const std::size_t cap = plan_->max_batch();
    for (std::size_t at = 0; at < n; at += cap) {
      const std::size_t rows = std::min(cap, n - at);
      run_plan(obs + at, rows, out + at);
      plan_->record_exec(rows);
    }
  }

  double train_batch(const std::vector<const Sample*>& batch) final {
    return step(batch, /*train=*/true);
  }
  double eval_batch(const std::vector<const Sample*>& batch) final {
    return step(batch, /*train=*/false);
  }

  std::size_t num_parameters() final {
    std::size_t n = 0;
    for (Sequential* s : nets()) n += s->num_parameters();
    return n;
  }
  std::uint64_t flops_per_sample() const final { return flops_; }
  std::vector<Sequential*> mutable_nets() final { return nets(); }
  void save(std::ostream& os) final {
    for (Sequential* s : nets()) s->save_params(os);
  }
  /// Loads drop the plan (it holds raw parameter pointers); the next
  /// predict recompiles it at the same cap.
  void load(std::istream& is) final {
    for (Sequential* s : nets()) s->load_params(is);
    plan_.reset();
  }
  void save_full(std::ostream& os) final {
    for (Sequential* s : nets()) s->save_params(os);
    for (Sequential* s : nets()) s->save_state(os);
    opt_.save_state(os);
    util::write_rng_state(os, rng_.state());
  }
  void load_full(std::istream& is) final {
    std::vector<Param*> params;
    for (Sequential* s : nets()) {
      s->load_params(is);
      for (Param* p : s->params()) params.push_back(p);
    }
    for (Sequential* s : nets()) s->load_state(is);
    opt_.load_state(is, params);
    util::BinReader<ModelLoadError> r(is, "DrivingModel");
    rng_.set_state(r.rng_state("RNG state"));
    plan_.reset();
  }

  /// Compiles the encoder at max_batch * rows_ rows and the head at
  /// max_batch, and keeps the cap for later recompiles. Idempotent for an
  /// unchanged cap — replicated registries publish one shared model to
  /// many replicas and must not recompile per replica.
  bool attach_plan(std::size_t max_batch) final {
    if (plan_ && plan_->max_batch() == max_batch) return true;
    plan_.reset();
    auto plan = std::make_unique<CompiledModel>(max_batch);
    enc_plan_ = &plan->add_net(net_, in_shape_, max_batch * rows_);
    head_plan_ = has_head()
                     ? &plan->add_net(head_, head_shape_, max_batch)
                     : nullptr;
    plan_ = std::move(plan);
    plan_cap_ = max_batch;
    return true;
  }
  void detach_plan() final { plan_.reset(); }
  CompiledModel* plan() final { return plan_.get(); }

  /// Sets flops_per_sample from one-row compiles of the nets: rows_
  /// encoder rows and one head row per sample. make_model calls it once;
  /// loads and int8 swaps keep every shape, so the count stands.
  void count_flops() {
    flops_ = rows_ * CompiledNet(net_, in_shape_, 1).stats().flops;
    if (has_head()) flops_ += CompiledNet(head_, head_shape_, 1).stats().flops;
  }

 protected:
  explicit NetModel(const ModelConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        opt_(cfg.lr),
        in_shape_{1, cfg.img_h, cfg.img_w} {}

  /// Batch loss of the net's output `y` against the batch's labels, and
  /// its gradient w.r.t. `y`. Default: MSE on [steering, throttle].
  virtual std::pair<double, Tensor> loss(
      const Tensor& y, const std::vector<const Sample*>& batch) {
    Tensor target({batch.size(), 2});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      target.at(i, 0) = batch[i]->steering;
      target.at(i, 1) = batch[i]->throttle;
    }
    return mse_loss(y, target);
  }

  /// Output rows y[0..n) of a plan run into predictions. Default: the
  /// [steering, throttle] regression, clamped to its range.
  virtual void decode(const float* y, std::size_t n, Prediction* out) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = Prediction{std::clamp<double>(y[i * 2 + 0], -1, 1),
                          std::clamp<double>(y[i * 2 + 1], 0, 1)};
    }
  }

  ModelConfig cfg_;
  util::Rng rng_;
  Sequential net_;
  Sequential head_;
  Adam opt_;

  // Geometry, set by each type's constructor.
  std::vector<std::size_t> in_shape_;    // one encoder row
  std::size_t rows_ = 1;                 // encoder rows per sample
  std::vector<std::size_t> head_shape_;  // one head row
  std::size_t hist_ = 0;                 // history values ending a head row

 private:
  bool has_head() const { return head_.num_layers() != 0; }

  /// Every Sequential the model owns, in parameter order.
  std::vector<Sequential*> nets() {
    if (!has_head()) return {&net_};
    return {&net_, &head_};
  }

  /// Copies each sample's last T = seq_len() frames, oldest first, into
  /// x = [n * rows_, in_shape_] as contiguous H*W planes: frame j of
  /// sample i lands at (i*T + j)*H*W, the layout of the 2-D [N, 1, H, W],
  /// the rnn's time-folded [N*T, 1, H, W] and the 3d stack
  /// [N, 1, T, H, W] alike. Fills training's input tensor and the plan's
  /// encoder input slot.
  template <typename At>
  void stage(At sample, std::size_t n, float* x) const {
    const std::size_t t = seq_len(), plane = cfg_.img_h * cfg_.img_w;
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<camera::Image>& frames = sample(i).frames;
      if (frames.size() < t) {
        throw std::invalid_argument("sample: too few frames");
      }
      for (std::size_t j = 0; j < t; ++j) {
        const camera::Image& img = frames[frames.size() - t + j];
        if (img.height() != cfg_.img_h || img.width() != cfg_.img_w) {
          throw std::invalid_argument("sample: frame size mismatch");
        }
        std::copy(img.pixels().begin(), img.pixels().end(),
                  x + (i * t + j) * plane);
      }
    }
  }

  /// Writes one head row per sample into h: the sample's rows_ encoder
  /// rows from `feats`, then the last hist_ values of its history.
  template <typename At>
  void join(const float* feats, At sample, std::size_t n, float* h) const {
    const std::size_t row = elems(head_shape_), feat = row - hist_;
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float>& hist = sample(i).history;
      if (hist.size() < hist_) {
        throw std::invalid_argument("memory model: history too short");
      }
      std::copy(feats + i * feat, feats + (i + 1) * feat, h + i * row);
      std::copy(hist.end() - static_cast<std::ptrdiff_t>(hist_), hist.end(),
                h + i * row + feat);
    }
  }

  /// The one training and validation step: stage, encoder, join, head,
  /// loss; when training, back through the head (the history columns
  /// have no upstream parameters, so each row's feature columns alone
  /// flow into the encoder) and the encoder, then one Adam step over
  /// every net's parameters in order.
  double step(const std::vector<const Sample*>& batch, bool train) {
    const std::size_t n = batch.size();
    const auto sample = [&](std::size_t i) -> const Sample& {
      return *batch[i];
    };
    Tensor x(batched(n * rows_, in_shape_));
    stage(sample, n, x.data());
    Tensor y = net_.forward(x, train);
    if (has_head()) {
      Tensor h(batched(n, head_shape_));
      join(y.data(), sample, n, h.data());
      y = head_.forward(h, train);
    }
    auto [l, grad] = loss(y, batch);
    if (!train) return l;
    if (has_head()) {
      const Tensor gh = head_.backward(grad);
      const std::size_t row = elems(head_shape_), feat = row - hist_;
      grad = Tensor({n * rows_, feat / rows_});
      for (std::size_t i = 0; i < n; ++i) {
        std::copy(gh.data() + i * row, gh.data() + i * row + feat,
                  grad.data() + i * feat);
      }
    }
    net_.backward(grad);
    std::vector<Param*> params;
    for (Sequential* s : nets()) {
      for (Param* p : s->params()) params.push_back(p);
    }
    opt_.step(params);
    return l;
  }

  /// One chunk of n <= cap rows: stage obs into the encoder's input slot,
  /// run it, join into the head's input slot, run that, and decode.
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) {
    const auto sample = [obs](std::size_t i) -> const Sample& {
      return obs[i];
    };
    stage(sample, n, enc_plan_->input());
    const float* y = enc_plan_->run(n * rows_);
    if (head_plan_ != nullptr) {
      join(y, sample, n, head_plan_->input());
      y = head_plan_->run(n);
    }
    decode(y, n, out);
  }

  std::unique_ptr<CompiledModel> plan_;
  // The plan's nets; valid while plan_ is attached.
  CompiledNet* enc_plan_ = nullptr;
  CompiledNet* head_plan_ = nullptr;
  std::size_t plan_cap_ = kDefaultPlanCap;
  std::uint64_t flops_ = 0;
};

// --- linear ----------------------------------------------------------------

class LinearModel : public NetModel {
 public:
  explicit LinearModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    net_.add<Dense>(f, 64, rng_);
    net_.add<ReLU>();
    net_.add<Dropout>(cfg.dropout, rng_.split());
    net_.add<Dense>(64, 2, rng_);
  }

  ModelType type() const override { return ModelType::Linear; }
};

// --- categorical -------------------------------------------------------------

class CategoricalModel : public NetModel {
 public:
  explicit CategoricalModel(const ModelConfig& cfg) : NetModel(cfg) {
    if (cfg.steering_bins < 2 || cfg.throttle_bins < 2) {
      throw std::invalid_argument(
          "categorical model: steering_bins and throttle_bins must be >= 2");
    }
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    net_.add<Dense>(f, 64, rng_);
    net_.add<ReLU>();
    net_.add<Dropout>(cfg.dropout, rng_.split());
    net_.add<Dense>(64, cfg.steering_bins + cfg.throttle_bins, rng_);
    ps_.assign(cfg.steering_bins, 0.0f);
    pt_.assign(cfg.throttle_bins, 0.0f);
  }

  ModelType type() const override { return ModelType::Categorical; }

 protected:
  /// Softmax cross-entropy per head over one shared logits row.
  std::pair<double, Tensor> loss(
      const Tensor& logits, const std::vector<const Sample*>& batch) override {
    std::vector<std::size_t> steer_targets, throttle_targets;
    steer_targets.reserve(batch.size());
    throttle_targets.reserve(batch.size());
    for (const Sample* s : batch) {
      steer_targets.push_back(to_bin(s->steering, -1, 1, cfg_.steering_bins));
      throttle_targets.push_back(to_bin(s->throttle, 0, 1, cfg_.throttle_bins));
    }
    Tensor grad(logits.shape());
    double total = softmax_xent_slice(logits, 0, cfg_.steering_bins,
                                      steer_targets, grad);
    total += softmax_xent_slice(logits, cfg_.steering_bins,
                                cfg_.steering_bins + cfg_.throttle_bins,
                                throttle_targets, grad);
    return {total, std::move(grad)};
  }

  /// Each head's most probable bin, unbinned.
  void decode(const float* logits, std::size_t n, Prediction* out) override {
    const std::size_t stride = cfg_.steering_bins + cfg_.throttle_bins;
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = logits + i * stride;
      softmax_row(row, cfg_.steering_bins, ps_.data());
      softmax_row(row + cfg_.steering_bins, cfg_.throttle_bins, pt_.data());
      const std::size_t sb = static_cast<std::size_t>(
          std::max_element(ps_.begin(), ps_.end()) - ps_.begin());
      const std::size_t tb = static_cast<std::size_t>(
          std::max_element(pt_.begin(), pt_.end()) - pt_.begin());
      out[i] = Prediction{from_bin(sb, -1, 1, cfg_.steering_bins),
                          from_bin(tb, 0, 1, cfg_.throttle_bins)};
    }
  }

 private:
  std::vector<float> ps_, pt_;  // per-head softmax scratch
};

// --- inferred ----------------------------------------------------------------

class InferredModel : public NetModel {
 public:
  explicit InferredModel(const ModelConfig& cfg) : NetModel(cfg) {
    if (!std::isfinite(cfg.inferred_throttle_base) ||
        !std::isfinite(cfg.inferred_throttle_gain)) {
      throw std::invalid_argument("inferred: non-finite throttle policy");
    }
    // Deliberately small: two convs, narrow head. Fast inference is the
    // point — it frees throttle budget in the control loop.
    net_.add<Conv2D>(1, 4, 3, 2, rng_);
    net_.add<ReLU>();
    net_.add<Conv2D>(4, 8, 3, 2, rng_);
    net_.add<ReLU>();
    net_.add<Flatten>();
    auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
    const std::size_t f = 8 * conv(conv(cfg.img_h)) * conv(conv(cfg.img_w));
    net_.add<Dense>(f, 16, rng_);
    net_.add<ReLU>();
    net_.add<Dense>(16, 1, rng_);
  }

  ModelType type() const override { return ModelType::Inferred; }

 protected:
  /// MSE on the steering column alone.
  std::pair<double, Tensor> loss(
      const Tensor& y, const std::vector<const Sample*>& batch) override {
    Tensor target({batch.size(), 1});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      target.at(i, 0) = batch[i]->steering;
    }
    return mse_loss(y, target);
  }

  /// Throttle policy: full speed with the wheel straight, easing off as
  /// the commanded steering grows.
  void decode(const float* y, std::size_t n, Prediction* out) override {
    for (std::size_t i = 0; i < n; ++i) {
      const double steer = std::clamp<double>(y[i], -1, 1);
      const double throttle = std::clamp(
          cfg_.inferred_throttle_base +
              cfg_.inferred_throttle_gain * (1.0 - std::abs(steer)),
          0.0, 1.0);
      out[i] = Prediction{steer, throttle};
    }
  }
};

// --- memory -----------------------------------------------------------------

class MemoryModel : public NetModel {
 public:
  explicit MemoryModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    hist_ = 2 * cfg.history_len;
    head_shape_ = {f + hist_};
    head_.add<Dense>(f + hist_, 64, rng_);
    head_.add<ReLU>();
    head_.add<Dense>(64, 2, rng_);
  }

  ModelType type() const override { return ModelType::Memory; }
  std::size_t history_len() const override { return cfg_.history_len; }
};

// --- rnn ---------------------------------------------------------------------

class RnnModel : public NetModel {
 public:
  explicit RnnModel(const ModelConfig& cfg) : NetModel(cfg) {
    if (cfg.seq_len == 0) {
      throw std::invalid_argument("rnn model: seq_len must be >= 1");
    }
    // One shared encoder per frame, time folded into its batch axis; the
    // LSTM head reads each sample's seq_len encoder rows as [T, F].
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    rows_ = cfg.seq_len;
    head_shape_ = {cfg.seq_len, f};
    head_.add<LSTM>(f, 32, rng_);
    head_.add<Dense>(32, 2, rng_);
  }

  ModelType type() const override { return ModelType::Rnn; }
  std::size_t seq_len() const override { return cfg_.seq_len; }
};

// --- 3d ----------------------------------------------------------------------

class Conv3dModel : public NetModel {
 public:
  explicit Conv3dModel(const ModelConfig& cfg) : NetModel(cfg) {
    if (cfg.seq_len < 3) {
      throw std::invalid_argument("3d model: seq_len must be >= 3");
    }
    // The last seq_len frames are the depth axis: [1, T, H, W] per row.
    in_shape_ = {1, cfg.seq_len, cfg.img_h, cfg.img_w};
    net_.add<Conv3D>(1, 8, 2, 3, 1, 2, rng_);
    net_.add<ReLU>();
    net_.add<Conv3D>(8, 16, 2, 3, 1, 2, rng_);
    net_.add<ReLU>();
    net_.add<Flatten>();
    auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
    const std::size_t od = cfg.seq_len - 2;  // two kd=2, sd=1 convs
    const std::size_t f = 16 * od * conv(conv(cfg.img_h)) * conv(conv(cfg.img_w));
    net_.add<Dense>(f, 32, rng_);
    net_.add<ReLU>();
    net_.add<Dense>(32, 2, rng_);
  }

  ModelType type() const override { return ModelType::Conv3d; }
  std::size_t seq_len() const override { return cfg_.seq_len; }
};

template <typename M>
std::unique_ptr<DrivingModel> built(const ModelConfig& config) {
  auto model = std::make_unique<M>(config);
  model->count_flops();
  return model;
}

}  // namespace

std::unique_ptr<DrivingModel> make_model(ModelType type,
                                         const ModelConfig& config) {
  switch (type) {
    case ModelType::Linear: return built<LinearModel>(config);
    case ModelType::Categorical: return built<CategoricalModel>(config);
    case ModelType::Inferred: return built<InferredModel>(config);
    case ModelType::Memory: return built<MemoryModel>(config);
    case ModelType::Rnn: return built<RnnModel>(config);
    case ModelType::Conv3d: return built<Conv3dModel>(config);
  }
  throw std::invalid_argument("make_model: bad type");
}

namespace {
// "ALMB": model-bundle magic.
constexpr std::uint32_t kBundleMagic = 0x424d4c41;

// Bounds on a bundle's decoded sizes, checked before make_model builds
// anything from them. They admit every model the tree builds (frames up
// to 64x48, seq_len and history_len 3, 15/20 bins) and keep the largest
// model (the 3d one at 64x64 and seq_len 8) under 3 MiB of parameters.
constexpr std::size_t kMaxBundleFrameSide = 64;
constexpr std::size_t kMaxBundleSeqLen = 8;
constexpr std::size_t kMaxBundleHistoryLen = 8;
constexpr std::size_t kMinBundleBins = 2;
constexpr std::size_t kMaxBundleBins = 64;

void check_bundle_size(const char* field, std::size_t v, std::size_t lo,
                       std::size_t hi) {
  if (v < lo || v > hi) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         std::string("model bundle: ") + field + " " +
                             std::to_string(v) + " outside [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
  }
}
}  // namespace

void save_model_bundle(std::ostream& os, DrivingModel& model,
                       const ModelConfig& config) {
  util::write_pod(os, kBundleMagic);
  util::write_string(os, model.type_name());
  util::write_pod(os, static_cast<std::uint64_t>(config.img_w));
  util::write_pod(os, static_cast<std::uint64_t>(config.img_h));
  util::write_pod(os, static_cast<std::uint64_t>(config.seq_len));
  util::write_pod(os, static_cast<std::uint64_t>(config.history_len));
  util::write_pod(os, static_cast<std::uint64_t>(config.steering_bins));
  util::write_pod(os, static_cast<std::uint64_t>(config.throttle_bins));
  util::write_pod(os, config.lr);
  util::write_pod(os, config.dropout);
  util::write_pod(os, config.seed);
  util::write_pod(os, config.inferred_throttle_base);
  util::write_pod(os, config.inferred_throttle_gain);
  model.save_full(os);
}

LoadedModelBundle load_model_bundle(std::istream& is) {
  util::BinReader<ModelLoadError> r(is, "model bundle");
  if (r.pod<std::uint32_t>("header") != kBundleMagic) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         "model bundle: bad magic");
  }
  const std::string type_name = r.string("type name");
  ModelConfig cfg;
  cfg.img_w = r.size("config");
  cfg.img_h = r.size("config");
  cfg.seq_len = r.size("config");
  cfg.history_len = r.size("config");
  cfg.steering_bins = r.size("config");
  cfg.throttle_bins = r.size("config");
  cfg.lr = r.pod<double>("config");
  cfg.dropout = r.pod<double>("config");
  cfg.seed = r.pod<std::uint64_t>("config");
  cfg.inferred_throttle_base = r.pod<double>("config");
  cfg.inferred_throttle_gain = r.pod<double>("config");
  ModelType type;
  try {
    type = model_type_from_string(type_name);
  } catch (const std::invalid_argument&) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         "model bundle: unknown model type '" + type_name +
                             "'");
  }
  check_bundle_size("img_w", cfg.img_w, 1, kMaxBundleFrameSide);
  check_bundle_size("img_h", cfg.img_h, 1, kMaxBundleFrameSide);
  check_bundle_size("seq_len", cfg.seq_len, 1, kMaxBundleSeqLen);
  check_bundle_size("history_len", cfg.history_len, 0, kMaxBundleHistoryLen);
  check_bundle_size("steering_bins", cfg.steering_bins, kMinBundleBins,
                    kMaxBundleBins);
  check_bundle_size("throttle_bins", cfg.throttle_bins, kMinBundleBins,
                    kMaxBundleBins);
  LoadedModelBundle out;
  out.config = cfg;
  try {
    out.model = make_model(type, cfg);
  } catch (const std::invalid_argument& e) {
    // In-bounds sizes the model still cannot use (a frame smaller than
    // its kernels, a 3d model with too few frames), and a learning rate,
    // dropout or inferred throttle policy out of range or not finite.
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         std::string("model bundle: config rejected: ") +
                             e.what());
  }
  out.model->load_full(is);
  return out;
}

}  // namespace autolearn::ml
