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

/// Copies the last `t` frames of `s`, oldest first, to `dst` as t
/// contiguous H*W planes. In a batch, sample i's frame j lands at
/// (i*t + j)*h*w, which is the layout of every zoo input: the 2-D
/// [N, 1, H, W] (t = 1), the rnn's time-folded [N*T, 1, H, W] and the 3d
/// stack [N, 1, T, H, W]. So this one checked stager fills both the
/// training tensors and the plan arena.
void stage_sample(const Sample& s, std::size_t t, std::size_t img_h,
                  std::size_t img_w, float* dst) {
  if (s.frames.size() < t) {
    throw std::invalid_argument("sample: too few frames");
  }
  for (std::size_t j = 0; j < t; ++j) {
    const camera::Image& img = s.frames[s.frames.size() - t + j];
    if (img.height() != img_h || img.width() != img_w) {
      throw std::invalid_argument("sample: frame size mismatch");
    }
    std::copy(img.pixels().begin(), img.pixels().end(),
              dst + j * img_h * img_w);
  }
}

/// Standard [steering, throttle] regression decode.
void decode_regression(const float* y, std::size_t n, Prediction* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Prediction{std::clamp<double>(y[i * 2 + 0], -1, 1),
                        std::clamp<double>(y[i * 2 + 1], 0, 1)};
  }
}

Tensor targets_tensor(const std::vector<const Sample*>& batch) {
  Tensor y({batch.size(), 2});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    y.at(i, 0) = batch[i]->steering;
    y.at(i, 1) = batch[i]->throttle;
  }
  return y;
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

/// Shared plumbing: a Sequential net + Adam, (de)serialization, and the one
/// inference path — a compiled plan every predict runs through.
class NetModel : public DrivingModel {
 public:
  explicit NetModel(const ModelConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed), opt_(cfg.lr) {}

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

  std::size_t num_parameters() override {
    std::size_t n = 0;
    for (Sequential* s : nets()) n += s->num_parameters();
    return n;
  }
  std::uint64_t flops_per_sample() const override {
    return net_.flops_per_sample();
  }
  std::vector<Sequential*> mutable_nets() override { return nets(); }
  void save(std::ostream& os) override {
    for (Sequential* s : nets()) s->save_params(os);
  }
  /// Loads drop the plan (it holds raw parameter pointers); the next
  /// predict recompiles it at the same cap.
  void load(std::istream& is) override {
    for (Sequential* s : nets()) s->load_params(is);
    plan_.reset();
  }
  void save_full(std::ostream& os) override {
    for (Sequential* s : nets()) s->save_params(os);
    for (Sequential* s : nets()) s->save_state(os);
    opt_.save_state(os);
    util::write_rng_state(os, rng_.state());
  }
  void load_full(std::istream& is) override {
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

  /// Compiles every net through the model's build_plan hook and keeps the
  /// cap for later recompiles. Idempotent for an unchanged cap —
  /// replicated registries publish one shared model to many replicas and
  /// must not recompile per replica.
  bool attach_plan(std::size_t max_batch) final {
    if (plan_ && plan_->max_batch() == max_batch) return true;
    plan_.reset();
    auto plan = std::make_unique<CompiledModel>(max_batch);
    build_plan(*plan, max_batch);
    plan_ = std::move(plan);
    plan_cap_ = max_batch;
    return true;
  }
  void detach_plan() final { plan_.reset(); }
  CompiledModel* plan() final { return plan_.get(); }

 protected:
  /// Adds this model's nets to the plan (and sizes any decode scratch).
  /// The CompiledNet pointers the model keeps from add_net stay valid for
  /// the plan's lifetime; run_plan only runs while the plan is attached.
  virtual void build_plan(CompiledModel& plan, std::size_t max_batch) = 0;

  /// One chunk of n <= cap rows: stage obs into the plan inputs, run the
  /// plan and decode into out[0..n).
  virtual void run_plan(const Sample* obs, std::size_t n,
                        Prediction* out) = 0;

  /// Stages obs[0..n) — each sample's last seq_len() frames — into a plan
  /// input slot.
  void stage_batch(const Sample* obs, std::size_t n, float* x) const {
    const std::size_t t = seq_len();
    for (std::size_t i = 0; i < n; ++i) {
      stage_sample(obs[i], t, cfg_.img_h, cfg_.img_w,
                   x + i * t * cfg_.img_h * cfg_.img_w);
    }
  }

  /// Training input: the same staging into a fresh tensor of `shape`.
  Tensor frames_tensor(const std::vector<const Sample*>& batch,
                       std::vector<std::size_t> shape) const {
    Tensor x(std::move(shape));
    const std::size_t t = seq_len();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      stage_sample(*batch[i], t, cfg_.img_h, cfg_.img_w,
                   x.data() + i * t * cfg_.img_h * cfg_.img_w);
    }
    return x;
  }
  /// [N*T, 1, H, W]: the 2-D models' input (T = 1) and the rnn's.
  Tensor frames_tensor(const std::vector<const Sample*>& batch) const {
    return frames_tensor(
        batch, {batch.size() * seq_len(), 1, cfg_.img_h, cfg_.img_w});
  }

  /// Every Sequential the model owns, in parameter order. The memory/rnn
  /// models add their head here, which hoists all (de)serialization and
  /// parameter counting into NetModel.
  virtual std::vector<Sequential*> nets() { return {&net_}; }

  ModelConfig cfg_;
  util::Rng rng_;
  Sequential net_;
  Adam opt_;

 private:
  std::unique_ptr<CompiledModel> plan_;
  std::size_t plan_cap_ = kDefaultPlanCap;
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

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor x = frames_tensor(batch);
    const Tensor pred = net_.forward(x, /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor x = frames_tensor(batch);
    const Tensor pred = net_.forward(x, /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    net_plan_ = &plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
  }
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) override {
    stage_batch(obs, n, net_plan_->input());
    decode_regression(net_plan_->run(n), n, out);
  }

 private:
  CompiledNet* net_plan_ = nullptr;
};

// --- categorical -------------------------------------------------------------

class CategoricalModel : public NetModel {
 public:
  explicit CategoricalModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    net_.add<Dense>(f, 64, rng_);
    net_.add<ReLU>();
    net_.add<Dropout>(cfg.dropout, rng_.split());
    net_.add<Dense>(64, cfg.steering_bins + cfg.throttle_bins, rng_);
  }

  ModelType type() const override { return ModelType::Categorical; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor x = frames_tensor(batch);
    const Tensor logits = net_.forward(x, /*train=*/true);
    Tensor grad(logits.shape());
    const double loss = heads_loss(logits, batch, grad);
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor x = frames_tensor(batch);
    const Tensor logits = net_.forward(x, /*train=*/false);
    Tensor grad(logits.shape());
    return heads_loss(logits, batch, grad);
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    net_plan_ = &plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
    ps_.assign(cfg_.steering_bins, 0.0f);
    pt_.assign(cfg_.throttle_bins, 0.0f);
  }
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) override {
    stage_batch(obs, n, net_plan_->input());
    const float* logits = net_plan_->run(n);
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
  CompiledNet* net_plan_ = nullptr;
  std::vector<float> ps_, pt_;  // per-head softmax scratch

  double heads_loss(const Tensor& logits,
                    const std::vector<const Sample*>& batch, Tensor& grad) {
    std::vector<std::size_t> steer_targets, throttle_targets;
    steer_targets.reserve(batch.size());
    throttle_targets.reserve(batch.size());
    for (const Sample* s : batch) {
      steer_targets.push_back(to_bin(s->steering, -1, 1, cfg_.steering_bins));
      throttle_targets.push_back(to_bin(s->throttle, 0, 1, cfg_.throttle_bins));
    }
    double loss = softmax_xent_slice(logits, 0, cfg_.steering_bins,
                                     steer_targets, grad);
    loss += softmax_xent_slice(logits, cfg_.steering_bins,
                               cfg_.steering_bins + cfg_.throttle_bins,
                               throttle_targets, grad);
    return loss;
  }
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

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor x = frames_tensor(batch);
    const Tensor pred = net_.forward(x, /*train=*/true);
    auto [loss, grad] = mse_loss(pred, steer_targets(batch));
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor x = frames_tensor(batch);
    const Tensor pred = net_.forward(x, /*train=*/false);
    return mse_loss(pred, steer_targets(batch)).first;
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    net_plan_ = &plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
  }
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) override {
    stage_batch(obs, n, net_plan_->input());
    const float* y = net_plan_->run(n);  // one steering column
    for (std::size_t i = 0; i < n; ++i) out[i] = decode_steer(y[i]);
  }

 private:
  CompiledNet* net_plan_ = nullptr;

  Prediction decode_steer(float raw) const {
    const double steer = std::clamp<double>(raw, -1, 1);
    // Throttle policy: full speed with the wheel straight, easing off as
    // the commanded steering grows.
    const double throttle = std::clamp(
        cfg_.inferred_throttle_base +
            cfg_.inferred_throttle_gain * (1.0 - std::abs(steer)),
        0.0, 1.0);
    return Prediction{steer, throttle};
  }

  static Tensor steer_targets(const std::vector<const Sample*>& batch) {
    Tensor y({batch.size(), 1});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      y.at(i, 0) = batch[i]->steering;
    }
    return y;
  }
};

// --- memory -----------------------------------------------------------------

class MemoryModel : public NetModel {
 public:
  explicit MemoryModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);  // net_ is the encoder only
    features_ = encoder_features(cfg.img_h, cfg.img_w);
    hist_ = 2 * cfg.history_len;
    head_.add<Dense>(features_ + hist_, 64, rng_);
    head_.add<ReLU>();
    head_.add<Dense>(64, 2, rng_);
  }

  ModelType type() const override { return ModelType::Memory; }
  std::size_t history_len() const override { return cfg_.history_len; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    const Tensor grad_concat = head_.backward(grad);
    // Split: the first `features_` columns flow back into the encoder; the
    // history columns have no upstream parameters.
    const std::size_t n = batch.size();
    Tensor grad_feat({n, features_});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < features_; ++k) {
        grad_feat.at(i, k) = grad_concat.at(i, k);
      }
    }
    net_.backward(grad_feat);
    auto params = net_.params();
    for (Param* p : head_.params()) params.push_back(p);
    opt_.step(params);
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

  std::uint64_t flops_per_sample() const override {
    return net_.flops_per_sample() + head_.flops_per_sample();
  }

 protected:
  std::vector<Sequential*> nets() override { return {&net_, &head_}; }

  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    enc_plan_ = &plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
    head_plan_ = &plan.add_net(head_, {features_ + hist_}, max_batch);
  }
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) override {
    stage_batch(obs, n, enc_plan_->input());
    const float* feats = enc_plan_->run(n);
    float* concat = head_plan_->input();
    for (std::size_t i = 0; i < n; ++i) {
      concat_row(feats + i * features_, obs[i],
                 concat + i * (features_ + hist_));
    }
    decode_regression(head_plan_->run(n), n, out);
  }

 private:
  CompiledNet* enc_plan_ = nullptr;
  CompiledNet* head_plan_ = nullptr;

  /// One head input row: the encoder features, then the sample's last
  /// history_len command pairs.
  void concat_row(const float* feats, const Sample& s, float* row) const {
    if (s.history.size() < hist_) {
      throw std::invalid_argument("memory model: history too short");
    }
    std::copy(feats, feats + features_, row);
    std::copy(s.history.end() - static_cast<std::ptrdiff_t>(hist_),
              s.history.end(), row + features_);
  }

  Tensor forward(const std::vector<const Sample*>& batch, bool train) {
    const Tensor feats = net_.forward(frames_tensor(batch), train);
    const std::size_t n = batch.size();
    Tensor concat({n, features_ + hist_});
    for (std::size_t i = 0; i < n; ++i) {
      concat_row(feats.data() + i * features_, *batch[i],
                 concat.data() + i * (features_ + hist_));
    }
    return head_.forward(concat, train);
  }

  Sequential head_;
  std::size_t features_ = 0;
  std::size_t hist_ = 0;
};

// --- rnn ---------------------------------------------------------------------

class RnnModel : public NetModel {
 public:
  explicit RnnModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);  // shared per-frame encoder (time folded in N)
    features_ = encoder_features(cfg.img_h, cfg.img_w);
    head_.add<LSTM>(features_, 32, rng_);
    head_.add<Dense>(32, 2, rng_);
  }

  ModelType type() const override { return ModelType::Rnn; }
  std::size_t seq_len() const override { return cfg_.seq_len; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    const Tensor grad_seq = head_.backward(grad);  // [N, T, F]
    net_.backward(grad_seq.reshaped(
        {batch.size() * cfg_.seq_len, features_}));
    auto params = net_.params();
    for (Param* p : head_.params()) params.push_back(p);
    opt_.step(params);
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

  std::uint64_t flops_per_sample() const override {
    return cfg_.seq_len * net_.flops_per_sample() + head_.flops_per_sample();
  }

 protected:
  std::vector<Sequential*> nets() override { return {&net_, &head_}; }

  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    // Time is folded into the encoder's batch axis, so its row cap is
    // max_batch * seq_len; the LSTM head runs at max_batch rows.
    enc_plan_ = &plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w},
                              max_batch * cfg_.seq_len);
    head_plan_ =
        &plan.add_net(head_, {cfg_.seq_len, features_}, max_batch);
  }
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) override {
    stage_batch(obs, n, enc_plan_->input());
    // Encoder output [n*T, F] is [n, T, F] in memory: the head consumes
    // it in place through the external-input overload (training's reshape
    // sees the same layout).
    const float* feats = enc_plan_->run(n * cfg_.seq_len);
    decode_regression(head_plan_->run(feats, n), n, out);
  }

 private:
  CompiledNet* enc_plan_ = nullptr;
  CompiledNet* head_plan_ = nullptr;

  Tensor forward(const std::vector<const Sample*>& batch, bool train) {
    const Tensor feats = net_.forward(frames_tensor(batch), train);  // [N*T, F]
    return head_.forward(
        feats.reshaped({batch.size(), cfg_.seq_len, features_}), train);
  }

  Sequential head_;
  std::size_t features_ = 0;
};

// --- 3d ----------------------------------------------------------------------

class Conv3dModel : public NetModel {
 public:
  explicit Conv3dModel(const ModelConfig& cfg) : NetModel(cfg) {
    if (cfg.seq_len < 3) {
      throw std::invalid_argument("3d model: seq_len must be >= 3");
    }
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

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(stack(batch), /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(stack(batch), /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    net_plan_ = &plan.add_net(
        net_, {1, cfg_.seq_len, cfg_.img_h, cfg_.img_w}, max_batch);
  }
  void run_plan(const Sample* obs, std::size_t n, Prediction* out) override {
    stage_batch(obs, n, net_plan_->input());
    decode_regression(net_plan_->run(n), n, out);
  }

 private:
  CompiledNet* net_plan_ = nullptr;

  /// The last seq_len frames as the depth axis: [N, 1, T, H, W].
  Tensor stack(const std::vector<const Sample*>& batch) const {
    return frames_tensor(
        batch, {batch.size(), 1, cfg_.seq_len, cfg_.img_h, cfg_.img_w});
  }
};

}  // namespace

std::unique_ptr<DrivingModel> make_model(ModelType type,
                                         const ModelConfig& config) {
  switch (type) {
    case ModelType::Linear: return std::make_unique<LinearModel>(config);
    case ModelType::Categorical:
      return std::make_unique<CategoricalModel>(config);
    case ModelType::Inferred: return std::make_unique<InferredModel>(config);
    case ModelType::Memory: return std::make_unique<MemoryModel>(config);
    case ModelType::Rnn: return std::make_unique<RnnModel>(config);
    case ModelType::Conv3d: return std::make_unique<Conv3dModel>(config);
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
