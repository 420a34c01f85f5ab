// Model-level reference for the zoo (ctest -L ml, -L plan). Every model
// type is one NetModel: one staging, one join of encoder rows and history
// into the head, one training step and one plan run. This suite holds all
// six types to a test-side copy of the per-type composition they were
// written with before they shared that code: predict_batch, train_batch
// and eval_batch bit for bit, and flops_per_sample to a test-side sum over
// each layer's geometry (tests/flops_reference.hpp) fresh, after a
// predict, after a bundle round trip and on the int8 twin. The copy drives
// the model's own nets (mutable_nets) through Sequential::forward and
// backward, so it sees exactly what the model adds on top of its layers:
// which frames it stages and how, where the history goes, how the head's
// gradient is split for the encoder, the loss, the decode and the Adam
// step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flops_reference.hpp"
#include "ml/driving_model.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"
#include "ml/quant_model.hpp"
#include "ml/sequential.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

ModelConfig reference_config() {
  ModelConfig cfg;
  cfg.seed = 9;
  return cfg;
}

/// Noise frames and history, one frame and one command pair more than
/// any model reads, so a model that takes the wrong end of either shows.
std::vector<Sample> noise_samples(std::size_t n, const ModelConfig& cfg,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sample> out(n);
  for (Sample& s : out) {
    for (std::size_t f = 0; f <= cfg.seq_len; ++f) {
      camera::Image img(cfg.img_w, cfg.img_h, 0.0f);
      for (std::size_t y = 0; y < cfg.img_h; ++y) {
        for (std::size_t x = 0; x < cfg.img_w; ++x) {
          img.at(x, y) = static_cast<float>(rng.uniform());
        }
      }
      s.frames.push_back(std::move(img));
    }
    for (std::size_t h = 0; h <= cfg.history_len; ++h) {
      s.history.push_back(static_cast<float>(rng.uniform(-1, 1)));
      s.history.push_back(static_cast<float>(rng.uniform()));
    }
    s.steering = static_cast<float>(rng.uniform(-1, 1));
    s.throttle = static_cast<float>(rng.uniform());
  }
  return out;
}

std::vector<const Sample*> pointers(const std::vector<Sample>& samples,
                                    std::size_t begin, std::size_t n) {
  std::vector<const Sample*> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(&samples[begin + i]);
  return out;
}

/// Frames a type reads per sample: the rnn's sequence and the 3d stack.
std::size_t frames_of(ModelType t, const ModelConfig& cfg) {
  return t == ModelType::Rnn || t == ModelType::Conv3d ? cfg.seq_len : 1;
}

/// Encoder rows per sample: the rnn folds time into the encoder's batch.
std::size_t rows_of(ModelType t, const ModelConfig& cfg) {
  return t == ModelType::Rnn ? cfg.seq_len : 1;
}

/// Each sample's last frames, oldest first: [N, 1, H, W] for the 2-D
/// models, the rnn's [N*T, 1, H, W] and the 3d stack [N, 1, T, H, W].
Tensor stage(ModelType t, const ModelConfig& cfg,
             const std::vector<const Sample*>& batch) {
  const std::size_t n = batch.size(), f = frames_of(t, cfg);
  Tensor x(t == ModelType::Conv3d
               ? std::vector<std::size_t>{n, 1, f, cfg.img_h, cfg.img_w}
               : std::vector<std::size_t>{n * f, 1, cfg.img_h, cfg.img_w});
  const std::size_t plane = cfg.img_h * cfg.img_w;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<camera::Image>& frames = batch[i]->frames;
    for (std::size_t j = 0; j < f; ++j) {
      const std::vector<float>& px = frames[frames.size() - f + j].pixels();
      std::copy(px.begin(), px.end(), x.data() + (i * f + j) * plane);
    }
  }
  return x;
}

/// The output before decode: the one net, memory's head over the features
/// then the last 2*history_len history values, or the rnn's head over the
/// encoder rows viewed as [N, T, F].
Tensor compose(ModelType t, const ModelConfig& cfg,
               const std::vector<Sequential*>& nets,
               const std::vector<const Sample*>& batch, bool train) {
  const std::size_t n = batch.size();
  const Tensor feats = nets[0]->forward(stage(t, cfg, batch), train);
  if (t == ModelType::Memory) {
    const std::size_t f = feats.dim(1), hist = 2 * cfg.history_len;
    Tensor concat({n, f + hist});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < f; ++k) concat.at(i, k) = feats.at(i, k);
      const std::vector<float>& h = batch[i]->history;
      for (std::size_t k = 0; k < hist; ++k) {
        concat.at(i, f + k) = h[h.size() - hist + k];
      }
    }
    return nets[1]->forward(concat, train);
  }
  if (t == ModelType::Rnn) {
    return nets[1]->forward(feats.reshaped({n, cfg.seq_len, feats.dim(1)}),
                            train);
  }
  return feats;
}

double from_bin(std::size_t bin, double lo, double hi, std::size_t bins) {
  return lo + (hi - lo) * static_cast<double>(bin) /
                  static_cast<double>(bins - 1);
}

std::size_t to_bin(double v, double lo, double hi, std::size_t bins) {
  const double t = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
  return std::min(bins - 1,
                  static_cast<std::size_t>(std::lround(t * (bins - 1))));
}

Prediction decode(ModelType t, const ModelConfig& cfg, const Tensor& y,
                  std::size_t i) {
  if (t == ModelType::Categorical) {
    const std::size_t sb = cfg.steering_bins, tb = cfg.throttle_bins;
    std::vector<float> ps(sb), pt(tb);
    const float* row = y.data() + i * (sb + tb);
    softmax_row(row, sb, ps.data());
    softmax_row(row + sb, tb, pt.data());
    const auto argmax = [](const std::vector<float>& p) {
      return static_cast<std::size_t>(std::max_element(p.begin(), p.end()) -
                                      p.begin());
    };
    return {from_bin(argmax(ps), -1, 1, sb), from_bin(argmax(pt), 0, 1, tb)};
  }
  if (t == ModelType::Inferred) {
    const double steer = std::clamp<double>(y.at(i, 0), -1, 1);
    return {steer, std::clamp(cfg.inferred_throttle_base +
                                  cfg.inferred_throttle_gain *
                                      (1.0 - std::abs(steer)),
                              0.0, 1.0)};
  }
  return {std::clamp<double>(y.at(i, 0), -1, 1),
          std::clamp<double>(y.at(i, 1), 0, 1)};
}

/// Categorical: softmax cross-entropy per head; inferred: MSE on the
/// steering column; the rest: MSE on [steering, throttle].
std::pair<double, Tensor> reference_loss(
    ModelType t, const ModelConfig& cfg, const Tensor& y,
    const std::vector<const Sample*>& batch) {
  const std::size_t n = batch.size();
  if (t == ModelType::Categorical) {
    std::vector<std::size_t> steer, throttle;
    for (const Sample* s : batch) {
      steer.push_back(to_bin(s->steering, -1, 1, cfg.steering_bins));
      throttle.push_back(to_bin(s->throttle, 0, 1, cfg.throttle_bins));
    }
    Tensor grad(y.shape());
    double loss = softmax_xent_slice(y, 0, cfg.steering_bins, steer, grad);
    loss += softmax_xent_slice(y, cfg.steering_bins,
                               cfg.steering_bins + cfg.throttle_bins,
                               throttle, grad);
    return {loss, std::move(grad)};
  }
  const bool inferred = t == ModelType::Inferred;
  Tensor target({n, inferred ? std::size_t{1} : std::size_t{2}});
  for (std::size_t i = 0; i < n; ++i) {
    target.at(i, 0) = batch[i]->steering;
    if (!inferred) target.at(i, 1) = batch[i]->throttle;
  }
  return mse_loss(y, target);
}

/// One training step: forward, loss, back through the head (memory's
/// encoder gets the feature columns of each row, the rnn's the [N, T, F]
/// gradient as [N*T, F]) and the encoder, then Adam over every net's
/// parameters in order.
double reference_step(ModelType t, const ModelConfig& cfg,
                      const std::vector<Sequential*>& nets, Adam& opt,
                      const std::vector<const Sample*>& batch) {
  const std::size_t n = batch.size();
  const Tensor y = compose(t, cfg, nets, batch, /*train=*/true);
  auto [loss, grad] = reference_loss(t, cfg, y, batch);
  if (t == ModelType::Memory) {
    const Tensor gh = nets[1]->backward(grad);
    const std::size_t f = gh.dim(1) - 2 * cfg.history_len;
    Tensor g({n, f});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < f; ++k) g.at(i, k) = gh.at(i, k);
    }
    nets[0]->backward(g);
  } else if (t == ModelType::Rnn) {
    const Tensor gh = nets[1]->backward(grad);
    nets[0]->backward(gh.reshaped({n * cfg.seq_len, gh.dim(2)}));
  } else {
    nets[0]->backward(grad);
  }
  std::vector<Param*> params;
  for (Sequential* s : nets) {
    for (Param* p : s->params()) params.push_back(p);
  }
  opt.step(params);
  return loss;
}

std::string saved(DrivingModel& m) {
  std::ostringstream os;
  m.save(os);
  return os.str();
}

class ZooReference : public ::testing::TestWithParam<ModelType> {};

TEST_P(ZooReference, PredictBatchMatchesTheComposedNets) {
  const ModelType t = GetParam();
  const ModelConfig cfg = reference_config();
  const auto samples = noise_samples(40, cfg, 3);
  auto model = make_model(t, cfg);
  const std::vector<Sequential*> nets = model->mutable_nets();
  ASSERT_EQ(nets.size(), t == ModelType::Memory || t == ModelType::Rnn ? 2u
                                                                       : 1u);
  // 40 runs past the plan's default cap of 32: two chunks.
  for (const std::size_t n : {1u, 5u, 40u}) {
    std::vector<Prediction> got(n);
    model->predict_batch(samples.data(), n, got.data());
    const auto batch = pointers(samples, 0, n);
    const Tensor y = compose(t, cfg, nets, batch, /*train=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      const Prediction want = decode(t, cfg, y, i);
      EXPECT_EQ(bits(got[i].steering), bits(want.steering))
          << "n " << n << " row " << i;
      EXPECT_EQ(bits(got[i].throttle), bits(want.throttle))
          << "n " << n << " row " << i;
    }
  }
}

TEST_P(ZooReference, TrainAndEvalStepsMatchTheComposedNets) {
  const ModelType t = GetParam();
  const ModelConfig cfg = reference_config();
  const auto samples = noise_samples(24, cfg, 4);
  auto model = make_model(t, cfg);
  auto twin = make_model(t, cfg);
  const std::vector<Sequential*> nets = twin->mutable_nets();
  Adam opt(cfg.lr);
  // Two steps, so the second runs on moments the first left behind.
  for (const std::size_t begin : {0u, 8u}) {
    const auto batch = pointers(samples, begin, 8);
    const double got = model->train_batch(batch);
    const double want = reference_step(t, cfg, nets, opt, batch);
    EXPECT_EQ(bits(got), bits(want)) << "batch at " << begin;
  }
  EXPECT_EQ(saved(*model), saved(*twin));

  const auto val = pointers(samples, 16, 8);
  const Tensor y = compose(t, cfg, nets, val, /*train=*/false);
  EXPECT_EQ(bits(model->eval_batch(val)),
            bits(reference_loss(t, cfg, y, val).first));
}

/// Per-row input shapes of a type's nets, in mutable_nets() order: one
/// frame (the 3d model's stack), then memory's features and history or
/// the rnn's [T, F] sequence of encoder rows.
std::vector<std::vector<std::size_t>> net_rows(ModelType t,
                                               const ModelConfig& cfg) {
  const auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
  const std::size_t features =
      32 * conv(conv(conv(cfg.img_h))) * conv(conv(conv(cfg.img_w)));
  switch (t) {
    case ModelType::Conv3d:
      return {{1, cfg.seq_len, cfg.img_h, cfg.img_w}};
    case ModelType::Memory:
      return {{1, cfg.img_h, cfg.img_w},
              {features + 2 * cfg.history_len}};
    case ModelType::Rnn:
      return {{1, cfg.img_h, cfg.img_w}, {cfg.seq_len, features}};
    default:
      return {{1, cfg.img_h, cfg.img_w}};
  }
}

/// rows_of(t) encoder rows and one head row per sample, each summed over
/// its layers' geometry by the test-side count.
std::uint64_t reference_flops(ModelType t, const ModelConfig& cfg,
                              const std::vector<Sequential*>& nets) {
  const auto rows = net_rows(t, cfg);
  std::uint64_t total =
      rows_of(t, cfg) * reference::net_flops(*nets[0], rows[0]);
  if (nets.size() > 1) total += reference::net_flops(*nets[1], rows[1]);
  return total;
}

/// Forward FLOPs per sample of each type at the default frame, sequence,
/// history and bin sizes.
std::uint64_t known_flops(ModelType t) {
  switch (t) {
    case ModelType::Linear: return 184'528;
    case ModelType::Memory: return 185'296;
    case ModelType::Conv3d: return 292'288;
    case ModelType::Categorical: return 188'752;
    case ModelType::Inferred: return 41'032;
    case ModelType::Rnn: return 651'248;
  }
  return 0;
}

// The count is the model's from construction: it does not wait for a
// forward, and a bundle load or an int8 swap keeps it.
TEST_P(ZooReference, FlopsCountEveryEncoderRowAndTheHead) {
  const ModelType t = GetParam();
  const ModelConfig cfg = reference_config();
  const std::uint64_t want = known_flops(t);
  auto model = make_model(t, cfg);
  EXPECT_EQ(model->flops_per_sample(), want) << "fresh";
  EXPECT_EQ(reference_flops(t, cfg, model->mutable_nets()), want);

  const auto samples = noise_samples(4, cfg, 5);
  model->predict(samples[0]);
  EXPECT_EQ(model->flops_per_sample(), want) << "after a predict";

  std::stringstream bundle;
  save_model_bundle(bundle, *model, cfg);
  const LoadedModelBundle loaded = load_model_bundle(bundle);
  EXPECT_EQ(loaded.model->flops_per_sample(), want) << "bundle-loaded";

  const auto int8 = quantize_model(*model, cfg, samples);
  EXPECT_EQ(int8->flops_per_sample(), want) << "int8 twin";
  EXPECT_EQ(reference_flops(t, cfg, int8->inner().mutable_nets()), want);
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, ZooReference, ::testing::ValuesIn(all_model_types()),
    [](const ::testing::TestParamInfo<ModelType>& info) {
      std::string name = to_string(info.param);
      if (name == "3d") name = "conv3d";
      return name;
    });

}  // namespace
}  // namespace autolearn::ml
