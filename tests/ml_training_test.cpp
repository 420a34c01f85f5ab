// Loss, optimizer, sequential container, and whole-model training tests:
// every one of the six DonkeyCar model types must actually learn a
// synthetic steering task.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "ml/driving_model.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"
#include "ml/sequential.hpp"
#include "ml/trainer.hpp"
#include "objectstore/objectstore.hpp"
#include "util/binio.hpp"

namespace autolearn::ml {
namespace {

// --- losses ---------------------------------------------------------------

TEST(MseLoss, KnownValue) {
  Tensor pred({2, 1});
  Tensor target({2, 1});
  pred[0] = 1.0f;
  pred[1] = 3.0f;
  target[0] = 0.0f;
  target[1] = 1.0f;
  auto [loss, grad] = mse_loss(pred, target);
  EXPECT_NEAR(loss, (1.0 + 4.0) / 2, 1e-6);
  EXPECT_NEAR(grad[0], 2.0 * 1.0 / 2, 1e-6);
  EXPECT_NEAR(grad[1], 2.0 * 2.0 / 2, 1e-6);
}

TEST(MseLoss, ZeroWhenEqual) {
  Tensor a({3}, 2.0f);
  auto [loss, grad] = mse_loss(a, a);
  EXPECT_EQ(loss, 0.0);
  for (std::size_t i = 0; i < grad.size(); ++i) EXPECT_EQ(grad[i], 0.0f);
}

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  Tensor logits({4, 5});  // all zeros -> uniform over 5 classes
  Tensor grad(logits.shape());
  const double loss =
      softmax_xent_slice(logits, 0, 5, {0, 1, 2, 3}, grad);
  EXPECT_NEAR(loss, std::log(5.0), 1e-6);
}

TEST(SoftmaxXent, ConfidentCorrectIsLowLoss) {
  Tensor logits({1, 3});
  logits.at(0, 1) = 10.0f;
  Tensor grad(logits.shape());
  const double loss = softmax_xent_slice(logits, 0, 3, {1}, grad);
  EXPECT_LT(loss, 0.01);
}

TEST(SoftmaxXent, GradientSumsToZeroPerRow) {
  util::Rng rng(3);
  Tensor logits = Tensor::randn({3, 6}, rng, 1.0);
  Tensor grad(logits.shape());
  softmax_xent_slice(logits, 0, 6, {2, 0, 5}, grad);
  for (std::size_t i = 0; i < 3; ++i) {
    double sum = 0;
    for (std::size_t c = 0; c < 6; ++c) sum += grad.at(i, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);  // softmax grad rows sum to zero
  }
}

TEST(SoftmaxXent, SliceLeavesOtherColumnsUntouched) {
  Tensor logits({2, 8});
  Tensor grad(logits.shape());
  softmax_xent_slice(logits, 3, 8, {0, 4}, grad);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(grad.at(i, c), 0.0f);
  }
}

TEST(SoftmaxXent, Validation) {
  Tensor logits({2, 4});
  Tensor grad(logits.shape());
  EXPECT_THROW(softmax_xent_slice(logits, 0, 5, {0, 1}, grad),
               std::invalid_argument);
  EXPECT_THROW(softmax_xent_slice(logits, 0, 4, {0}, grad),
               std::invalid_argument);
  EXPECT_THROW(softmax_xent_slice(logits, 0, 4, {0, 9}, grad),
               std::invalid_argument);
}

TEST(SoftmaxRow, SumsToOne) {
  util::Rng rng(4);
  Tensor logits = Tensor::randn({2, 7}, rng, 2.0);
  std::vector<float> p(7);
  softmax_row(logits.data() + 7, 7, p.data());  // row 1
  double sum = 0;
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

// --- optimizers -------------------------------------------------------------

TEST(Optimizers, SgdMinimizesQuadratic) {
  // Minimize f(w) = (w - 3)^2 by hand-feeding gradients.
  Param w(Tensor({1}, 0.0f));
  SGD opt(0.1, 0.0);
  for (int i = 0; i < 200; ++i) {
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    std::vector<Param*> ps{&w};
    opt.step(ps);
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-3);
}

TEST(Optimizers, MomentumAcceleratesConvergence) {
  auto solve = [](double momentum) {
    Param w(Tensor({1}, 0.0f));
    SGD opt(0.01, momentum);
    int steps = 0;
    while (std::abs(w.value[0] - 3.0f) > 0.01f && steps < 10000) {
      w.grad[0] = 2.0f * (w.value[0] - 3.0f);
      std::vector<Param*> ps{&w};
      opt.step(ps);
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(solve(0.9), solve(0.0));
}

TEST(Optimizers, AdamMinimizesQuadratic) {
  Param w(Tensor({2}, 5.0f));
  Adam opt(0.05);
  for (int i = 0; i < 500; ++i) {
    w.grad[0] = 2.0f * (w.value[0] - 1.0f);
    w.grad[1] = 2.0f * (w.value[1] + 2.0f);
    std::vector<Param*> ps{&w};
    opt.step(ps);
  }
  EXPECT_NEAR(w.value[0], 1.0f, 0.05);
  EXPECT_NEAR(w.value[1], -2.0f, 0.05);
}

TEST(Optimizers, StepZeroesGradients) {
  Param w(Tensor({1}, 0.0f));
  Adam opt(0.01);
  w.grad[0] = 1.0f;
  std::vector<Param*> ps{&w};
  opt.step(ps);
  EXPECT_EQ(w.grad[0], 0.0f);
}

TEST(Optimizers, Validation) {
  EXPECT_THROW(SGD(0.0), std::invalid_argument);
  EXPECT_THROW(SGD(0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(Adam(-1.0), std::invalid_argument);
  // NaN fails every ordered comparison, so each check must be written to
  // accept only in-range values; an infinite step is no step either.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SGD{nan}, std::invalid_argument);
  EXPECT_THROW(SGD{inf}, std::invalid_argument);
  EXPECT_THROW(SGD(0.1, nan), std::invalid_argument);
  EXPECT_THROW(Adam{nan}, std::invalid_argument);
  EXPECT_THROW(Adam{inf}, std::invalid_argument);
}

// --- sequential ---------------------------------------------------------------

TEST(Sequential, LearnsXorLikeFunction) {
  // Regression target: y = x0 * x1 on [-1,1]^2 — nonlinear, needs hidden
  // layer.
  util::Rng rng(11);
  Sequential net;
  net.add<Dense>(2, 16, rng);
  net.add<ReLU>();
  net.add<Dense>(16, 1, rng);
  Adam opt(0.01);
  util::Rng data_rng(12);
  double final_loss = 1e9;
  for (int iter = 0; iter < 600; ++iter) {
    Tensor x({32, 2});
    Tensor y({32, 1});
    for (std::size_t i = 0; i < 32; ++i) {
      const float a = static_cast<float>(data_rng.uniform(-1, 1));
      const float b = static_cast<float>(data_rng.uniform(-1, 1));
      x.at(i, 0) = a;
      x.at(i, 1) = b;
      y.at(i, 0) = a * b;
    }
    const Tensor pred = net.forward(x, true);
    auto [loss, grad] = mse_loss(pred, y);
    net.backward(grad);
    opt.step(net.params());
    final_loss = loss;
  }
  EXPECT_LT(final_loss, 0.02);
}

TEST(Sequential, ParamCountMatchesArchitecture) {
  util::Rng rng(13);
  Sequential net;
  net.add<Dense>(10, 5, rng);
  net.add<ReLU>();
  net.add<Dense>(5, 2, rng);
  EXPECT_EQ(net.num_parameters(), 10u * 5 + 5 + 5 * 2 + 2);
  EXPECT_EQ(net.num_layers(), 3u);
}

TEST(Sequential, SaveLoadRoundTrip) {
  util::Rng rng(14);
  Sequential a;
  a.add<Dense>(4, 3, rng);
  a.add<Tanh>();
  a.add<Dense>(3, 2, rng);
  std::stringstream buf;
  a.save_params(buf);

  util::Rng rng2(999);  // different init
  Sequential b;
  b.add<Dense>(4, 3, rng2);
  b.add<Tanh>();
  b.add<Dense>(3, 2, rng2);
  b.load_params(buf);

  util::Rng data_rng(15);
  const Tensor x = Tensor::randn({3, 4}, data_rng, 1.0);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Sequential, LoadRejectsMismatchedCheckpoint) {
  util::Rng rng(16);
  Sequential a;
  a.add<Dense>(4, 3, rng);
  std::stringstream buf;
  a.save_params(buf);
  Sequential b;
  b.add<Dense>(5, 3, rng);
  EXPECT_THROW(b.load_params(buf), std::runtime_error);
}

TEST(Sequential, LoadReportsShapeMismatch) {
  util::Rng rng(17);
  Sequential a;
  a.add<Dense>(4, 3, rng);
  std::stringstream buf;
  a.save_params(buf);
  Sequential b;
  b.add<Dense>(5, 3, rng);
  try {
    b.load_params(buf);
    FAIL() << "mismatched shapes loaded";
  } catch (const ModelLoadError& e) {
    EXPECT_EQ(e.code(), ModelLoadError::Code::ShapeMismatch);
  }
}

TEST(Sequential, LoadReportsLayerCountMismatch) {
  util::Rng rng(18);
  Sequential a;
  a.add<Dense>(4, 3, rng);
  a.add<Tanh>();
  a.add<Dense>(3, 2, rng);
  std::stringstream buf;
  a.save_params(buf);
  Sequential b;
  b.add<Dense>(4, 3, rng);
  try {
    b.load_params(buf);
    FAIL() << "wrong architecture loaded";
  } catch (const ModelLoadError& e) {
    EXPECT_EQ(e.code(), ModelLoadError::Code::LayerCountMismatch);
  }
}

TEST(Sequential, TruncatedStreamLeavesTheTargetUntouched) {
  util::Rng rng(19);
  Sequential a;
  a.add<Dense>(4, 3, rng);
  a.add<Dense>(3, 2, rng);
  std::stringstream buf;
  a.save_params(buf);
  const std::string bytes = buf.str();

  util::Rng rng2(20);
  Sequential b;
  b.add<Dense>(4, 3, rng2);
  b.add<Dense>(3, 2, rng2);
  util::Rng probe_rng(21);
  const Tensor x = Tensor::randn({2, 4}, probe_rng, 1.0);
  const Tensor before = b.forward(x, false);

  // The load is transactional: a failed validation must not have copied
  // any tensor into the target network.
  auto expect_untouched = [&] {
    const Tensor after = b.forward(x, false);
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(before[i], after[i]);
    }
  };
  // Every proper prefix fails with ModelLoadError, never another exception.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::istringstream cut(bytes.substr(0, n));
    EXPECT_THROW(b.load_params(cut), ModelLoadError) << n << " bytes";
    expect_untouched();
  }
  std::istringstream cut(bytes.substr(0, bytes.size() / 2));
  try {
    b.load_params(cut);
    FAIL() << "truncated stream loaded";
  } catch (const ModelLoadError& e) {
    EXPECT_EQ(e.code(), ModelLoadError::Code::Truncated);
  }
  expect_untouched();
  // The first tensor's u32 rank (after the magic and the u64 tensor count)
  // claiming 2^32 - 1 dimensions is a truncation, not a 32 GiB allocation.
  std::string huge = bytes;
  const std::uint32_t claim = 0xffffffffu;
  std::memcpy(huge.data() + 4 + 8, &claim, sizeof claim);
  std::istringstream huge_rank(huge);
  try {
    b.load_params(huge_rank);
    FAIL() << "2^32-1 rank loaded";
  } catch (const ModelLoadError& e) {
    EXPECT_EQ(e.code(), ModelLoadError::Code::Truncated);
  }
  expect_untouched();
}

TEST(Sequential, LoadRejectsForeignBytes) {
  util::Rng rng(22);
  Sequential b;
  b.add<Dense>(4, 3, rng);
  std::istringstream junk("these are not network parameters");
  try {
    b.load_params(junk);
    FAIL() << "junk loaded";
  } catch (const ModelLoadError& e) {
    EXPECT_EQ(e.code(), ModelLoadError::Code::BadHeader);
  }
}

// --- the six driving models ----------------------------------------------------

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  return cfg;
}

/// Synthetic steering task: a bright vertical band whose column position
/// encodes the steering label.
std::vector<Sample> synthetic_dataset(std::size_t n, const ModelConfig& cfg,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(cfg.img_w) - 3));
    camera::Image img(cfg.img_w, cfg.img_h, 0.1f);
    for (std::size_t y = 0; y < cfg.img_h; ++y) {
      for (std::size_t dx = 0; dx < 3; ++dx) {
        img.at(col - 1 + dx, y) = 0.9f;
      }
    }
    Sample s;
    // Sequence models get identical stacked frames; that is fine for a
    // static task.
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

TEST(ModelFactory, NamesRoundTrip) {
  for (ModelType t : all_model_types()) {
    EXPECT_EQ(model_type_from_string(to_string(t)), t);
  }
  EXPECT_THROW(model_type_from_string("resnet"), std::invalid_argument);
  EXPECT_EQ(all_model_types().size(), 6u);
}

TEST(ModelFactory, AllSixConstruct) {
  for (ModelType t : all_model_types()) {
    auto m = make_model(t, tiny_config());
    EXPECT_GT(m->num_parameters(), 100u) << m->type_name();
    EXPECT_EQ(m->type(), t);
  }
}

TEST(Models, InferredIsSmallest) {
  const ModelConfig cfg = tiny_config();
  auto inferred = make_model(ModelType::Inferred, cfg);
  for (ModelType t : all_model_types()) {
    if (t == ModelType::Inferred) continue;
    auto other = make_model(t, cfg);
    EXPECT_LT(inferred->num_parameters(), other->num_parameters())
        << to_string(t);
  }
}

TEST(Models, PredictionsInRange) {
  const ModelConfig cfg = tiny_config();
  const auto data = synthetic_dataset(4, cfg, 21);
  for (ModelType t : all_model_types()) {
    auto m = make_model(t, cfg);
    const Prediction p = m->predict(data[0]);
    EXPECT_GE(p.steering, -1.0) << m->type_name();
    EXPECT_LE(p.steering, 1.0) << m->type_name();
    EXPECT_GE(p.throttle, 0.0) << m->type_name();
    EXPECT_LE(p.throttle, 1.0) << m->type_name();
  }
}

TEST(Models, MakeModelRejectsConfigsItCannotRun) {
  // A categorical head of one bin unbins to 0/0 (a NaN command), and one
  // of zero bins cannot train; an rnn of zero frames cannot compile its
  // plan. make_model refuses all of them up front, as load_model_bundle
  // does.
  for (const auto& [steering_bins, throttle_bins] :
       {std::pair<std::size_t, std::size_t>{1, 20}, {0, 20}, {15, 1},
        {15, 0}}) {
    ModelConfig cfg = tiny_config();
    cfg.steering_bins = steering_bins;
    cfg.throttle_bins = throttle_bins;
    EXPECT_THROW(make_model(ModelType::Categorical, cfg),
                 std::invalid_argument)
        << steering_bins << "/" << throttle_bins << " bins";
  }
  ModelConfig rnn = tiny_config();
  rnn.seq_len = 0;
  EXPECT_THROW(make_model(ModelType::Rnn, rnn), std::invalid_argument);

  // The smallest configs they accept still predict finite commands.
  ModelConfig two_bins = tiny_config();
  two_bins.steering_bins = 2;
  two_bins.throttle_bins = 2;
  rnn.seq_len = 1;
  const auto data = synthetic_dataset(2, tiny_config(), 44);
  for (auto& m : {make_model(ModelType::Categorical, two_bins),
                  make_model(ModelType::Rnn, rnn)}) {
    const Prediction p = m->predict(data[0]);
    EXPECT_TRUE(std::isfinite(p.steering)) << m->type_name();
    EXPECT_TRUE(std::isfinite(p.throttle)) << m->type_name();
  }
}

class ModelLearningTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(ModelLearningTest, LearnsSyntheticSteering) {
  const ModelConfig cfg = tiny_config();
  auto model = make_model(GetParam(), cfg);
  const auto train = synthetic_dataset(300, cfg, 31);
  const auto val = synthetic_dataset(60, cfg, 32);

  const double mae_before = steering_mae(*model, val);
  TrainOptions opt;
  opt.epochs = 8;
  opt.batch_size = 32;
  const TrainResult result = fit(*model, train, val, opt);
  const double mae_after = steering_mae(*model, val);

  EXPECT_LT(mae_after, mae_before * 0.6) << to_string(GetParam());
  EXPECT_LT(mae_after, 0.25) << to_string(GetParam());
  EXPECT_EQ(result.epochs_run, 8u);
  EXPECT_EQ(result.samples_seen, 300u * 8);
  EXPECT_GT(result.forward_flops, 0u);
  // Loss must broadly decrease.
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, ModelLearningTest, ::testing::ValuesIn(all_model_types()),
    [](const ::testing::TestParamInfo<ModelType>& info) {
      std::string name = to_string(info.param);
      if (name == "3d") name = "conv3d";
      return name;
    });

TEST(Models, SaveLoadPreservesPredictions) {
  const ModelConfig cfg = tiny_config();
  const auto data = synthetic_dataset(40, cfg, 41);
  for (ModelType t : all_model_types()) {
    auto m = make_model(t, cfg);
    TrainOptions opt;
    opt.epochs = 1;
    fit(*m, data, {}, opt);
    std::stringstream buf;
    m->save(buf);
    ModelConfig cfg2 = cfg;
    cfg2.seed = 777;  // different init must be fully overwritten by load
    auto m2 = make_model(t, cfg2);
    m2->load(buf);
    for (int i = 0; i < 5; ++i) {
      const Prediction a = m->predict(data[static_cast<std::size_t>(i)]);
      const Prediction b = m2->predict(data[static_cast<std::size_t>(i)]);
      EXPECT_NEAR(a.steering, b.steering, 1e-6) << to_string(t);
      EXPECT_NEAR(a.throttle, b.throttle, 1e-6) << to_string(t);
    }
  }
}

TEST(Models, LoadFullRejectsOptimizerSlotsThatDoNotFitTheModel) {
  const ModelConfig cfg = tiny_config();
  const auto data = synthetic_dataset(4, cfg, 43);
  std::vector<const Sample*> batch;
  for (const Sample& s : data) batch.push_back(&s);
  auto trained = make_model(ModelType::Linear, cfg);
  trained->train_batch(batch);  // populates the Adam moments

  // save_full is the parameters, the layer states, Adam (step counter,
  // then the m and v slot lists) and the model RNG state. Keep the rest
  // and forge the Adam section.
  std::ostringstream head;
  trained->save(head);
  std::vector<Param*> params;
  for (Sequential* s : trained->mutable_nets()) {
    s->save_state(head);
    for (Param* p : s->params()) params.push_back(p);
  }
  std::ostringstream rng_state;
  util::write_rng_state(rng_state, util::RngState{});
  std::ostringstream full;
  trained->save_full(full);
  const std::string tail =
      full.str().substr(full.str().size() - rng_state.str().size());
  auto forge = [&](std::size_t slots, std::size_t extra) {
    std::ostringstream os;
    os << head.str();
    util::write_pod(os, std::uint64_t{1});
    for (int moment = 0; moment < 2; ++moment) {
      util::write_pod(os, static_cast<std::uint64_t>(slots));
      for (std::size_t i = 0; i < slots; ++i) {
        const std::size_t n =
            params[i % params.size()]->value.size() + (i == 0 ? extra : 0);
        util::write_pod(os, static_cast<std::uint64_t>(n));
        const std::vector<float> zeros(n, 0.0f);
        util::write_f32_span(os, zeros.data(), n);
      }
    }
    os << tail;
    return os.str();
  };

  // Well-formed slots load: a fresh optimizer (no slots) and a full set.
  for (const std::size_t slots : {std::size_t{0}, params.size()}) {
    auto target = make_model(ModelType::Linear, cfg);
    std::istringstream is(forge(slots, 0));
    EXPECT_NO_THROW(target->load_full(is)) << slots << " slots";
  }
  // A slot longer than its parameter, one slot too few, one too many.
  const std::pair<std::size_t, std::size_t> bad[] = {
      {params.size(), 4096}, {params.size() - 1, 0}, {params.size() + 1, 0}};
  for (const auto& [slots, extra] : bad) {
    auto target = make_model(ModelType::Linear, cfg);
    std::istringstream is(forge(slots, extra));
    try {
      target->load_full(is);
      target->train_batch(batch);  // Adam::step would index past the param
      FAIL() << slots << " slots, +" << extra << " loaded";
    } catch (const ModelLoadError& e) {
      EXPECT_EQ(e.code(), ModelLoadError::Code::ShapeMismatch);
    }
  }
}

// --- model bundles ----------------------------------------------------------

/// A bundle as save_model_bundle writes it for a `type` model built from
/// the default config, with `header` written as its config.
std::string bundle_with_header(ModelType type, const ModelConfig& header) {
  const auto model = make_model(type, ModelConfig{});
  std::ostringstream os;
  save_model_bundle(os, *model, header);
  return os.str();
}

TEST(ModelBundle, InBoundsConfigsRoundTrip) {
  // The default config, and the largest frame a bench trains (64x48).
  ModelConfig wide;
  wide.img_w = 64;
  wide.img_h = 48;
  for (const ModelConfig& cfg : {ModelConfig{}, wide}) {
    for (ModelType t : all_model_types()) {
      const auto model = make_model(t, cfg);
      std::stringstream buf;
      save_model_bundle(buf, *model, cfg);
      const LoadedModelBundle loaded = load_model_bundle(buf);
      EXPECT_EQ(loaded.model->type(), t);
      EXPECT_EQ(loaded.config.img_w, cfg.img_w);
      EXPECT_EQ(loaded.config.img_h, cfg.img_h);
      EXPECT_EQ(loaded.model->num_parameters(), model->num_parameters());
    }
  }
}

TEST(ModelBundle, ForgedConfigIsATypedError) {
  struct Case {
    const char* what;
    ModelType type;
    ModelConfig header;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* what, ModelType type, auto forge) {
    ModelConfig header;
    forge(header);
    cases.push_back({what, type, header});
  };
  // Each of the first three escaped as an untyped exception from
  // make_model: std::bad_alloc, then std::invalid_argument twice.
  add("2^20 x 2^20 frame", ModelType::Linear, [](ModelConfig& c) {
    c.img_w = c.img_h = std::size_t{1} << 20;
  });
  add("2 x 2 frame", ModelType::Linear,
      [](ModelConfig& c) { c.img_w = c.img_h = 2; });
  add("3d with seq_len 1", ModelType::Conv3d,
      [](ModelConfig& c) { c.seq_len = 1; });
  add("zero-width frame", ModelType::Inferred,
      [](ModelConfig& c) { c.img_w = 0; });
  add("65-row frame", ModelType::Linear, [](ModelConfig& c) { c.img_h = 65; });
  add("seq_len 9", ModelType::Rnn, [](ModelConfig& c) { c.seq_len = 9; });
  add("history_len 9", ModelType::Memory,
      [](ModelConfig& c) { c.history_len = 9; });
  add("one steering bin", ModelType::Categorical,
      [](ModelConfig& c) { c.steering_bins = 1; });
  add("2^40 throttle bins", ModelType::Categorical,
      [](ModelConfig& c) { c.throttle_bins = std::size_t{1} << 40; });
  add("dropout 1", ModelType::Linear, [](ModelConfig& c) { c.dropout = 1.0; });
  // A non-finite lr, dropout or throttle policy makes the model predict
  // NaN after one train_batch (an infinite gain once |steer| = 1).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  add("lr NaN", ModelType::Rnn, [&](ModelConfig& c) { c.lr = nan; });
  add("lr inf", ModelType::Linear, [&](ModelConfig& c) { c.lr = inf; });
  add("dropout NaN", ModelType::Linear,
      [&](ModelConfig& c) { c.dropout = nan; });
  add("inferred throttle base NaN", ModelType::Inferred,
      [&](ModelConfig& c) { c.inferred_throttle_base = nan; });
  add("inferred throttle gain inf", ModelType::Inferred,
      [&](ModelConfig& c) { c.inferred_throttle_gain = inf; });

  for (const Case& c : cases) {
    std::istringstream is(bundle_with_header(c.type, c.header));
    try {
      load_model_bundle(is);
      ADD_FAILURE() << c.what << ": loaded";
    } catch (const ModelLoadError& e) {
      EXPECT_EQ(e.code(), ModelLoadError::Code::BadHeader) << c.what;
    }
  }
}

TEST(Trainer, EarlyStoppingStops) {
  // A high learning rate converges fast and then oscillates around the
  // optimum, so validation loss stops improving and patience kicks in.
  ModelConfig cfg = tiny_config();
  cfg.lr = 0.02;
  auto model = make_model(ModelType::Inferred, cfg);
  const auto train = synthetic_dataset(60, cfg, 51);
  TrainOptions opt;
  opt.epochs = 200;
  opt.early_stop_patience = 3;
  const TrainResult r = fit(*model, train, train, opt);
  EXPECT_LT(r.epochs_run, 200u);
}

TEST(Trainer, Validation) {
  const ModelConfig cfg = tiny_config();
  auto model = make_model(ModelType::Linear, cfg);
  TrainOptions opt;
  EXPECT_THROW(fit(*model, {}, {}, opt), std::invalid_argument);
  opt.batch_size = 0;
  const auto data = synthetic_dataset(4, cfg, 61);
  EXPECT_THROW(fit(*model, data, {}, opt), std::invalid_argument);
}

TEST(Trainer, RestoreBestRecoversBestEpochWeights) {
  // Train long with a large learning rate: late epochs oscillate, so the
  // final weights are typically not the best ones. restore_best must put
  // the model back at the best-val-loss epoch.
  ModelConfig cfg = tiny_config();
  cfg.lr = 0.02;
  auto model = make_model(ModelType::Inferred, cfg);
  const auto train = synthetic_dataset(120, cfg, 81);
  const auto val = synthetic_dataset(40, cfg, 82);
  TrainOptions opt;
  opt.epochs = 25;
  opt.restore_best = true;
  const TrainResult r = fit(*model, train, val, opt);
  const double final_val = evaluate_loss(*model, val);
  // The restored model evaluates at (approximately) the recorded best.
  EXPECT_NEAR(final_val, r.best_val_loss, 1e-6);
}

TEST(Trainer, SaveBestPersistsBestModelSeparatelyFromLatest) {
  // Same oscillating regime as the restore_best test: validation improves
  // early, then regresses, so <key>.best must hold an older (better) model
  // than the final weights.
  ModelConfig cfg = tiny_config();
  cfg.lr = 0.02;
  auto model = make_model(ModelType::Inferred, cfg);
  const auto train = synthetic_dataset(120, cfg, 81);
  const auto val = synthetic_dataset(40, cfg, 82);

  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);
  TrainOptions opt;
  opt.epochs = 25;
  opt.save_best = true;
  opt.checkpoint_store = &store;
  opt.checkpoint_key = "t";
  const TrainResult r = fit(*model, train, val, opt);

  // The run must actually regress after its best epoch, or this test
  // proves nothing.
  ASSERT_GT(r.history.back().val_loss, r.best_val_loss);

  const auto best = store.load_latest("t.best");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->generation.info.note, "best-model");
  EXPECT_NEAR(best->generation.info.metrics.at("val_loss"), r.best_val_loss,
              1e-9);

  // The persisted best is a loadable model whose val loss is the recorded
  // best — not the regressed final weights.
  auto reloaded = make_model(ModelType::Inferred, cfg);
  std::istringstream is(best->payload);
  reloaded->load(is);
  EXPECT_NEAR(evaluate_loss(*reloaded, val), r.best_val_loss, 1e-6);
  EXPECT_GT(evaluate_loss(*model, val), r.best_val_loss);

  // And it is distinct from the latest full-trainer checkpoint.
  const auto latest = store.load_latest("t");
  ASSERT_TRUE(latest.has_value());
  EXPECT_NE(latest->payload, best->payload);
  EXPECT_EQ(latest->generation.info.note, "ml.trainer");
}

TEST(Trainer, EvaluateLossEmptyDataIsZero) {
  const ModelConfig cfg = tiny_config();
  auto model = make_model(ModelType::Linear, cfg);
  EXPECT_EQ(evaluate_loss(*model, {}), 0.0);
  EXPECT_EQ(steering_mae(*model, {}), 0.0);
}

TEST(Models, InferredThrottlePolicyFastWhenStraight) {
  const ModelConfig cfg = tiny_config();
  auto m = make_model(ModelType::Inferred, cfg);
  const auto train = synthetic_dataset(300, cfg, 71);
  TrainOptions opt;
  opt.epochs = 6;
  fit(*m, train, {}, opt);
  // A centered band (steering ~0) should produce higher throttle than an
  // extreme band (steering ~±1).
  const auto data = synthetic_dataset(200, cfg, 72);
  double straight_throttle = 0, corner_throttle = 1;
  for (const Sample& s : data) {
    const Prediction p = m->predict(s);
    if (std::abs(s.steering) < 0.2) {
      straight_throttle = std::max(straight_throttle, p.throttle);
    }
    if (std::abs(s.steering) > 0.8) {
      corner_throttle = std::min(corner_throttle, p.throttle);
    }
  }
  EXPECT_GT(straight_throttle, corner_throttle);
}

}  // namespace
}  // namespace autolearn::ml
