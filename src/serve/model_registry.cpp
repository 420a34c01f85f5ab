#include "serve/model_registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "ml/plan.hpp"

namespace autolearn::serve {

void ModelRegistry::set_plan_batch(std::size_t max_batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan_batch_ = max_batch;
  }
  // Compile the already-published model too (e.g. after warm_start), so
  // its first served batch does not compile lazily at another cap.
  const auto snap = current();
  if (snap) compile_model(*snap->model, "set_plan_batch");
}

std::size_t ModelRegistry::plan_batch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_batch_;
}

void ModelRegistry::compile_model(ml::DrivingModel& model,
                                  const char* reason) {
  std::size_t cap = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cap = plan_batch_;
  }
  if (cap == 0) return;
  // attach_plan is idempotent for a matching cap; skip the observability
  // emit when nothing was actually compiled (e.g. republishing a shared
  // model into several replicas, or one whose first predict compiled it).
  ml::CompiledModel* before = model.plan();
  if (before != nullptr && before->max_batch() == cap) {
    if (metrics_) before->instrument(metrics_);
    return;
  }
  if (!model.attach_plan(cap)) return;  // model type has no compiled path
  ml::CompiledModel* plan = model.plan();
  if (plan == nullptr) return;
  const ml::PlanStats stats = plan->stats();
  if (metrics_) {
    plan->instrument(metrics_);
    metrics_->counter("serve.plan.compiles").inc();
    metrics_->gauge("serve.plan.steps")
        .set(static_cast<double>(stats.steps));
    metrics_->gauge("serve.plan.arena_floats")
        .set(static_cast<double>(stats.arena_floats));
    metrics_->gauge("serve.plan.fused_activations")
        .set(static_cast<double>(stats.fused_activations));
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("model", util::Json(std::string(model.type_name())));
    args.set("max_batch", util::Json(cap));
    args.set("steps", util::Json(stats.steps));
    args.set("arena_floats", util::Json(stats.arena_floats));
    args.set("naive_floats", util::Json(stats.naive_floats));
    args.set("fused", util::Json(stats.fused_activations));
    args.set("reason", util::Json(std::string(reason)));
    if (!label_.empty()) args.set("registry", util::Json(label_));
    tracer_->instant("plan.compile", "serve", std::move(args));
  }
}

std::uint64_t ModelRegistry::publish(std::shared_ptr<ml::DrivingModel> model,
                                     std::string tag) {
  if (!model) {
    throw std::invalid_argument("ModelRegistry::publish: null model");
  }
  compile_model(*model, "publish");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->model = std::move(model);
  snap->tag = std::move(tag);
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap->version = next_version_++;
    snapshot_ = std::move(snap);
  }
  const auto current = this->current();
  if (metrics_) metrics_->counter("serve.model.publishes").inc();
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("version", util::Json(current->version));
    args.set("tag", util::Json(current->tag));
    args.set("model", util::Json(std::string(current->model->type_name())));
    if (!label_.empty()) args.set("registry", util::Json(label_));
    tracer_->instant("serve.model_swap", "serve", std::move(args));
  }
  return current->version;
}

void ModelRegistry::adopt(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (!snapshot || !snapshot->model) {
    throw std::invalid_argument("ModelRegistry::adopt: null snapshot");
  }
  // Level the plan too: the donor normally compiled it already (attach is
  // an idempotent no-op then), but an adopter with plans enabled must not
  // serve an interpreted model.
  compile_model(*snapshot->model, "adopt");
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = snapshot;
    if (next_version_ <= snapshot->version) {
      next_version_ = snapshot->version + 1;
    }
  }
  if (metrics_) metrics_->counter("serve.model.adoptions").inc();
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("version", util::Json(snapshot->version));
    args.set("tag", util::Json(snapshot->tag));
    args.set("model", util::Json(std::string(snapshot->model->type_name())));
    if (!label_.empty()) args.set("registry", util::Json(label_));
    tracer_->instant("serve.model_adopt", "serve", std::move(args));
  }
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

std::uint64_t ModelRegistry::version() const {
  const auto snap = current();
  return snap ? snap->version : 0;
}

std::size_t ModelRegistry::swaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_version_ > 2 ? static_cast<std::size_t>(next_version_ - 2) : 0;
}

std::optional<std::uint64_t> ModelRegistry::checkpoint_current(
    ckpt::CheckpointStore& store, const std::string& key,
    const ml::ModelConfig& config) {
  const auto snap = current();
  if (!snap) return std::nullopt;
  std::ostringstream bundle;
  ml::save_model_bundle(bundle, *snap->model, config);
  ckpt::CheckpointInfo info;
  info.epoch = snap->version;
  info.seed = config.seed;
  info.note = std::string("model-bundle:") + snap->model->type_name();
  return store.save(key, bundle.str(), info);
}

std::optional<std::uint64_t> ModelRegistry::warm_start(
    ckpt::CheckpointStore& store, const std::string& key) {
  auto loaded = store.load_latest(key);
  if (!loaded) return std::nullopt;
  std::istringstream bundle(loaded->payload);
  ml::LoadedModelBundle restored = ml::load_model_bundle(bundle);
  return publish(std::move(restored.model),
                 "warm-start:gen-" +
                     std::to_string(loaded->generation.generation));
}

}  // namespace autolearn::serve
