#include "serve/replication.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "serve/errors.hpp"

namespace autolearn::serve {

void CanaryOptions::check(ConfigIssues& out) const {
  if (canary_shards == 0) {
    out.emplace_back("canary.canary_shards", "must be >= 1");
  }
  if (max_steering_drift < 0.0) {
    out.emplace_back("canary.max_steering_drift", "must be >= 0");
  }
  if (max_error_rate < 0.0 || max_error_rate > 1.0) {
    out.emplace_back("canary.max_error_rate", "must be in [0, 1]");
  }
  if (bake_s < 0.0) {
    out.emplace_back("canary.bake_s", "must be >= 0");
  }
}

ReplicatedRegistry::ReplicatedRegistry(std::size_t shards) {
  if (shards == 0) {
    throw ConfigError("replication.shards", "must be >= 1");
  }
  replicas_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    replicas_.push_back(std::make_unique<ModelRegistry>());
    replicas_.back()->set_label("shard-" + std::to_string(i));
  }
}

ModelRegistry& ReplicatedRegistry::shard(std::size_t index) {
  if (index >= replicas_.size()) {
    throw std::out_of_range("ReplicatedRegistry::shard: bad index");
  }
  return *replicas_[index];
}

const ModelRegistry& ReplicatedRegistry::shard(std::size_t index) const {
  if (index >= replicas_.size()) {
    throw std::out_of_range("ReplicatedRegistry::shard: bad index");
  }
  return *replicas_[index];
}

std::size_t ReplicatedRegistry::add_replica() {
  const std::size_t index = replicas_.size();
  replicas_.push_back(std::make_unique<ModelRegistry>());
  ModelRegistry& replica = *replicas_.back();
  replica.set_label("shard-" + std::to_string(index));
  replica.instrument(tracer_, metrics_);
  if (plan_batch_ > 0) replica.set_plan_batch(plan_batch_);
  level_replica(index);
  return index;
}

void ReplicatedRegistry::level_replica(std::size_t index) {
  if (index >= replicas_.size()) {
    throw std::out_of_range("ReplicatedRegistry::level_replica: bad index");
  }
  if (index == 0) return;
  const auto incumbent = replicas_[0]->current();
  if (!incumbent) return;
  const auto mine = replicas_[index]->current();
  if (mine && mine->version == incumbent->version &&
      mine->model == incumbent->model) {
    return;
  }
  replicas_[index]->adopt(incumbent);
}

void ReplicatedRegistry::instrument(obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  for (auto& r : replicas_) r->instrument(tracer, metrics);
}

void ReplicatedRegistry::set_plan_batch(std::size_t max_batch) {
  plan_batch_ = max_batch;
  for (auto& r : replicas_) r->set_plan_batch(max_batch);
}

std::uint64_t ReplicatedRegistry::publish_all(
    std::shared_ptr<ml::DrivingModel> model, std::string tag) {
  std::uint64_t version = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const std::uint64_t v = replicas_[i]->publish(model, tag);
    if (i == 0) {
      version = v;
    } else if (v != version) {
      throw std::logic_error(
          "ReplicatedRegistry::publish_all: replicas diverged (mix of "
          "canary and fleet-wide publishes?); shard 0 is at version " +
          std::to_string(version) + ", shard " + std::to_string(i) +
          " at " + std::to_string(v));
    }
  }
  return version;
}

std::shared_ptr<const CanaryOutcome> ReplicatedRegistry::publish_canary(
    std::shared_ptr<ml::DrivingModel> model, std::string tag,
    const CanaryOptions& options, std::vector<ml::Sample> probes,
    util::EventQueue* queue) {
  throw_first_issue(options);
  if (!model) {
    throw std::invalid_argument("publish_canary: null model");
  }
  if (probes.empty()) {
    throw ConfigError("canary.probes", "need at least one probe sample");
  }
  if (options.canary_shards >= replicas_.size()) {
    throw ConfigError("canary.canary_shards",
                      "slice must leave at least one non-canary shard");
  }
  const auto incumbent = replicas_[options.canary_shards]->current();
  if (!incumbent) {
    throw std::logic_error("publish_canary: no incumbent published");
  }

  auto outcome = std::make_shared<CanaryOutcome>();
  outcome->canary_shard_indices.reserve(options.canary_shards);
  for (std::size_t i = 0; i < options.canary_shards; ++i) {
    outcome->canary_version = replicas_[i]->publish(model, "canary:" + tag);
    outcome->canary_shard_indices.push_back(i);
  }
  if (metrics_) metrics_->counter("serve.canary.published").inc();
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("tag", util::Json(tag));
    args.set("slice", util::Json(options.canary_shards));
    args.set("version", util::Json(outcome->canary_version));
    tracer_->instant("serve.canary_publish", "serve", std::move(args));
  }

  if (options.bake_s > 0.0 && queue) {
    queue->schedule_in(options.bake_s,
                       [this, model, tag, options, probes, incumbent,
                        outcome]() mutable {
                         decide(std::move(model), std::move(tag), options,
                                std::move(probes), incumbent, outcome);
                       });
  } else {
    decide(std::move(model), std::move(tag), options, std::move(probes),
           incumbent, outcome);
  }
  return outcome;
}

void ReplicatedRegistry::decide(std::shared_ptr<ml::DrivingModel> model,
                                std::string tag, CanaryOptions options,
                                std::vector<ml::Sample> probes,
                                std::shared_ptr<ModelSnapshot const> incumbent,
                                std::shared_ptr<CanaryOutcome> outcome) {
  const std::size_t n = probes.size();
  std::vector<ml::Prediction> cand(n);
  std::vector<ml::Prediction> base(n);
  model->predict_batch(probes.data(), n, cand.data());
  incumbent->model->predict_batch(probes.data(), n, base.data());

  double drift = 0.0;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool finite = std::isfinite(cand[i].steering) &&
                        std::isfinite(cand[i].throttle);
    const bool in_range = finite && std::abs(cand[i].steering) <= 1.2 &&
                          cand[i].throttle >= -0.2 && cand[i].throttle <= 1.2;
    if (!in_range) {
      ++errors;
      continue;  // a broken command contributes to error rate, not drift
    }
    drift += std::abs(cand[i].steering - base[i].steering);
  }
  const std::size_t ok = n - errors;
  outcome->steering_drift = ok > 0 ? drift / static_cast<double>(ok) : 0.0;
  outcome->error_rate = static_cast<double>(errors) / static_cast<double>(n);
  outcome->decided = true;

  std::ostringstream reason;
  if (outcome->error_rate > options.max_error_rate) {
    reason << "error rate " << outcome->error_rate << " > "
           << options.max_error_rate;
  } else if (outcome->steering_drift > options.max_steering_drift) {
    reason << "steering drift " << outcome->steering_drift << " > "
           << options.max_steering_drift;
  }

  if (reason.str().empty()) {
    // Gate pass: the candidate goes fleet-wide.
    outcome->promoted = true;
    outcome->reason = "promoted";
    ++promotions_;
    for (std::size_t i = options.canary_shards; i < replicas_.size(); ++i) {
      replicas_[i]->publish(model, "promoted:" + tag);
    }
    if (metrics_) metrics_->counter("serve.canary.promoted").inc();
  } else {
    // Gate fail: the slice reverts to the incumbent model; the rest of
    // the fleet never served the candidate.
    outcome->rolled_back = true;
    outcome->reason = reason.str();
    ++rollbacks_;
    for (const std::size_t i : outcome->canary_shard_indices) {
      replicas_[i]->publish(incumbent->model, "rollback:" + tag);
    }
    if (metrics_) metrics_->counter("serve.canary.rolled_back").inc();
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("tag", util::Json(tag));
    args.set("promoted", util::Json(outcome->promoted));
    args.set("drift", util::Json(outcome->steering_drift));
    args.set("error_rate", util::Json(outcome->error_rate));
    args.set("reason", util::Json(outcome->reason));
    tracer_->instant("serve.canary_decision", "serve", std::move(args));
  }
}

}  // namespace autolearn::serve
