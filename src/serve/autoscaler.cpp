#include "serve/autoscaler.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace autolearn::serve {

void AutoScalerOptions::check(ConfigIssues& out) const {
  if (sample_interval_s <= 0.0) {
    out.emplace_back("autoscaler.sample_interval_s", "must be > 0");
  }
  if (queue_high <= 0.0 || queue_high > 1.0) {
    out.emplace_back("autoscaler.queue_high", "must be in (0, 1]");
  }
  if (queue_low < 0.0 || queue_low >= queue_high) {
    out.emplace_back("autoscaler.queue_low",
                     "must be in [0, queue_high)");
  }
  if (p99_high_s < 0.0) {
    out.emplace_back("autoscaler.p99_high_s", "must be >= 0");
  }
  if (p99_low_s < 0.0 || (p99_high_s > 0.0 && p99_low_s >= p99_high_s)) {
    out.emplace_back("autoscaler.p99_low_s",
                     "must be >= 0 and below p99_high_s");
  }
  if (shed_high < 0.0 || shed_high > 1.0) {
    out.emplace_back("autoscaler.shed_high", "must be in [0, 1]");
  }
  if (util_low < 0.0 || util_low > 1.0) {
    out.emplace_back("autoscaler.util_low", "must be in [0, 1]");
  }
  if (breach_samples == 0) {
    out.emplace_back("autoscaler.breach_samples", "must be >= 1");
  }
  if (idle_samples == 0) {
    out.emplace_back("autoscaler.idle_samples", "must be >= 1");
  }
  if (cooldown_s < 0.0) {
    out.emplace_back("autoscaler.cooldown_s", "must be >= 0");
  }
  if (min_shards == 0) {
    out.emplace_back("autoscaler.min_shards", "must be >= 1");
  }
  if (max_shards < min_shards) {
    out.emplace_back("autoscaler.max_shards", "must be >= min_shards");
  }
  if (step == 0) {
    out.emplace_back("autoscaler.step", "must be >= 1");
  }
}

AutoScaler::AutoScaler(util::EventQueue& queue, AutoScalerOptions options)
    : queue_(queue), options_(options) {
  throw_first_issue(options_);
}

void AutoScaler::start(double horizon_s) {
  if (started_) throw std::logic_error("AutoScaler::start: call once");
  if (!sampler_ || !resizer_) {
    throw std::logic_error("AutoScaler::start: sampler and resizer required");
  }
  started_ = true;
  horizon_s_ = horizon_s;
  schedule_next();
}

void AutoScaler::schedule_next() {
  const double next = queue_.now() + options_.sample_interval_s;
  if (next <= horizon_s_) {
    queue_.schedule_at(next, [this] {
      tick();
      schedule_next();
    });
  }
}

void AutoScaler::tick() {
  const double now = queue_.now();
  const ScaleSignals s = sampler_(now);

  if (metrics_) {
    metrics_->gauge("serve.autoscaler.shards")
        .set(static_cast<double>(s.active_shards));
    metrics_->gauge("serve.autoscaler.live_shards")
        .set(static_cast<double>(s.live_shards));
    metrics_->gauge("serve.autoscaler.queue_frac")
        .set(s.queue_budget > 0.0 ? s.mean_queue_depth / s.queue_budget : 0.0);
    metrics_->gauge("serve.autoscaler.p99_s").set(s.p99_s);
    metrics_->gauge("serve.autoscaler.shed_rate").set(s.shed_rate);
    metrics_->gauge("serve.autoscaler.utilization").set(s.utilization);
  }

  const std::string breach = breach_reason(s);
  if (!breach.empty()) {
    ++breach_streak_;
    idle_streak_ = 0;
  } else if (idle(s)) {
    ++idle_streak_;
    breach_streak_ = 0;
  } else {
    breach_streak_ = 0;
    idle_streak_ = 0;
  }

  const bool cooled = now - last_scale_t_ >= options_.cooldown_s;
  if (breach_streak_ >= options_.breach_samples && cooled &&
      s.active_shards < options_.max_shards) {
    decide(/*up=*/true, s, breach);
  } else if (idle_streak_ >= options_.idle_samples && cooled &&
             s.active_shards > options_.min_shards) {
    decide(/*up=*/false, s, "idle: queue/util/shed below low bands");
  }
}

std::string AutoScaler::breach_reason(const ScaleSignals& s) const {
  std::ostringstream why;
  const double frac =
      s.queue_budget > 0.0 ? s.mean_queue_depth / s.queue_budget : 0.0;
  if (frac >= options_.queue_high) {
    why << "queue " << frac << ">=" << options_.queue_high;
  }
  if (options_.p99_high_s > 0.0 && s.p99_s >= options_.p99_high_s) {
    if (why.tellp() > 0) why << ", ";
    why << "p99 " << s.p99_s << ">=" << options_.p99_high_s;
  }
  if (s.shed_rate > options_.shed_high) {
    if (why.tellp() > 0) why << ", ";
    why << "shed " << s.shed_rate << ">" << options_.shed_high;
  }
  return why.str();
}

bool AutoScaler::idle(const ScaleSignals& s) const {
  // Shrinking while a chaos partition masks capacity would flap: the
  // partition heals, load returns, and the scaler grows right back. Hold
  // the fleet size until every admitted shard is health-alive again.
  if (s.live_shards < s.active_shards) return false;
  if (s.shed_rate > 0.0) return false;
  const double frac =
      s.queue_budget > 0.0 ? s.mean_queue_depth / s.queue_budget : 0.0;
  if (frac > options_.queue_low) return false;
  if (s.utilization > options_.util_low) return false;
  if (options_.p99_low_s > 0.0 && s.p99_s > options_.p99_low_s) return false;
  return true;
}

void AutoScaler::decide(bool up, const ScaleSignals& signals,
                        std::string reason) {
  const double now = queue_.now();
  const std::size_t from = signals.active_shards;
  const std::size_t target =
      up ? std::min(from + options_.step, options_.max_shards)
         : std::max(from - std::min(options_.step, from - 1),
                    options_.min_shards);

  ScaleDecision d;
  d.t = now;
  d.up = up;
  d.from_shards = from;
  d.to_shards = target;
  d.reason = std::move(reason);
  d.signals = signals;
  d.applied = resizer_(target, now, d.reason);

  breach_streak_ = 0;
  idle_streak_ = 0;
  last_scale_t_ = now;
  if (d.applied) {
    if (up) {
      ++scale_ups_;
    } else {
      ++scale_downs_;
    }
  }

  if (metrics_) {
    metrics_->counter(up ? "serve.autoscaler.scale_ups"
                         : "serve.autoscaler.scale_downs")
        .inc();
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("dir", util::Json(std::string(up ? "up" : "down")));
    args.set("from", util::Json(d.from_shards));
    args.set("to", util::Json(d.to_shards));
    args.set("applied", util::Json(d.applied));
    args.set("reason", util::Json(d.reason));
    args.set("p99_s", util::Json(signals.p99_s));
    args.set("queue", util::Json(signals.mean_queue_depth));
    args.set("shed_rate", util::Json(signals.shed_rate));
    tracer_->instant("serve.scale", "serve", std::move(args));
  }
  decisions_.push_back(std::move(d));
}

}  // namespace autolearn::serve
