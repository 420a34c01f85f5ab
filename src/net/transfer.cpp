#include "net/transfer.hpp"

#include <stdexcept>

#include "util/logging.hpp"

namespace autolearn::net {
namespace {

util::Json attempt_args(const TransferResult& r, const char* outcome) {
  util::Json args = util::Json::object();
  args.set("id", util::Json(r.id));
  args.set("attempt", util::Json(r.attempts));
  args.set("outcome", util::Json(outcome));
  return args;
}

util::Json transfer_args(const TransferResult& r, const char* outcome) {
  util::Json args = util::Json::object();
  args.set("id", util::Json(r.id));
  args.set("bytes", util::Json(r.bytes));
  args.set("attempts", util::Json(r.attempts));
  args.set("outcome", util::Json(outcome));
  return args;
}

}  // namespace

TransferManager::TransferManager(Network& network, util::EventQueue& queue,
                                 util::Rng rng, fault::RetryPolicy policy)
    : network_(network), queue_(queue), rng_(rng), policy_(policy) {
  policy_.validate();
}

void TransferManager::instrument(obs::Tracer* tracer,
                                 obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

std::uint64_t TransferManager::start(
    const std::string& from, const std::string& to, std::uint64_t bytes,
    std::function<void(const TransferResult&)> on_done) {
  if (!network_.route(from, to)) throw UnreachableError(from, to);
  const std::uint64_t id = next_id_++;
  TransferResult r;
  r.id = id;
  r.started_at = queue_.now();
  r.bytes = bytes;
  results_[id] = r;
  backoff_state_[id] = 0.0;
  ++in_flight_;
  if (metrics_) {
    metrics_->counter("net.transfer.started").inc();
    metrics_->counter("net.transfer.bytes_requested").inc(bytes);
    metrics_->histogram("net.transfer.bytes",
                        obs::MetricsRegistry::bytes_buckets())
        .observe(static_cast<double>(bytes));
    metrics_->gauge("net.transfer.in_flight")
        .set(static_cast<double>(in_flight_));
  }
  attempt(id, from, to, std::move(on_done));
  return id;
}

void TransferManager::attempt(
    std::uint64_t id, const std::string& from, const std::string& to,
    std::function<void(const TransferResult&)> on_done) {
  TransferResult& r = results_.at(id);
  ++r.attempts;
  r.attempt_starts.push_back(queue_.now());

  bool dropped = false;
  double duration = 0.0;
  try {
    dropped = network_.drops(from, to, rng_);
    duration = network_.transfer_time(from, to, r.bytes, rng_);
  } catch (const UnreachableError&) {
    // The route vanished (partition) since the last attempt. Nothing was
    // transmitted, so no time is wasted beyond the backoff.
    retry_or_fail(id, from, to, /*wasted_s=*/0.0, "unreachable",
                  std::move(on_done));
    return;
  }
  if (policy_.attempt_timeout_s > 0 && duration > policy_.attempt_timeout_s) {
    // The attempt would overrun its budget: abort at the timeout.
    retry_or_fail(id, from, to, policy_.attempt_timeout_s, "timeout",
                  std::move(on_done));
    return;
  }
  if (!dropped) {
    queue_.schedule_in(duration, [this, id, on_done = std::move(on_done)] {
      TransferResult& res = results_.at(id);
      res.status = TransferStatus::Done;
      res.finished_at = queue_.now();
      backoff_state_.erase(id);
      --in_flight_;
      ++completed_;
      if (tracer_) {
        tracer_->complete("net.transfer.attempt", "net",
                          res.attempt_starts.back(), res.finished_at,
                          attempt_args(res, "done"));
        tracer_->complete("net.transfer", "net", res.started_at,
                          res.finished_at, transfer_args(res, "done"));
      }
      if (metrics_) {
        metrics_->counter("net.transfer.completed").inc();
        metrics_->counter("net.transfer.bytes_moved").inc(res.bytes);
        metrics_->histogram("net.transfer.duration_s")
            .observe(res.duration());
        metrics_->gauge("net.transfer.in_flight")
            .set(static_cast<double>(in_flight_));
      }
      if (on_done) on_done(res);
    });
    return;
  }
  // Drop detected mid-transfer: waste half the transfer time, then retry
  // (after the policy's backoff) or give up.
  retry_or_fail(id, from, to, duration / 2, "dropped", std::move(on_done));
}

void TransferManager::retry_or_fail(
    std::uint64_t id, const std::string& from, const std::string& to,
    double wasted_s, const char* reason,
    std::function<void(const TransferResult&)> on_done) {
  TransferResult& r = results_.at(id);
  if (tracer_) {
    // The attempt's cost (half the transfer for a drop, the timeout for an
    // overrun, nothing for a partition) elapses via the scheduled event;
    // the span covers it with explicit timestamps.
    tracer_->complete("net.transfer.attempt", "net", r.attempt_starts.back(),
                      queue_.now() + wasted_s, attempt_args(r, reason));
  }
  if (r.attempts >= policy_.max_attempts) {
    queue_.schedule_in(wasted_s, [this, id, reason,
                                  on_done = std::move(on_done)] {
      TransferResult& res = results_.at(id);
      res.status = TransferStatus::Failed;
      res.finished_at = queue_.now();
      backoff_state_.erase(id);
      --in_flight_;
      ++failed_;
      AUTOLEARN_LOG(Warn, "net")
          << "transfer " << id << " failed after " << res.attempts
          << " attempts (" << reason << ")";
      if (tracer_) {
        tracer_->complete("net.transfer", "net", res.started_at,
                          res.finished_at, transfer_args(res, reason));
      }
      if (metrics_) {
        metrics_->counter("net.transfer.failed").inc();
        metrics_->gauge("net.transfer.in_flight")
            .set(static_cast<double>(in_flight_));
      }
      if (on_done) on_done(res);
    });
    return;
  }
  if (metrics_) {
    metrics_->counter("net.transfer.retries").inc();
    metrics_->counter(std::string("net.transfer.retry.") + reason).inc();
  }
  const double backoff =
      policy_.backoff_s(r.attempts, backoff_state_.at(id), rng_);
  if (metrics_) metrics_->histogram("net.transfer.backoff_s").observe(backoff);
  queue_.schedule_in(wasted_s + backoff,
                     [this, id, from, to, on_done = std::move(on_done)] {
                       attempt(id, from, to, std::move(on_done));
                     });
}

const TransferResult& TransferManager::result(std::uint64_t id) const {
  const auto it = results_.find(id);
  if (it == results_.end()) {
    throw std::invalid_argument("transfer: unknown id");
  }
  return it->second;
}

}  // namespace autolearn::net
