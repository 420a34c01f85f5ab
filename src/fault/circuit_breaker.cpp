#include "fault/circuit_breaker.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace autolearn::fault {

void CircuitBreakerConfig::validate() const {
  if (failure_threshold < 1) {
    throw std::invalid_argument("breaker: failure_threshold must be >= 1");
  }
  if (open_duration_s <= 0) {
    throw std::invalid_argument("breaker: open_duration_s must be > 0");
  }
  if (half_open_successes < 1) {
    throw std::invalid_argument("breaker: half_open_successes must be >= 1");
  }
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config) : config_(config) {
  config_.validate();
}

void CircuitBreaker::moved(State from, double now) {
  if (on_transition_) on_transition_(from, state_, now);
}

void CircuitBreaker::trip(double now) {
  const State from = state_;
  if (state_ == State::Closed) degraded_since_ = now;
  state_ = State::Open;
  opened_at_ = now;
  last_opened_at_ = now;
  half_open_hits_ = 0;
  consecutive_failures_ = 0;
  ++times_opened_;
  moved(from, now);
}

bool CircuitBreaker::allow(double now) {
  switch (state_) {
    case State::Closed:
      return true;
    case State::Open:
      if (now - opened_at_ >= config_.open_duration_s) {
        state_ = State::HalfOpen;
        half_open_hits_ = 0;
        moved(State::Open, now);
        return true;
      }
      return false;
    case State::HalfOpen:
      return true;
  }
  return false;
}

void CircuitBreaker::record_success(double now) {
  switch (state_) {
    case State::Closed:
      consecutive_failures_ = 0;
      break;
    case State::Open:
      break;  // success reported for a call admitted before the trip
    case State::HalfOpen:
      if (++half_open_hits_ >= config_.half_open_successes) {
        state_ = State::Closed;
        consecutive_failures_ = 0;
        if (degraded_since_ >= 0) {
          degraded_total_s_ += now - degraded_since_;
          degraded_since_ = -1.0;
        }
        last_closed_at_ = now;
        moved(State::HalfOpen, now);
      }
      break;
  }
}

void CircuitBreaker::record_failure(double now) {
  switch (state_) {
    case State::Closed:
      if (++consecutive_failures_ >= config_.failure_threshold) trip(now);
      break;
    case State::Open:
      break;
    case State::HalfOpen:
      trip(now);  // probe failed: back to a full cool-down
      break;
  }
}

double CircuitBreaker::degraded_s(double now) const {
  double total = degraded_total_s_;
  if (degraded_since_ >= 0 && now > degraded_since_) {
    total += now - degraded_since_;
  }
  return total;
}

const char* to_string(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::Closed: return "closed";
    case CircuitBreaker::State::Open: return "open";
    case CircuitBreaker::State::HalfOpen: return "half-open";
  }
  return "?";
}

void record_transition(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                       CircuitBreaker::State from, CircuitBreaker::State to,
                       double now, std::optional<std::size_t> shard) {
  if (tracer) {
    util::Json args = util::Json::object();
    args.set("from", util::Json(to_string(from)));
    args.set("to", util::Json(to_string(to)));
    args.set("t", util::Json(now));
    if (shard) args.set("shard", util::Json(*shard));
    tracer->instant("fault.breaker", "fault", std::move(args));
  }
  if (metrics) {
    metrics->counter("fault.breaker.transitions").inc();
    metrics->counter(std::string("fault.breaker.to_") + to_string(to)).inc();
  }
}

}  // namespace autolearn::fault
