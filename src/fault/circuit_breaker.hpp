// Circuit breaker guarding calls into an unreliable remote tier.
//
// Closed: calls flow; consecutive failures count up. At the threshold the
// breaker trips Open and calls are denied outright (no timeouts burned on
// a partitioned cloud). After open_duration_s the next allow() moves to
// HalfOpen and lets probe calls through: enough successes re-close the
// breaker, any failure re-trips it. Driven entirely by caller-supplied
// virtual time so simulated runs are reproducible.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

namespace autolearn::obs {
class MetricsRegistry;
class Tracer;
}  // namespace autolearn::obs

namespace autolearn::fault {

struct CircuitBreakerConfig {
  int failure_threshold = 3;     // consecutive failures that trip the breaker
  double open_duration_s = 2.0;  // cool-down before half-open probing
  int half_open_successes = 1;   // probe successes required to re-close

  void validate() const;
};

class CircuitBreaker {
 public:
  enum class State { Closed, Open, HalfOpen };

  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// True when a call may proceed now. Transitions Open -> HalfOpen once
  /// the cool-down has elapsed.
  bool allow(double now);

  void record_success(double now);
  void record_failure(double now);

  State state() const { return state_; }

  /// Number of transitions into Open (failovers to the degraded mode).
  std::size_t times_opened() const { return times_opened_; }

  /// Cumulative seconds spent not Closed, up to `now`.
  double degraded_s(double now) const;

  /// Time of the most recent trip / re-close; -1 when it never happened.
  double last_opened_at() const { return last_opened_at_; }
  double last_closed_at() const { return last_closed_at_; }

  /// Observer for every state transition (trip, half-open probe window,
  /// re-close), fired after the state has changed. Used by the
  /// observability layer to emit trace instants and transition counters.
  using TransitionHook = std::function<void(State from, State to, double now)>;
  void set_on_transition(TransitionHook hook) { on_transition_ = std::move(hook); }

 private:
  void trip(double now);
  void moved(State from, double now);

  TransitionHook on_transition_;
  CircuitBreakerConfig config_;
  State state_ = State::Closed;
  int consecutive_failures_ = 0;
  int half_open_hits_ = 0;
  std::size_t times_opened_ = 0;
  double opened_at_ = -1.0;       // current outage start (Open entry)
  double degraded_since_ = -1.0;  // first left Closed in current outage
  double degraded_total_s_ = 0.0;
  double last_opened_at_ = -1.0;
  double last_closed_at_ = -1.0;
};

const char* to_string(CircuitBreaker::State s);

/// Records one transition on the sinks (either may be null): a
/// "fault.breaker" instant with args from, to, t (then shard, when given)
/// and the fault.breaker.transitions and fault.breaker.to_<state> counters.
void record_transition(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                       CircuitBreaker::State from, CircuitBreaker::State to,
                       double now, std::optional<std::size_t> shard = {});

}  // namespace autolearn::fault
