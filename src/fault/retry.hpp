// Reusable retry policy: exponential backoff with optional jitter.
//
// The continuum substrate is flaky by design — Wi-Fi drops, leases end,
// links partition — so every retried operation (bulk transfers, container
// image pulls) shares one policy object instead of ad-hoc counters. The
// backoff schedule follows the classic exponential curve with either no
// jitter (deterministic analysis), full jitter (uniform in [0, target]),
// or decorrelated jitter (AWS-style: uniform in [base, 3 * previous]),
// all capped at max_delay_s and driven by an explicit Rng so fault
// timelines replay bit-for-bit from a seed.
#pragma once

#include "util/rng.hpp"

namespace autolearn::fault {

struct RetryPolicy {
  enum class Jitter { None, Full, Decorrelated };

  int max_attempts = 4;          // total attempts, including the first
  double base_delay_s = 0.5;     // backoff after the first failure
  double multiplier = 2.0;       // exponential growth factor
  double max_delay_s = 30.0;     // backoff cap
  double attempt_timeout_s = 0.0;  // per-attempt budget; 0 disables
  Jitter jitter = Jitter::Decorrelated;

  /// Throws std::invalid_argument on nonsensical knobs.
  void validate() const;

  /// Backoff before the next attempt, given how many attempts have already
  /// failed (>= 1). `prev_delay` carries the previous backoff for
  /// decorrelated jitter and is updated in place.
  double backoff_s(int failures, double& prev_delay, util::Rng& rng) const;

  /// Single attempt, no retries.
  static RetryPolicy none();
  /// `attempts` tries with zero backoff (TransferManager's default).
  static RetryPolicy immediate(int attempts);
  /// Sensible default for simulated WAN operations.
  static RetryPolicy standard();
};

/// Per-operation cursor over a RetryPolicy: counts attempts and carries the
/// decorrelated-jitter state.
class RetryState {
 public:
  explicit RetryState(RetryPolicy policy);

  int attempts() const { return attempts_; }
  bool exhausted() const { return attempts_ >= policy_.max_attempts; }
  const RetryPolicy& policy() const { return policy_; }

  /// Marks one attempt as started.
  void record_attempt() { ++attempts_; }

  /// Backoff to wait before the next attempt (call after a failure).
  double next_backoff_s(util::Rng& rng);

 private:
  RetryPolicy policy_;
  int attempts_ = 0;
  double prev_delay_ = 0.0;
};

}  // namespace autolearn::fault
