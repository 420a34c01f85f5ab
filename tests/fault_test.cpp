#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/circuit_breaker.hpp"
#include "fault/report.hpp"
#include "fault/retry.hpp"

namespace autolearn::fault {
namespace {

// --- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicy, ValidationRejectsNonsense) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.base_delay_s = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.multiplier = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.max_delay_s = p.base_delay_s / 2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_NO_THROW(RetryPolicy{}.validate());
  EXPECT_NO_THROW(RetryPolicy::none().validate());
  EXPECT_NO_THROW(RetryPolicy::immediate(3).validate());
}

TEST(RetryPolicy, NoJitterFollowsExactExponentialSchedule) {
  RetryPolicy p;
  p.base_delay_s = 1.0;
  p.multiplier = 2.0;
  p.max_delay_s = 10.0;
  p.jitter = RetryPolicy::Jitter::None;
  util::Rng rng(7);
  double prev = 0.0;
  EXPECT_DOUBLE_EQ(p.backoff_s(1, prev, rng), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_s(2, prev, rng), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_s(3, prev, rng), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_s(4, prev, rng), 8.0);
  EXPECT_DOUBLE_EQ(p.backoff_s(5, prev, rng), 10.0);  // capped
  EXPECT_DOUBLE_EQ(p.backoff_s(50, prev, rng), 10.0);
}

TEST(RetryPolicy, FullJitterStaysWithinTarget) {
  RetryPolicy p;
  p.base_delay_s = 0.5;
  p.multiplier = 3.0;
  p.max_delay_s = 20.0;
  p.jitter = RetryPolicy::Jitter::Full;
  util::Rng rng(11);
  for (int failures = 1; failures <= 8; ++failures) {
    const double target =
        std::min(p.max_delay_s, p.base_delay_s * std::pow(3.0, failures - 1));
    for (int i = 0; i < 50; ++i) {
      double prev = 0.0;
      const double d = p.backoff_s(failures, prev, rng);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, target);
    }
  }
}

TEST(RetryPolicy, DecorrelatedJitterBoundedByBaseAndCap) {
  RetryPolicy p;  // default jitter is Decorrelated
  p.base_delay_s = 0.25;
  p.max_delay_s = 5.0;
  util::Rng rng(13);
  double prev = 0.0;
  for (int failures = 1; failures < 40; ++failures) {
    const double d = p.backoff_s(failures, prev, rng);
    EXPECT_GE(d, p.base_delay_s);
    EXPECT_LE(d, p.max_delay_s);
    EXPECT_DOUBLE_EQ(prev, d);  // state carried for the next draw
  }
}

TEST(RetryPolicy, SameSeedSameSchedule) {
  RetryPolicy p;
  util::Rng a(99), b(99);
  double pa = 0.0, pb = 0.0;
  for (int k = 1; k < 10; ++k) {
    EXPECT_DOUBLE_EQ(p.backoff_s(k, pa, a), p.backoff_s(k, pb, b));
  }
}

TEST(RetryState, CountsAndExhausts) {
  RetryPolicy p = RetryPolicy::immediate(3);
  RetryState state(p);
  EXPECT_FALSE(state.exhausted());
  state.record_attempt();
  state.record_attempt();
  EXPECT_FALSE(state.exhausted());
  state.record_attempt();
  EXPECT_TRUE(state.exhausted());
  EXPECT_EQ(state.attempts(), 3);
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(state.next_backoff_s(rng), 0.0);  // immediate = no backoff
}

// --- CircuitBreaker --------------------------------------------------------

CircuitBreakerConfig cfg(int threshold = 3, double open_s = 2.0,
                         int probes = 1) {
  CircuitBreakerConfig c;
  c.failure_threshold = threshold;
  c.open_duration_s = open_s;
  c.half_open_successes = probes;
  return c;
}

TEST(CircuitBreaker, ConfigValidation) {
  EXPECT_THROW(CircuitBreaker(cfg(0)), std::invalid_argument);
  EXPECT_THROW(CircuitBreaker(cfg(1, 0.0)), std::invalid_argument);
  EXPECT_THROW(CircuitBreaker(cfg(1, 1.0, 0)), std::invalid_argument);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker b(cfg(3));
  EXPECT_TRUE(b.allow(0.0));
  b.record_failure(0.1);
  b.record_failure(0.2);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  // A success resets the consecutive count.
  b.record_success(0.3);
  b.record_failure(0.4);
  b.record_failure(0.5);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  b.record_failure(0.6);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(b.times_opened(), 1u);
  EXPECT_FALSE(b.allow(0.7));  // open denies outright
}

TEST(CircuitBreaker, HalfOpenProbeClosesOrReopens) {
  CircuitBreaker b(cfg(1, 2.0));
  b.record_failure(1.0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(b.allow(2.5));  // still cooling down
  EXPECT_TRUE(b.allow(3.0));   // cool-down elapsed -> half-open probe
  EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  // Probe fails: straight back to open, full cool-down again.
  b.record_failure(3.0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(b.times_opened(), 2u);
  EXPECT_FALSE(b.allow(4.5));
  EXPECT_TRUE(b.allow(5.0));
  b.record_success(5.0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_DOUBLE_EQ(b.last_closed_at(), 5.0);
  EXPECT_TRUE(b.allow(5.1));
}

TEST(CircuitBreaker, MultipleProbesRequired) {
  CircuitBreaker b(cfg(1, 1.0, /*probes=*/2));
  b.record_failure(0.0);
  EXPECT_TRUE(b.allow(1.0));
  b.record_success(1.0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);  // one is not enough
  b.record_success(1.1);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, DegradedTimeAccumulates) {
  CircuitBreaker b(cfg(1, 1.0));
  b.record_failure(10.0);
  EXPECT_DOUBLE_EQ(b.degraded_s(12.0), 2.0);  // still open
  EXPECT_TRUE(b.allow(11.0));
  b.record_success(11.5);
  EXPECT_DOUBLE_EQ(b.degraded_s(20.0), 1.5);  // frozen after close
  b.record_failure(30.0);
  EXPECT_DOUBLE_EQ(b.degraded_s(31.0), 2.5);
}

// --- property sweeps -------------------------------------------------------

TEST(RetryPolicyProperty, JitterEnvelopesHoldAcrossSeeds) {
  RetryPolicy full;
  full.base_delay_s = 0.5;
  full.multiplier = 2.0;
  full.max_delay_s = 8.0;
  full.jitter = RetryPolicy::Jitter::Full;
  RetryPolicy deco = full;
  deco.jitter = RetryPolicy::Jitter::Decorrelated;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed);
    double prev_full = 0.0;
    double prev_deco = 0.0;
    for (int failures = 1; failures <= 8; ++failures) {
      const double target =
          std::min(full.max_delay_s,
                   full.base_delay_s * std::pow(full.multiplier, failures - 1));
      // Full jitter: uniform in [0, exponential target].
      const double f = full.backoff_s(failures, prev_full, rng);
      ASSERT_GE(f, 0.0);
      ASSERT_LE(f, target);
      // Decorrelated jitter: uniform in [base, 3 * previous], capped.
      const double before = prev_deco;
      const double d = deco.backoff_s(failures, prev_deco, rng);
      ASSERT_GE(d, deco.base_delay_s);
      ASSERT_LE(d, deco.max_delay_s);
      ASSERT_LE(d, std::max(deco.base_delay_s, 3.0 * before) + 1e-12);
      ASSERT_DOUBLE_EQ(prev_deco, d);  // jitter memory updated in place
    }
  }
}

TEST(RetryPolicyProperty, AttemptCapIsExact) {
  for (int cap = 1; cap <= 6; ++cap) {
    RetryPolicy p = RetryPolicy::standard();
    p.max_attempts = cap;
    RetryState state(p);
    util::Rng rng(static_cast<std::uint64_t>(cap));
    int attempts = 0;
    while (!state.exhausted()) {
      state.record_attempt();
      ++attempts;
      if (!state.exhausted()) {
        EXPECT_GT(state.next_backoff_s(rng), 0.0);
      }
    }
    EXPECT_EQ(attempts, cap);
  }
}

TEST(RetryPolicyProperty, ImmediateMatchesLegacyCounterSemantics) {
  // immediate() (TransferManager's default policy): N attempts retried
  // back-to-back, no backoff, no rng draws.
  const RetryPolicy p = RetryPolicy::immediate(3);
  EXPECT_EQ(p.max_attempts, 3);
  EXPECT_EQ(p.jitter, RetryPolicy::Jitter::None);
  util::Rng probe(1);
  double prev = 0.0;
  for (int failures = 1; failures <= 5; ++failures) {
    EXPECT_DOUBLE_EQ(p.backoff_s(failures, prev, probe), 0.0);
  }
  util::Rng untouched(1);
  EXPECT_EQ(untouched.next_u64(), probe.next_u64());  // no randomness consumed
}

// --- transition hook (observability tap) -----------------------------------

TEST(CircuitBreaker, TransitionHookSeesEveryStateChange) {
  CircuitBreaker b(cfg(2, 1.0, /*probes=*/1));
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> seen;
  std::vector<double> when;
  b.set_on_transition([&](CircuitBreaker::State from,
                          CircuitBreaker::State to, double now) {
    seen.emplace_back(from, to);
    when.push_back(now);
    EXPECT_EQ(b.state(), to);  // hook fires after the move
  });
  b.record_failure(0.0);
  EXPECT_TRUE(seen.empty());  // below threshold: no transition
  b.record_failure(0.5);      // trip
  EXPECT_TRUE(b.allow(2.0));  // cool-down elapsed: half-open probe
  b.record_failure(2.1);      // probe fails: re-trip
  EXPECT_TRUE(b.allow(4.0));
  b.record_success(4.1);      // probe succeeds: re-close
  using S = CircuitBreaker::State;
  const std::vector<std::pair<S, S>> expected = {
      {S::Closed, S::Open},   {S::Open, S::HalfOpen}, {S::HalfOpen, S::Open},
      {S::Open, S::HalfOpen}, {S::HalfOpen, S::Closed}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(when, (std::vector<double>{0.5, 2.0, 2.1, 4.0, 4.1}));
  EXPECT_EQ(b.times_opened(), 2u);
}

// --- ChaosReport plumbing --------------------------------------------------

TEST(ChaosReport, CountsAndEquality) {
  ChaosReport a;
  a.timeline.push_back({1.0, FaultKind::Partition, "chi-uc", false, "x"});
  a.timeline.push_back({2.0, FaultKind::Partition, "chi-uc", true, "y"});
  a.injected = 1;
  a.recovered = 1;
  EXPECT_EQ(a.count(FaultKind::Partition), 1u);
  EXPECT_EQ(a.count(FaultKind::Partition, /*recoveries=*/true), 1u);
  EXPECT_EQ(a.count(FaultKind::DeviceCrash), 0u);
  ChaosReport b = a;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.summary(), b.summary());
  b.timeline[0].time = 1.5;
  EXPECT_FALSE(a == b);
}

TEST(FaultKind, Names) {
  EXPECT_STREQ(to_string(FaultKind::LinkDegrade), "link-degrade");
  EXPECT_STREQ(to_string(FaultKind::Partition), "partition");
  EXPECT_STREQ(to_string(FaultKind::DeviceCrash), "device-crash");
  EXPECT_STREQ(to_string(FaultKind::ContainerKill), "container-kill");
  EXPECT_STREQ(to_string(FaultKind::LeasePreempt), "lease-preempt");
  EXPECT_STREQ(to_string(FaultKind::TransferFlap), "transfer-flap");
}

}  // namespace
}  // namespace autolearn::fault
