// Asynchronous bulk transfers over the simulated network.
//
// Models the paper's data-movement steps — "data ... can be manually
// transferred to the cloud using SSH", "the student copies the training
// data using rsync" — as events on the shared discrete-event clock. A
// transfer has a source/destination host, a byte count, a completion
// callback, and a fault::RetryPolicy governing how dropped or partitioned
// attempts back off before retrying: injected drops waste half the
// transfer time, a mid-flight partition (net::UnreachableError) wastes
// nothing but waits out the backoff, and both retry until the policy's
// attempt budget is exhausted.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/retry.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace autolearn::net {

enum class TransferStatus { InFlight, Done, Failed };

struct TransferResult {
  std::uint64_t id = 0;
  TransferStatus status = TransferStatus::InFlight;
  double started_at = 0.0;
  double finished_at = 0.0;
  std::uint64_t bytes = 0;
  int attempts = 0;
  std::vector<double> attempt_starts;  // virtual time each attempt began
  double duration() const { return finished_at - started_at; }
};

class TransferManager {
 public:
  /// Retries follow `policy` (attempt cap, exponential backoff, jitter,
  /// optional per-attempt timeout). The default makes three attempts,
  /// back-to-back with no backoff.
  TransferManager(
      Network& network, util::EventQueue& queue, util::Rng rng,
      fault::RetryPolicy policy = fault::RetryPolicy::immediate(3));

  /// Schedules a transfer starting now; on_done fires from the event queue
  /// when it completes or exhausts retries. Returns the transfer id.
  /// Throws UnreachableError when no route exists at start time (a
  /// partition opening mid-transfer is retried instead).
  std::uint64_t start(const std::string& from, const std::string& to,
                      std::uint64_t bytes,
                      std::function<void(const TransferResult&)> on_done = {});

  /// Status lookup for a known id; throws for unknown ids.
  const TransferResult& result(std::uint64_t id) const;

  const fault::RetryPolicy& policy() const { return policy_; }

  /// Wires the observability sinks (either may be null). Spans cover each
  /// attempt ("net.transfer.attempt") and the whole transfer
  /// ("net.transfer"); metrics cover bytes, attempts, retries, outcomes,
  /// and in-flight depth. See docs/observability.md for the catalog.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  std::size_t in_flight() const { return in_flight_; }
  std::size_t completed() const { return completed_; }
  std::size_t failed() const { return failed_; }

 private:
  void attempt(std::uint64_t id, const std::string& from,
               const std::string& to,
               std::function<void(const TransferResult&)> on_done);
  void retry_or_fail(std::uint64_t id, const std::string& from,
                     const std::string& to, double wasted_s,
                     const char* reason,
                     std::function<void(const TransferResult&)> on_done);

  Network& network_;
  util::EventQueue& queue_;
  util::Rng rng_;
  fault::RetryPolicy policy_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, TransferResult> results_;
  std::map<std::uint64_t, double> backoff_state_;  // decorrelated-jitter memory
  std::size_t in_flight_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace autolearn::net
