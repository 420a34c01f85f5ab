// Dynamic batching queue for the fleet inference service.
//
// Requests accumulate FIFO; a batch is ready to flush when either the
// batch cap is reached (max_batch) or the oldest pending request has
// waited its latency budget (max_delay_s). Pure data structure on the
// simulated clock — the service owns event scheduling — so batch
// boundaries are a deterministic function of the arrival schedule.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "serve/errors.hpp"
#include "serve/request.hpp"

namespace autolearn::serve {

struct BatcherConfig {
  /// Flush when this many requests are pending.
  std::size_t max_batch = 16;
  /// Flush when the oldest pending request has waited this long.
  double max_delay_s = 0.02;

  /// Appends every violation (prefix "batcher.") without throwing.
  void check(ConfigIssues& out) const;
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatcherConfig config = {});

  void push(ServeRequest request);

  std::size_t pending() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  bool full() const { return queue_.size() >= config_.max_batch; }

  /// Absolute time the oldest pending request must flush by; +inf when
  /// empty. Monotonically non-decreasing across push/take.
  double deadline() const;

  /// True when a batch should flush now: the cap is reached or the oldest
  /// request has aged out.
  bool ready(double now) const;

  /// Removes and returns up to max_batch oldest requests (FIFO order).
  std::vector<ServeRequest> take();

  /// Removes and returns EVERYTHING pending (FIFO order), ignoring the
  /// cap — the failover path uses this to reroute a dead shard's queue.
  std::vector<ServeRequest> drain();

  const BatcherConfig& config() const { return config_; }

 private:
  BatcherConfig config_;
  std::deque<ServeRequest> queue_;
};

}  // namespace autolearn::serve
