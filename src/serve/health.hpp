// Heartbeat-driven shard health monitor on the virtual clock.
//
// Every check_interval_s the monitor sweeps the shard table in index
// order and asks the site probe whether each shard's pinned site is
// reachable (the probe is typically wired to net::Network routing, so a
// chaos-injected partition of the site makes its heartbeats miss). A
// shard whose last successful heartbeat is older than timeout_s is
// declared Down — the on_down hook fires once and the router reroutes its
// cars; the first successful heartbeat after that declares it Up again.
// Sweeps are plain event-queue callbacks with no RNG draws, so the whole
// detect-and-recover timeline is a deterministic function of the fault
// plan. Sweeping stops at the horizon handed to start() so a draining
// simulation still terminates.
//
// The autoscaler grows and shrinks the shard table mid-run: add_shard()
// is allowed after start() (the newcomer's heartbeat clock begins at
// admission), retire() drops a shard from future sweeps without
// disturbing the indices of its neighbors, and readmit() re-activates a
// previously retired index with a fresh heartbeat clock and an explicit
// initial liveness — a shard readmitted onto a still-partitioned site
// starts dead rather than attracting traffic for a sweep interval.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/errors.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {

struct HealthOptions {
  /// Heartbeat sweep cadence.
  double check_interval_s = 0.02;
  /// Unreachable this long -> Down.
  double timeout_s = 0.05;

  /// Appends every violation (prefix "health.") without throwing.
  void check(ConfigIssues& out) const;
};

class HealthMonitor {
 public:
  using Probe = std::function<bool(const std::string& site, double now)>;
  using ShardHook = std::function<void(std::size_t shard)>;

  HealthMonitor(util::EventQueue& queue, HealthOptions options);

  /// Registers a shard pinned to `site`; indices are assigned in call
  /// order and must match the service's shard indices. Allowed after
  /// start(): a scaled-in shard's heartbeat clock begins at admission.
  std::size_t add_shard(std::string site);

  /// Drops `shard` from future sweeps (no more verdicts for it); its
  /// index stays reserved so neighbors keep theirs. Idempotent.
  void retire(std::size_t shard);

  /// Re-activates a retired index with a fresh heartbeat clock.
  /// `alive_now` is the shard's starting verdict — pass the probe's
  /// answer at admission so a still-dark site never starts Up.
  void readmit(std::size_t shard, bool alive_now);

  bool retired(std::size_t shard) const;

  /// Reachability oracle; unset means every site is always reachable.
  void set_probe(Probe probe) { probe_ = std::move(probe); }
  void set_on_down(ShardHook hook) { on_down_ = std::move(hook); }
  void set_on_up(ShardHook hook) { on_up_ = std::move(hook); }

  /// Optional sinks: transitions become "serve.shard_down"/"serve.shard_up"
  /// trace instants plus serve.health.* counters.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Begins sweeping; sweeps self-reschedule while the next one lands at
  /// or before `horizon_s`. Call once.
  void start(double horizon_s);

  bool alive(std::size_t shard) const;
  const std::string& site(std::size_t shard) const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t downs() const { return downs_; }
  std::size_t ups() const { return ups_; }

 private:
  struct Entry {
    std::string site;
    double last_ok = 0.0;
    bool alive = true;
    bool retired = false;
  };

  void sweep();
  void transition(std::size_t shard, bool up);

  util::EventQueue& queue_;
  HealthOptions options_;
  std::vector<Entry> shards_;
  Probe probe_;
  ShardHook on_down_;
  ShardHook on_up_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  double horizon_s_ = 0.0;
  bool started_ = false;
  std::size_t downs_ = 0;
  std::size_t ups_ = 0;
};

}  // namespace autolearn::serve
