// Discrete-event simulation core.
//
// The continuum simulation (network transfers, container start-up,
// heartbeats, lease calendars) advances on a shared virtual clock. Events
// are (time, sequence, callback) tuples processed in time order; ties break
// by insertion order so runs are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace autolearn::util {

/// Virtual time in seconds since simulation start.
using SimTime = double;

/// A single-threaded discrete-event scheduler.
///
/// Usage:
///   EventQueue q;
///   q.schedule_at(1.5, [] { ... });
///   q.run_until(10.0);
class EventQueue {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedules cb at absolute virtual time t; throws
  /// std::invalid_argument unless t >= now() (so a NaN t throws too).
  void schedule_at(SimTime t, Callback cb);

  /// Schedules cb `delay` seconds from now.
  void schedule_in(SimTime delay, Callback cb);

  /// Runs events until the queue drains or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(SimTime t);

  /// Pops and runs exactly one event if present; returns whether one ran.
  bool step();

  bool empty() const { return events_.empty(); }
  std::size_t pending() const { return events_.size(); }

  /// Time of the earliest pending event; only valid when !empty().
  SimTime next_time() const;

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-breaker for determinism
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace autolearn::util
