// Fleet serving request/response records.
//
// The §3.3/§3.4 continuum models inference for exactly one car; the
// serving tier models a whole fleet hitting a shared inference service.
// A ServeRequest is one car's observation entering the service queue; a
// ServeRecord is the finished request with its full timing breakdown
// (queued -> batched -> executed), which tier answered it, and which model
// version produced the command.
#pragma once

#include <cstdint>

#include "ml/driving_model.hpp"

namespace autolearn::serve {

/// Which tier executed a request's batch.
enum class Tier { Edge, Cloud };

const char* to_string(Tier t);

/// Sentinel shard index for requests no shard worker owned (shed while
/// the whole fleet was down).
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// One car's inference request, timestamped on the simulated clock.
struct ServeRequest {
  std::uint64_t id = 0;
  std::size_t car = 0;
  double t_arrive = 0.0;
  bool rerouted = false;  // moved off a dead shard by the failover path
  ml::Sample sample;
};

/// A finished request (completion order). Shed requests never queued: the
/// car's own edge tier answered per-sample (t_dispatch == t_arrive, batch
/// == 1), though the host predicts held sheds in batches (FleetService).
struct ServeRecord {
  std::uint64_t id = 0;
  std::size_t car = 0;
  std::size_t shard = 0;        // worker that answered (kNoShard when none)
  bool shed = false;            // bounced by admission control
  bool rerouted = false;        // answered by a failover target shard
  Tier tier = Tier::Edge;
  std::uint64_t model_version = 0;
  std::size_t batch = 1;        // size of the executed batch
  double t_arrive = 0.0;
  double t_dispatch = 0.0;      // batch formation time
  double t_done = 0.0;          // response delivered to the car
  ml::Prediction prediction;

  double queued_s() const { return t_dispatch - t_arrive; }
  double total_s() const { return t_done - t_arrive; }
};

}  // namespace autolearn::serve
