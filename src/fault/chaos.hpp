// Deterministic chaos engine for the edge-to-cloud continuum.
//
// The paper's substrate fails constantly in practice — Wi-Fi drops,
// Chameleon leases end, containers die mid-session — so the chaos engine
// turns those failures into first-class, seed-reproducible experiment
// inputs. A ChaosEngine is attached to the subsystems it may break and is
// handed FaultSpecs (a timed plan, hand-written or generated from the
// engine's seed); it schedules the fault and its recovery on the shared
// util::EventQueue and records every action in a ChaosReport. The same
// seed and plan always produce the same event timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "edge/container.hpp"
#include "edge/registry.hpp"
#include "fault/preempt.hpp"
#include "fault/report.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testbed/lease.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace autolearn::fault {

struct FaultSpec {
  FaultKind kind{};
  double at = 0.0;        // injection time (virtual seconds)
  double duration = 0.0;  // recovery is scheduled at at+duration; 0 = never
  std::string target;     // host / device / lease node type
  std::string peer{};     // second endpoint for link faults
  // Link degradation knobs (LinkDegrade; TransferFlap forces loss to 1).
  double latency_mult = 1.0;
  double loss_add = 0.0;
  double bandwidth_mult = 1.0;
  std::uint64_t id = 0;  // container id (ContainerKill) / lease id (optional)
  // CheckpointTruncate: fraction of the next upload's bytes that survive.
  double truncate_frac = 0.5;
  // LoadSpike: offered-load multiplier while the fault is active; the
  // recovery half restores the multiplier to 1.
  double load_mult = 4.0;
};

/// Knobs for random_plan(): a horizon, a fault budget, and the blast
/// radius (which host to partition, which link to degrade).
struct RandomPlanOptions {
  double horizon_s = 60.0;
  std::size_t faults = 4;
  double mean_duration_s = 5.0;
  std::string partition_host;  // empty: no partitions generated
  /// Additional partition candidates; each generated partition picks
  /// uniformly among partition_host + partition_hosts, so a geo-sharded
  /// fleet sees chaos hit different sites across one plan.
  std::vector<std::string> partition_hosts;
  std::string link_from;       // empty: no link degradation generated
  std::string link_to;
  double latency_mult = 5.0;
  double loss_add = 0.3;
  /// Federated clients eligible for generated ClientDropout windows; each
  /// generated dropout picks uniformly among them. Empty: no dropouts —
  /// and the generated plan is bitwise identical to pre-federated plans
  /// for the same seed (the extra draws only happen when this is set).
  std::vector<std::string> client_dropout_hosts;
};

/// Attach points for the federated-learning tier (fault:: stays free of a
/// fed:: dependency — the aggregator hands these in, mirroring
/// attach_load). Either hook may be empty; injecting the matching fault
/// kind then throws at inject() time.
struct FedHooks {
  /// FaultKind::ClientDropout: called with down=true when the client
  /// vanishes and down=false on the recovery half (duration > 0).
  std::function<void(const std::string& client, bool down)> client_state;
  /// FaultKind::DeltaCorrupt (one-shot): the client's next weight-delta
  /// upload is corrupted in transit; the CRC envelope catches it at load.
  std::function<void(const std::string& client)> corrupt_next_delta;
};

/// Tick window for ChaosEngine::arm_preemption(): the fatal tick is drawn
/// uniformly in [min_tick, max_tick] from the engine seed. ml::Trainer
/// ticks twice per batch, so a window of [1, 2*batches] can kill at any
/// boundary or mid-batch point.
struct PreemptPlanOptions {
  std::uint64_t min_tick = 1;
  std::uint64_t max_tick = 16;
};

class ChaosEngine {
 public:
  ChaosEngine(util::EventQueue& queue, std::uint64_t seed = 42);

  // Wire up the subsystems this engine may break. Injecting a fault whose
  // subsystem is not attached throws std::logic_error at inject() time.
  void attach_network(net::Network& network);
  void attach_registry(edge::EdgeRegistry& registry);
  void attach_containers(edge::ContainerService& containers);
  void attach_leases(testbed::LeaseManager& leases);
  void attach_checkpoints(ckpt::CheckpointStore& checkpoints);
  /// Wires a load source (e.g. serve::FleetService::set_load_factor) for
  /// FaultKind::LoadSpike: apply calls hook(spec.load_mult), the recovery
  /// half calls hook(1.0).
  void attach_load(std::function<void(double)> hook);
  /// Wires the federated tier (fed::Aggregator::fault_hooks()) for
  /// FaultKind::ClientDropout / DeltaCorrupt.
  void attach_fed(FedHooks hooks);

  /// Schedules one fault (and its recovery when duration > 0).
  void inject(const FaultSpec& spec);
  void inject_plan(const std::vector<FaultSpec>& plan);

  /// Generates a reproducible plan from the engine's seed: partition and
  /// link-degradation windows at random times within the horizon.
  std::vector<FaultSpec> random_plan(const RandomPlanOptions& options);

  /// Arms a training kill (FaultKind::TrainPreempt): draws the fatal tick
  /// from the engine seed, arms the token, and hooks its on_fire so the
  /// kill lands in the report/trace the moment the loop dies. Returns the
  /// drawn tick so experiments can print/replay it.
  std::uint64_t arm_preemption(PreemptionToken& token,
                               const PreemptPlanOptions& options = {});

  /// Called by the driver after a preempted stage resumed: credits the
  /// checkpoint subsystem with the batches it saved and charges the kill
  /// with the batches it destroyed. Recorded as the recovery half of the
  /// TrainPreempt fault.
  void record_preempt_outcome(std::size_t batches_lost,
                              std::size_t batches_recovered);

  const ChaosReport& report() const { return report_; }

  /// Wires the observability sinks (either may be null): every injection
  /// and recovery becomes a "chaos.<kind>" trace instant plus counters, so
  /// exported traces show faults inline with the spans they perturb.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  void apply(const FaultSpec& spec);
  void revert(const FaultSpec& spec);
  void record(FaultKind kind, const std::string& target, bool recovery,
              std::string detail);

  util::EventQueue& queue_;
  util::Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  net::Network* network_ = nullptr;
  edge::EdgeRegistry* registry_ = nullptr;
  edge::ContainerService* containers_ = nullptr;
  testbed::LeaseManager* leases_ = nullptr;
  ckpt::CheckpointStore* checkpoints_ = nullptr;
  std::function<void(double)> load_hook_;
  FedHooks fed_;
  ChaosReport report_;
};

}  // namespace autolearn::fault
