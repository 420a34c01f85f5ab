// Federated continual learning (ctest -L fed): the delta codec fences,
// the FedAvg merge oracle, straggler-cutoff / quorum determinism, the
// chaos round-survival gate (ClientDropout, DeltaCorrupt, torn uploads,
// aggregator preemption with bitwise-identical resume), the canary gate
// on a bad round, the TransferManager partial-visibility property at
// delta sizes, and the random_plan backward-compatibility regression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "fault/chaos.hpp"
#include "fault/preempt.hpp"
#include "fed/aggregator.hpp"
#include "fed/client.hpp"
#include "fed/delta.hpp"
#include "fed/report.hpp"
#include "ml/driving_model.hpp"
#include "net/network.hpp"
#include "net/transfer.hpp"
#include "objectstore/objectstore.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/replication.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace autolearn::fed {
namespace {

ml::ModelConfig tiny_config() {
  ml::ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  return cfg;
}

/// Bright vertical band whose column encodes the steering label (the
/// repo's standard synthetic task).
std::vector<ml::Sample> synthetic_dataset(std::size_t n,
                                          const ml::ModelConfig& cfg,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ml::Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(cfg.img_w) - 3));
    camera::Image img(cfg.img_w, cfg.img_h, 0.1f);
    for (std::size_t y = 0; y < cfg.img_h; ++y) {
      for (std::size_t dx = 0; dx < 3; ++dx) img.at(col - 1 + dx, y) = 0.9f;
    }
    ml::Sample s;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) s.frames.push_back(img);
    const float steer = static_cast<float>(
        2.0 * static_cast<double>(col) / (cfg.img_w - 1) - 1.0);
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      s.history.push_back(steer);
      s.history.push_back(0.5f);
    }
    s.steering = steer;
    s.throttle = 0.5f;
    out.push_back(std::move(s));
  }
  return out;
}

std::string car_name(std::size_t i) {
  return "car-0" + std::to_string(i + 1);
}

FedOptions test_options() {
  FedOptions opt;
  opt.rounds = 2;
  opt.round_timeout_s = 600.0;  // generous: Pi-priced local fits are slow
  opt.quorum_frac = 0.5;
  opt.retry_backoff_s = 2.0;
  opt.cloud_host = "cloud";
  opt.canary.max_steering_drift = 0.5;
  opt.canary.bake_s = 1.0;
  return opt;
}

/// Full federated rig on one event queue: three cars with private slices,
/// a two-shard replicated registry with a bootstrap model, and transfer
/// routes car -> cloud.
struct FedRig {
  util::EventQueue queue;
  net::Network network;
  net::TransferManager transfers{network, queue, util::Rng(5)};
  objectstore::ObjectStore os;
  serve::ReplicatedRegistry registry{2};
  ml::ModelConfig cfg = tiny_config();
  std::shared_ptr<ml::DrivingModel> bootstrap;
  std::unique_ptr<Aggregator> agg;

  explicit FedRig(FedOptions opt = test_options(), std::size_t cars = 3) {
    network.add_host("cloud");
    for (std::size_t i = 0; i < cars; ++i) {
      network.add_host(car_name(i));
      network.add_duplex(car_name(i), "cloud", net::LinkSpec{});
    }
    bootstrap = ml::make_model(ml::ModelType::Linear, cfg);
    registry.publish_all(bootstrap, "bootstrap");
    agg = std::make_unique<Aggregator>(queue, registry, transfers, os,
                                       ml::ModelType::Linear, cfg, opt);
    for (std::size_t i = 0; i < cars; ++i) {
      ClientOptions copt;
      copt.name = car_name(i);
      copt.seed = 100 + i;
      agg->add_client(copt, synthetic_dataset(8 + 2 * i, cfg, 500 + i));
    }
    agg->set_probes(synthetic_dataset(6, cfg, 999));
  }

  std::vector<float> fleet_params() {
    return flatten_params(*registry.shard(0).current()->model);
  }
};

// --- delta codec -----------------------------------------------------------

WeightDelta sample_delta() {
  WeightDelta d;
  d.client = "car-01";
  d.round = 3;
  d.base_version = 7;
  d.examples = 12;
  d.values = {0.5f, -1.25f, 0.0f, 3e-7f};
  return d;
}

TEST(DeltaCodec, RoundTripsHeaderAndValues) {
  const WeightDelta d = sample_delta();
  const WeightDelta back = decode_delta(encode_delta(d));
  EXPECT_EQ(back.client, d.client);
  EXPECT_EQ(back.round, d.round);
  EXPECT_EQ(back.base_version, d.base_version);
  EXPECT_EQ(back.examples, d.examples);
  EXPECT_EQ(back.values, d.values);
}

TEST(DeltaCodec, RejectsForeignBytes) {
  try {
    decode_delta("PNG\x89 definitely not a delta");
    FAIL() << "foreign bytes decoded";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), DeltaError::Code::BadMagic);
  }
}

TEST(DeltaCodec, RejectsTruncation) {
  const std::string bytes = encode_delta(sample_delta());
  // Every proper prefix fails with DeltaError, never another exception.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(decode_delta(bytes.substr(0, n)), DeltaError)
        << n << " bytes";
  }
  try {
    decode_delta(bytes.substr(0, bytes.size() - 5));
    FAIL() << "truncated delta decoded";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), DeltaError::Code::Truncated);
  }
  // A value count claiming 2^40 floats is a truncation, not a 4 TiB
  // allocation. The count follows magic, version, the length-prefixed
  // client name and three u64 header fields.
  std::string huge = bytes;
  const std::size_t count_at = 4 + 4 + 4 + sample_delta().client.size() + 24;
  const std::uint64_t claim = std::uint64_t{1} << 40;
  std::memcpy(huge.data() + count_at, &claim, sizeof claim);
  try {
    decode_delta(huge);
    FAIL() << "2^40-value delta decoded";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), DeltaError::Code::Truncated);
  }
}

TEST(DeltaCodec, ValidateRejectsSizeMismatchAndNonFinite) {
  WeightDelta d = sample_delta();
  try {
    validate_delta(d, d.values.size() + 1);
    FAIL() << "size mismatch accepted";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), DeltaError::Code::SizeMismatch);
  }
  d.values[2] = std::nanf("");
  try {
    validate_delta(d, d.values.size());
    FAIL() << "NaN delta accepted";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), DeltaError::Code::NonFinite);
  }
}

TEST(DeltaCodec, FlattenAddScaledRoundTrip) {
  const ml::ModelConfig cfg = tiny_config();
  auto model = ml::make_model(ml::ModelType::Linear, cfg);
  const std::vector<float> before = flatten_params(*model);
  ASSERT_EQ(before.size(), param_count(*model));
  std::vector<float> bump(before.size(), 0.25f);
  add_scaled(*model, bump, 2.0f);
  const std::vector<float> after = flatten_params(*model);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_FLOAT_EQ(after[i], before[i] + 0.5f) << "param " << i;
  }
  EXPECT_THROW(add_scaled(*model, {1.0f}, 1.0f), DeltaError);
}

// --- FedAvg merge oracle ---------------------------------------------------

TEST(FedAggregator, MergeMatchesExampleWeightedOracle) {
  FedOptions opt = test_options();
  opt.rounds = 1;
  FedRig rig(opt);

  // Oracle: recompute every client's delta against the bootstrap exactly
  // as the aggregator's clients do, then fold them with the same running
  // weighted mean + server_lr arithmetic.
  std::vector<std::vector<float>> deltas;
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < 3; ++i) {
    ClientOptions copt;
    copt.name = car_name(i);
    copt.seed = 100 + i;
    EdgeClient twin(copt, ml::ModelType::Linear, rig.cfg,
                    synthetic_dataset(8 + 2 * i, rig.cfg, 500 + i));
    auto update = twin.compute_update(*rig.bootstrap, 1, 1);
    deltas.push_back(update.delta.values);
    weights.push_back(update.delta.examples);
  }

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_EQ(report.rounds[0].accepted, 3u);
  EXPECT_TRUE(report.rounds[0].promoted);
  EXPECT_EQ(report.deltas_accepted, 3u);
  EXPECT_GT(report.delta_bytes_shipped, 0u);

  std::vector<double> acc(deltas[0].size(), 0.0);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < deltas.size(); ++c) {
    const double w = static_cast<double>(weights[c]);
    const double sum = static_cast<double>(total) + w;
    const double keep = static_cast<double>(total) / sum;
    const double add = w / sum;
    for (std::size_t j = 0; j < acc.size(); ++j) {
      acc[j] = acc[j] * keep + static_cast<double>(deltas[c][j]) * add;
    }
    total += weights[c];
  }
  const std::vector<float> base = flatten_params(*rig.bootstrap);
  const std::vector<float> fleet = rig.fleet_params();
  ASSERT_EQ(fleet.size(), base.size());
  for (std::size_t j = 0; j < base.size(); ++j) {
    const float expected =
        base[j] + static_cast<float>(rig.agg->options().server_lr * acc[j]);
    ASSERT_FLOAT_EQ(fleet[j], expected) << "param " << j;
  }
}

// --- cutoff / quorum -------------------------------------------------------

TEST(FedAggregator, AllStragglersMeansNoQuorumAndNothingPublished) {
  FedOptions opt = test_options();
  opt.rounds = 1;
  opt.round_timeout_s = 1e-3;  // nobody's Pi finishes in a millisecond
  FedRig rig(opt);
  const std::uint64_t before = rig.registry.shard(0).version();

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_FALSE(report.rounds[0].quorum_met);
  EXPECT_EQ(report.rounds[0].published_version, 0u);
  EXPECT_EQ(report.rounds_no_quorum, 1u);
  EXPECT_EQ(report.stragglers, 3u);
  EXPECT_EQ(rig.registry.shard(0).version(), before);
  for (const ClientRoundRecord& c : report.rounds[0].clients) {
    EXPECT_EQ(c.outcome, ClientOutcome::Straggler);
  }
}

TEST(FedAggregator, PartitionedClientFailsTransferButQuorumHolds) {
  FedOptions opt = test_options();
  opt.rounds = 1;
  FedRig rig(opt);
  rig.network.partition_host(car_name(2));

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_TRUE(report.rounds[0].quorum_met);
  EXPECT_TRUE(report.rounds[0].promoted);
  EXPECT_EQ(report.rounds[0].accepted, 2u);
  EXPECT_EQ(report.transfer_failures, 1u);
  EXPECT_EQ(report.rounds[0].clients[2].outcome,
            ClientOutcome::TransferFailed);
}

// --- torn / corrupt deltas -------------------------------------------------

TEST(FedAggregator, TornDeltaIsQuarantinedAndRetriedWithBackoff) {
  FedOptions opt = test_options();
  FedRig rig(opt);
  rig.agg->delta_store(1).truncate_next_upload(0.5);

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 2u);

  const RoundRecord& r1 = report.rounds[0];
  EXPECT_EQ(r1.clients[1].outcome, ClientOutcome::Quarantined);
  EXPECT_EQ(r1.accepted, 2u);
  EXPECT_TRUE(r1.quorum_met);

  // Next round the sender retries, delayed by the base backoff.
  const RoundRecord& r2 = report.rounds[1];
  EXPECT_EQ(r2.clients[1].outcome, ClientOutcome::Accepted);
  EXPECT_DOUBLE_EQ(r2.clients[1].backoff_s, opt.retry_backoff_s);
  EXPECT_EQ(r2.clients[0].backoff_s, 0.0);

  EXPECT_EQ(report.deltas_quarantined, 1u);
  EXPECT_EQ(report.deltas_accepted, 5u);
  EXPECT_EQ(rig.agg->delta_store(1).quarantined(), 1u);
}

TEST(FedAggregator, DeltaCorruptFaultNeverReachesTheMerge) {
  FedOptions opt = test_options();
  FedRig rig(opt);
  fault::ChaosEngine chaos(rig.queue, 42);
  chaos.attach_fed(rig.agg->fault_hooks());

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::DeltaCorrupt;
  spec.at = 0.0;  // armed before any upload starts
  spec.target = car_name(0);
  chaos.inject(spec);

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].clients[0].outcome, ClientOutcome::Quarantined);
  EXPECT_EQ(report.rounds[0].accepted, 2u);
  // One-shot: the client's round-2 upload is clean again.
  EXPECT_EQ(report.rounds[1].clients[0].outcome, ClientOutcome::Accepted);
  EXPECT_EQ(report.deltas_quarantined, 1u);
  // Zero undetected-corrupt deltas accepted: every accepted delta decoded
  // cleanly, and the corrupted generation sits in quarantine.
  EXPECT_EQ(rig.agg->delta_store(0).quarantined(), 1u);
  EXPECT_EQ(chaos.report().count(fault::FaultKind::DeltaCorrupt), 1u);
}

// --- client dropout --------------------------------------------------------

TEST(FedAggregator, DroppedClientMissesTheRoundAndRejoins) {
  FedOptions opt = test_options();
  FedRig rig(opt);
  fault::ChaosEngine chaos(rig.queue, 42);
  chaos.attach_fed(rig.agg->fault_hooks());

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::ClientDropout;
  spec.at = 0.0;
  spec.duration = opt.round_timeout_s + 1.0;  // back for round 2
  spec.target = car_name(1);
  chaos.inject(spec);

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].clients[1].outcome, ClientOutcome::Dropout);
  EXPECT_EQ(report.rounds[0].accepted, 2u);
  EXPECT_TRUE(report.rounds[0].promoted);
  EXPECT_EQ(report.rounds[1].clients[1].outcome, ClientOutcome::Accepted);
  EXPECT_EQ(report.dropouts, 1u);
  EXPECT_EQ(chaos.report().count(fault::FaultKind::ClientDropout), 1u);
  EXPECT_EQ(chaos.report().count(fault::FaultKind::ClientDropout, true), 1u);
}

TEST(FedAggregator, MidRoundDropoutLosesTheUpload) {
  FedOptions opt = test_options();
  opt.rounds = 1;
  FedRig rig(opt);
  fault::ChaosEngine chaos(rig.queue, 42);
  chaos.attach_fed(rig.agg->fault_hooks());

  // The local fit prices at well under a millisecond of Pi time and the
  // upload jitter adds up to 50ms, so a dropout 0.1ms into the round
  // lands between round start and the car's upload event.
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::ClientDropout;
  spec.at = 1e-4;
  spec.target = car_name(0);
  chaos.inject(spec);

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 1u);
  const ClientRoundRecord& c = report.rounds[0].clients[0];
  EXPECT_EQ(c.outcome, ClientOutcome::Dropout);
  EXPECT_EQ(c.upload_start_s, -1.0);
  EXPECT_EQ(c.committed_s, -1.0);
  EXPECT_EQ(report.rounds[0].accepted, 2u);
}

// --- preemption / resume ---------------------------------------------------

TEST(FedAggregator, PreemptedMergeResumesBitwiseIdentically) {
  // Reference: an uninterrupted run.
  FedRig plain(test_options());
  const FedReport expect_report = plain.agg->run();
  const std::vector<float> expect_params = plain.fleet_params();

  // Same rig, but the merge loop is killed at its second preemption point
  // (mid-merge of round 1) and then resumed by calling run() again.
  FedRig killed(test_options());
  fault::PreemptionToken token;
  token.arm(2);
  killed.agg->set_preemption(&token);
  EXPECT_THROW(killed.agg->run(), fault::PreemptedError);
  EXPECT_TRUE(token.fired());

  token.reset_ticks();  // the restarted aggregator gets a fresh tick clock
  killed.agg->set_preemption(&token);
  const FedReport resumed = killed.agg->run();

  EXPECT_TRUE(resumed == expect_report)
      << "resumed:\n" << resumed.summary()
      << "uninterrupted:\n" << expect_report.summary();
  const std::vector<float> resumed_params = killed.fleet_params();
  ASSERT_EQ(resumed_params.size(), expect_params.size());
  EXPECT_EQ(std::memcmp(resumed_params.data(), expect_params.data(),
                        expect_params.size() * sizeof(float)),
            0)
      << "published model differs after resume";
  EXPECT_EQ(killed.registry.shard(0).version(),
            plain.registry.shard(0).version());
}

TEST(FedAggregator, TruncatedStateIsACheckpointError) {
  FedOptions opt = test_options();
  opt.rounds = 1;
  FedRig rig(opt);
  rig.agg->run();
  std::ostringstream os;
  rig.agg->save_state(os);
  const std::string state = os.str();
  for (std::size_t n = 0; n < state.size(); ++n) {
    std::istringstream cut(state.substr(0, n));
    EXPECT_THROW(rig.agg->load_state(cut), ckpt::CheckpointError)
        << n << " bytes";
  }
}

// Byte offsets in Aggregator::save_state's layout: the u32 version and the
// 41-byte RNG state, the u64 round index, the phase byte, three u64 merge
// fields (expected parameters first), then the accepted-entry count and
// its 20-byte entries, then the accumulator length and its doubles.
constexpr std::size_t kPhaseAt = 4 + 41 + 8;
constexpr std::size_t kExpectedParamsAt = kPhaseAt + 1;
constexpr std::size_t kAcceptedAt = kExpectedParamsAt + 3 * 8;

std::uint64_t get_u64(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data() + at, sizeof v);
  return v;
}

void put_u64(std::string& s, std::size_t at, std::uint64_t v) {
  std::memcpy(s.data() + at, &v, sizeof v);
}

/// Saves fixed bytes as its state, so a forged aggregator state reaches
/// the store inside a valid, CRC-checked envelope.
class ReplayedState : public ckpt::Checkpointable {
 public:
  explicit ReplayedState(std::string bytes) : bytes_(std::move(bytes)) {}
  const char* checkpoint_kind() const override { return "fed.aggregator"; }
  void save_state(std::ostream& os) override { os << bytes_; }
  void load_state(std::istream&) override {}

 private:
  std::string bytes_;
};

TEST(FedAggregator, ForgedMergeStateIsRejectedOnResume) {
  const FedOptions opt = test_options();
  FedRig rig(opt);
  fault::PreemptionToken token;
  token.arm(1);  // merge tick 1: the state is saved at the merge entry
  rig.agg->set_preemption(&token);
  EXPECT_THROW(rig.agg->run(), fault::PreemptedError);
  token.reset_ticks();

  ckpt::StoreOptions so;
  so.container = opt.state_container;
  ckpt::CheckpointStore store(rig.os, so);
  const auto saved = store.load_latest(opt.ckpt_key);
  ASSERT_TRUE(saved.has_value());
  const std::string state = saved->payload;
  ASSERT_EQ(state[kPhaseAt], 1) << "not saved mid-merge";
  const std::size_t acc_at = kAcceptedAt + 8 + 20 * get_u64(state, kAcceptedAt);
  const std::uint64_t params = get_u64(state, acc_at);
  ASSERT_EQ(params, get_u64(state, kExpectedParamsAt));
  const std::size_t acc_end = acc_at + 8 + params * sizeof(double);

  const auto resume_error = [&](const std::string& forged) -> std::string {
    ReplayedState replay(forged);
    ckpt::save_checkpoint(store, opt.ckpt_key, replay, ckpt::CheckpointInfo{});
    try {
      rig.agg->run();
    } catch (const ckpt::CheckpointError& e) {
      return std::string("CheckpointError: ") + e.what();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };

  // 40,000 entries more than the model has parameters: the parent read
  // past the delta's buffer on the first merge step.
  std::string longer = state;
  longer.insert(acc_end, std::string(40000 * sizeof(double), '\0'));
  put_u64(longer, acc_at, params + 40000);
  EXPECT_NE(resume_error(longer).find("merge accumulator has"),
            std::string::npos);

  // Inflated together, the two lengths agree, so the merge itself must
  // check each delta against the accumulator.
  std::string both = longer;
  put_u64(both, kExpectedParamsAt, params + 40000);
  EXPECT_NE(resume_error(both).find("values, expected"), std::string::npos);

  std::string shorter = state;
  shorter.erase(acc_end - sizeof(double), sizeof(double));
  put_u64(shorter, acc_at, params - 1);
  EXPECT_NE(resume_error(shorter).find("merge accumulator has"),
            std::string::npos);

  std::string bad_phase = state;
  bad_phase[kPhaseAt] = 2;
  EXPECT_NE(resume_error(bad_phase).find("unknown phase"), std::string::npos);

  std::string bad_client = state;
  ASSERT_GT(get_u64(state, kAcceptedAt), 0u);
  bad_client[kAcceptedAt + 8] = 99;  // first accepted entry's client index
  EXPECT_NE(resume_error(bad_client).find("different client set"),
            std::string::npos);

  // A round record one client short: the record follows the u32 failure
  // streaks and holds 67 bytes of fields, its client count, then per
  // client a string, 33 bytes of fields and a string.
  const std::size_t record_at = acc_end + 8 + 4 * get_u64(state, acc_end);
  const std::size_t count_at = record_at + 67;
  std::size_t client_at = count_at + 8, last_client_at = client_at;
  for (std::uint64_t i = 0; i < get_u64(state, count_at); ++i) {
    last_client_at = client_at;
    client_at += 8 + get_u64(state, client_at) + 33;
    client_at += 8 + get_u64(state, client_at);
  }
  std::string short_record = state;
  short_record.erase(last_client_at, client_at - last_client_at);
  put_u64(short_record, count_at, get_u64(state, count_at) - 1);
  EXPECT_NE(resume_error(short_record).find("different client set"),
            std::string::npos);

  // The genuine state still resumes.
  ReplayedState genuine(state);
  ckpt::save_checkpoint(store, opt.ckpt_key, genuine, ckpt::CheckpointInfo{});
  const FedReport report = rig.agg->run();
  EXPECT_EQ(report.rounds_published, 2u);
}

TEST(FedAggregator, EveryMergeKillPointResumesToTheSameModel) {
  FedRig plain(test_options());
  plain.agg->run();
  const std::vector<float> expect_params = plain.fleet_params();

  // 3 accepted deltas per round -> ticks 1..3 kill mid-merge, tick 4 kills
  // between merge completion and publish.
  for (std::uint64_t kill = 1; kill <= 4; ++kill) {
    FedRig rig(test_options());
    fault::PreemptionToken token;
    token.arm(kill);
    rig.agg->set_preemption(&token);
    EXPECT_THROW(rig.agg->run(), fault::PreemptedError) << "tick " << kill;
    token.reset_ticks();
    rig.agg->run();
    const std::vector<float> params = rig.fleet_params();
    EXPECT_EQ(std::memcmp(params.data(), expect_params.data(),
                          expect_params.size() * sizeof(float)),
              0)
        << "kill tick " << kill;
  }
}

TEST(FedAggregator, ChaosArmedPreemptionIsRecordedAndSurvived) {
  FedRig rig(test_options());
  fault::ChaosEngine chaos(rig.queue, 11);
  fault::PreemptionToken token;
  const std::uint64_t tick =
      chaos.arm_preemption(token, {/*min_tick=*/1, /*max_tick=*/3});
  EXPECT_GE(tick, 1u);
  EXPECT_LE(tick, 3u);
  rig.agg->set_preemption(&token);
  EXPECT_THROW(rig.agg->run(), fault::PreemptedError);
  token.reset_ticks();
  const FedReport report = rig.agg->run();
  EXPECT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds_published, 2u);
  EXPECT_EQ(chaos.report().preemptions, 1u);
}

// --- determinism under chaos ----------------------------------------------

FedReport chaos_run(std::uint64_t seed, std::vector<float>* params_out) {
  FedOptions opt = test_options();
  opt.rounds = 3;
  FedRig rig(opt);
  fault::ChaosEngine chaos(rig.queue, seed);
  chaos.attach_network(rig.network);
  chaos.attach_fed(rig.agg->fault_hooks());

  fault::RandomPlanOptions plan;
  plan.horizon_s = 3 * opt.round_timeout_s;
  plan.faults = 6;
  plan.mean_duration_s = opt.round_timeout_s / 2;
  plan.partition_host = car_name(0);
  plan.client_dropout_hosts = {car_name(1), car_name(2)};
  chaos.inject_plan(chaos.random_plan(plan));
  rig.agg->delta_store(2).truncate_next_upload(0.6);

  const FedReport report = rig.agg->run();
  if (params_out) *params_out = rig.fleet_params();
  return report;
}

TEST(FedAggregator, SameSeedSameTimelineUnderChaos) {
  std::vector<float> params_a, params_b;
  const FedReport a = chaos_run(97, &params_a);
  const FedReport b = chaos_run(97, &params_b);
  EXPECT_TRUE(a == b) << "a:\n" << a.summary() << "b:\n" << b.summary();
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(params_a.size(), params_b.size());
  EXPECT_EQ(std::memcmp(params_a.data(), params_b.data(),
                        params_a.size() * sizeof(float)),
            0);
}

TEST(FedAggregator, EveryRoundConvergesUnderChaos) {
  // The round-survival gate: dropout + torn uploads + partitions active,
  // yet every round terminates with a decision and no undetected-corrupt
  // delta is ever accepted (accepted deltas all decoded + validated).
  for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
    const FedReport report = chaos_run(seed, nullptr);
    EXPECT_EQ(report.rounds.size(), 3u) << "seed " << seed;
    for (const RoundRecord& r : report.rounds) {
      // Either the round published (promoted/rolled back) or it recorded
      // a quorum failure — never a hang, never a half-round.
      EXPECT_TRUE(r.quorum_met || r.published_version == 0);
      EXPECT_GT(r.finished_s, r.started_s);
    }
  }
}

// --- canary gate -----------------------------------------------------------

TEST(FedAggregator, BadRoundRollsBackAndIncumbentKeepsServing) {
  FedOptions opt = test_options();
  opt.rounds = 1;
  opt.canary.max_steering_drift = 0.0;  // any drift at all fails the gate
  FedRig rig(opt);
  const auto incumbent = rig.registry.shard(0).current()->model;

  const FedReport report = rig.agg->run();
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_TRUE(report.rounds[0].quorum_met);
  EXPECT_TRUE(report.rounds[0].rolled_back);
  EXPECT_FALSE(report.rounds[0].promoted);
  EXPECT_EQ(report.rounds[0].published_version, 0u);
  EXPECT_EQ(report.rounds_rolled_back, 1u);
  EXPECT_EQ(rig.registry.rollbacks(), 1u);
  // Every shard still serves the incumbent model object.
  for (std::size_t s = 0; s < rig.registry.shards(); ++s) {
    EXPECT_EQ(rig.registry.shard(s).current()->model, incumbent)
        << "shard " << s;
  }
}

// --- transfer partial-visibility property ----------------------------------

TEST(TransferProperty, MidFlightFailureNeverYieldsAPartialDelta) {
  // Delta-sized payload: the real envelope for the rig's model.
  const ml::ModelConfig cfg = tiny_config();
  auto model = ml::make_model(ml::ModelType::Linear, cfg);
  WeightDelta d;
  d.client = "car-01";
  d.round = 1;
  d.base_version = 1;
  d.examples = 10;
  d.values.assign(param_count(*model), 0.125f);
  const std::string payload = encode_delta(d);
  ASSERT_GT(payload.size(), 1000u);

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::EventQueue queue;
    net::Network network;
    network.add_host("car-01");
    network.add_host("cloud");
    network.add_duplex("car-01", "cloud", net::LinkSpec{});
    net::TransferManager transfers{network, queue, util::Rng(seed)};
    objectstore::ObjectStore os;
    ckpt::CheckpointStore store{os};
    store.use_transfer(transfers, "car-01", "cloud");

    // A flap window opens at a random time after the upload starts; some
    // seeds kill the transfer mid-flight, some let it through.
    fault::ChaosEngine chaos(queue, seed);
    chaos.attach_network(network);
    fault::FaultSpec flap;
    flap.kind = fault::FaultKind::TransferFlap;
    flap.at = util::Rng(seed ^ 0xABCD).uniform(0.0, 2.0);
    flap.duration = 60.0;  // outlasts every retry
    flap.target = "car-01";
    flap.peer = "cloud";
    chaos.inject(flap);

    ckpt::CheckpointInfo info;
    info.epoch = 1;
    store.save("fed/car-01/delta", payload, info);
    queue.run();

    // The property: the object is all-or-nothing. Either the full payload
    // committed byte-equal, or no generation exists at all.
    const auto loaded = store.load_latest("fed/car-01/delta");
    if (loaded) {
      EXPECT_EQ(loaded->payload, payload) << "seed " << seed;
    } else {
      EXPECT_GE(store.upload_failures(), 1u) << "seed " << seed;
      EXPECT_TRUE(store.manifest("fed/car-01/delta").empty())
          << "seed " << seed;
    }
    EXPECT_EQ(store.quarantined(), 0u) << "seed " << seed;
  }
}

// --- random_plan backward compatibility (satellite) ------------------------

TEST(RandomPlan, OldOptionSetsProduceBitwiseIdenticalPlans) {
  // Golden plans captured from the pre-federated generator (before
  // client_dropout_hosts existed) for the exact options below. An empty
  // client_dropout_hosts must reproduce them bit for bit.
  struct GoldenSpec {
    fault::FaultKind kind;
    double at, duration;
    const char* target;
    const char* peer;
  };
  using FK = fault::FaultKind;
  const std::vector<GoldenSpec> golden7 = {
      {FK::Partition, 0x1.91088ee9f286ap+2, 0x1.2242ef868a21ep+2, "car-02", ""},
      {FK::LinkDegrade, 0x1.0b99e6f3a94e9p+4, 0x1.bf7af3727e11fp-1, "car-01",
       "cloud"},
      {FK::LinkDegrade, 0x1.b15ce4d3b3309p+4, 0x1.721475be22516p+1, "car-01",
       "cloud"},
      {FK::Partition, 0x1.bf9b9b74eae44p+4, 0x1.28c08188cc4f5p+3, "car-02", ""},
      {FK::LinkDegrade, 0x1.5f4abc8a11a6ep+5, 0x1.427079925a18ap-2, "car-01",
       "cloud"},
      {FK::LinkDegrade, 0x1.db9ce93b6cdd8p+5, 0x1.5c5c8a25722fcp-1, "car-01",
       "cloud"},
  };
  const std::vector<GoldenSpec> golden21 = {
      {FK::LinkDegrade, 0x1.48ebd9f685deep+0, 0x1.1dc3177a1dbd2p-2, "car-01",
       "cloud"},
      {FK::Partition, 0x1.8d48e87ee4b82p+3, 0x1.36780b0c62963p+3, "car-01", ""},
      {FK::Partition, 0x1.f8533165c474cp+4, 0x1.4d166a93ed7bep+0, "car-02", ""},
      {FK::LinkDegrade, 0x1.1e35fbc549121p+5, 0x1.4de539ade9dc8p-2, "car-01",
       "cloud"},
      {FK::Partition, 0x1.833a16fbc686ep+5, 0x1.ea7d04d08f12bp+0, "car-02", ""},
      {FK::Partition, 0x1.cee367b204658p+5, 0x1.1e48e590a6ba4p+3, "car-03", ""},
  };

  const auto check = [](std::uint64_t seed,
                        const std::vector<GoldenSpec>& golden) {
    util::EventQueue queue;
    fault::ChaosEngine engine(queue, seed);
    fault::RandomPlanOptions opt;
    opt.horizon_s = 60.0;
    opt.faults = 6;
    opt.mean_duration_s = 5.0;
    opt.partition_host = "car-01";
    opt.partition_hosts = {"car-02", "car-03"};
    opt.link_from = "car-01";
    opt.link_to = "cloud";
    const auto plan = engine.random_plan(opt);
    ASSERT_EQ(plan.size(), golden.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].kind, golden[i].kind) << "seed " << seed << " #" << i;
      EXPECT_EQ(plan[i].at, golden[i].at) << "seed " << seed << " #" << i;
      EXPECT_EQ(plan[i].duration, golden[i].duration)
          << "seed " << seed << " #" << i;
      EXPECT_EQ(plan[i].target, golden[i].target)
          << "seed " << seed << " #" << i;
      EXPECT_EQ(plan[i].peer, golden[i].peer) << "seed " << seed << " #" << i;
    }
  };
  check(7, golden7);
  check(21, golden21);
}

TEST(RandomPlan, DropoutHostsGenerateDeterministicClientDropouts) {
  const auto make = [] {
    util::EventQueue queue;
    fault::ChaosEngine engine(queue, 13);
    fault::RandomPlanOptions opt;
    opt.horizon_s = 90.0;
    opt.faults = 12;
    opt.mean_duration_s = 10.0;
    opt.partition_host = "car-01";
    opt.link_from = "car-01";
    opt.link_to = "cloud";
    opt.client_dropout_hosts = {"car-02", "car-03"};
    return engine.random_plan(opt);
  };
  const auto plan = make();
  const auto again = make();
  ASSERT_EQ(plan.size(), again.size());
  std::size_t dropouts = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].kind, again[i].kind) << "#" << i;
    EXPECT_EQ(plan[i].at, again[i].at) << "#" << i;
    EXPECT_EQ(plan[i].duration, again[i].duration) << "#" << i;
    EXPECT_EQ(plan[i].target, again[i].target) << "#" << i;
    if (plan[i].kind == fault::FaultKind::ClientDropout) {
      ++dropouts;
      EXPECT_TRUE(plan[i].target == "car-02" || plan[i].target == "car-03");
    }
  }
  EXPECT_GT(dropouts, 0u);
}

// --- options validation ----------------------------------------------------

TEST(FedOptions, ValidateRejectsBadKnobs) {
  FedOptions opt;
  opt.rounds = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FedOptions{};
  opt.quorum_frac = 1.5;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FedOptions{};
  opt.round_timeout_s = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FedOptions{};
  opt.backoff_mult = 0.5;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FedOptions{};
  opt.max_backoff_s = opt.retry_backoff_s - 1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  EXPECT_NO_THROW(FedOptions{}.validate());
}

}  // namespace
}  // namespace autolearn::fed
