// Durable checkpoint subsystem: envelope codec (CRC detection), store
// semantics (atomic staging/commit, generations, retention), corruption
// quarantine with fallback to the previous generation, transfer-routed
// uploads under network faults, and registry warm starts that serve
// without retraining.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "fault/chaos.hpp"
#include "net/network.hpp"
#include "net/transfer.hpp"
#include "objectstore/objectstore.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/event_queue.hpp"

namespace autolearn::ckpt {
namespace {

// --- crc32 / envelope ------------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check string.
  const std::string s = "123456789";
  EXPECT_EQ(crc32(s.data(), s.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(s.data(), 0), 0u);
}

CheckpointInfo sample_info() {
  CheckpointInfo info;
  info.epoch = 3;
  info.step = 42;
  info.seed = 7;
  info.note = "ml.trainer";
  info.metrics["val_loss"] = 0.004;
  return info;
}

TEST(Envelope, RoundTripsPayloadAndHeader) {
  const std::string payload = "model-bytes\0with-nul-and-more";
  const auto bytes = encode_envelope(payload, sample_info());
  const DecodedEnvelope env = decode_envelope(bytes);
  EXPECT_EQ(env.payload, payload);
  EXPECT_EQ(env.info.epoch, 3u);
  EXPECT_EQ(env.info.step, 42u);
  EXPECT_EQ(env.info.seed, 7u);
  EXPECT_EQ(env.info.note, "ml.trainer");
}

TEST(Envelope, DetectsFlippedPayloadByte) {
  auto bytes = encode_envelope("the quick brown fox", sample_info());
  bytes.back() ^= 0x01;  // payload is the envelope tail
  try {
    decode_envelope(bytes);
    FAIL() << "corrupt envelope decoded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointError::Code::CrcMismatch);
  }
}

TEST(Envelope, DetectsTruncation) {
  const auto bytes =
      encode_envelope("some payload that gets cut", sample_info());
  // Every proper prefix fails with the envelope's typed error (a prefix
  // shorter than the header may report BadMagic), never another exception.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + n);
    EXPECT_THROW(decode_envelope(cut), CheckpointError) << n << " bytes";
  }
  auto half = bytes;
  half.resize(bytes.size() / 2);
  try {
    decode_envelope(half);
    FAIL() << "truncated envelope decoded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointError::Code::Truncated);
  }
  // A length field claiming 2^40 bytes is a truncation, not a 1 TiB
  // allocation. The note length follows the 30-byte fixed header; the
  // payload length follows the note.
  const std::size_t note_len_at = 30;
  const std::size_t payload_len_at =
      note_len_at + 8 + sample_info().note.size();
  for (const std::size_t at : {note_len_at, payload_len_at}) {
    auto huge = bytes;
    const std::uint64_t claim = std::uint64_t{1} << 40;
    std::memcpy(huge.data() + at, &claim, sizeof claim);
    try {
      decode_envelope(huge);
      FAIL() << "2^40-byte length field decoded";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointError::Code::Truncated) << "at " << at;
    }
  }
}

TEST(Envelope, RejectsForeignBytes) {
  const std::string junk = "PNG\x89 this is not a checkpoint";
  try {
    decode_envelope(std::vector<std::uint8_t>(junk.begin(), junk.end()));
    FAIL() << "junk decoded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointError::Code::BadMagic);
  }
}

// --- store semantics -------------------------------------------------------

TEST(CheckpointStore, SavesGenerationsAndLoadsNewest) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  CheckpointInfo info = sample_info();
  EXPECT_EQ(store.save("trainer", "v1", info), 1u);
  info.epoch = 4;
  EXPECT_EQ(store.save("trainer", "v2", info), 2u);

  const auto loaded = store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "v2");
  EXPECT_EQ(loaded->generation.generation, 2u);
  EXPECT_EQ(loaded->generation.info.epoch, 4u);
  EXPECT_EQ(loaded->quarantined_now, 0u);
  EXPECT_EQ(store.manifest("trainer").size(), 2u);
  // No staging residue after a synchronous commit.
  EXPECT_FALSE(os.get("checkpoints", "trainer#staging").has_value());
}

TEST(CheckpointStore, MissingKeyIsAMissNotACrash) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  EXPECT_FALSE(store.load_latest("never-saved").has_value());
  EXPECT_TRUE(store.manifest("never-saved").empty());
}

TEST(CheckpointStore, RetentionKeepsLastK) {
  objectstore::ObjectStore os;
  StoreOptions opt;
  opt.keep_generations = 3;
  CheckpointStore store(os, opt);
  for (int i = 1; i <= 5; ++i) {
    store.save("trainer", "payload-" + std::to_string(i), sample_info());
  }
  const auto gens = store.manifest("trainer");
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens.front().generation, 3u);
  EXPECT_EQ(gens.back().generation, 5u);
  // Dropped generations are gone from the objectstore too.
  EXPECT_FALSE(os.get("checkpoints", "trainer#gen-1").has_value());
  EXPECT_FALSE(os.get("checkpoints", "trainer#gen-2").has_value());
  EXPECT_TRUE(os.get("checkpoints", "trainer#gen-3").has_value());
}

TEST(CheckpointStore, RejectsZeroRetention) {
  objectstore::ObjectStore os;
  StoreOptions opt;
  opt.keep_generations = 0;
  EXPECT_THROW(CheckpointStore(os, opt), std::invalid_argument);
}

TEST(CheckpointStore, CorruptNewestIsQuarantinedAndPreviousServes) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  obs::MetricsRegistry metrics;
  store.instrument(nullptr, &metrics);
  store.save("trainer", "good-generation", sample_info());
  store.save("trainer", "bad-generation", sample_info());

  // Flip one payload byte of the newest committed object in place.
  auto obj = os.get("checkpoints", "trainer#gen-2");
  ASSERT_TRUE(obj.has_value());
  auto bytes = obj->bytes;
  bytes.back() ^= 0x40;
  os.put("checkpoints", "trainer#gen-2", bytes, obj->metadata);

  const auto loaded = store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "good-generation");
  EXPECT_EQ(loaded->generation.generation, 1u);
  EXPECT_EQ(loaded->quarantined_now, 1u);
  EXPECT_EQ(store.quarantined(), 1u);

  // The corrupt generation is set aside, not deleted, and marked in the
  // manifest so the next load skips it without re-decoding.
  EXPECT_FALSE(os.get("checkpoints", "trainer#gen-2").has_value());
  EXPECT_TRUE(
      os.get("checkpoints", "trainer#gen-2#quarantined").has_value());
  const auto gens = store.manifest("trainer");
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_TRUE(gens.back().quarantined);
  const auto again = store.load_latest("trainer");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->payload, "good-generation");
  EXPECT_EQ(store.quarantined(), 1u);  // no double quarantine
  EXPECT_EQ(metrics.counter("ckpt.quarantined").value(), 1u);
}

TEST(CheckpointStore, TruncatedUploadFallsBackAGeneration) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  store.save("trainer", "intact", sample_info());
  store.truncate_next_upload(0.4);  // torn upload: 40% of the bytes land
  store.save("trainer", "torn-upload-payload", sample_info());

  const auto loaded = store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "intact");
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_TRUE(store.manifest("trainer").back().quarantined);
}

TEST(CheckpointStore, CorruptLengthFieldFallsBackAGeneration) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  store.save("trainer", "intact", CheckpointInfo{});
  store.save("trainer", "length-gets-flipped", CheckpointInfo{});

  // Flip bit 40 of generation 2's payload-length field: byte 43, since the
  // field follows the 30-byte fixed header and the empty note's length.
  auto obj = os.get("checkpoints", "trainer#gen-2");
  ASSERT_TRUE(obj.has_value());
  obj->bytes[43] ^= 0x01;
  os.put("checkpoints", "trainer#gen-2", obj->bytes, obj->metadata);

  const auto loaded = store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "intact");
  EXPECT_EQ(loaded->generation.generation, 1u);
  EXPECT_EQ(store.quarantined(), 1u);
}

TEST(CheckpointStore, SpillsEnvelopesToLocalFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "autolearn_ckpt_spill_test";
  fs::remove_all(dir);
  objectstore::ObjectStore os;
  StoreOptions opt;
  opt.spill_dir = dir.string();
  CheckpointStore store(os, opt);
  store.save("exp/run1", "payload", sample_info());
  EXPECT_TRUE(fs::exists(dir / "exp_run1.gen-1.ckpt"));
  fs::remove_all(dir);
}

// --- Checkpointable helpers ------------------------------------------------

struct Counter final : Checkpointable {
  std::uint64_t value = 0;
  const char* checkpoint_kind() const override { return "test.counter"; }
  void save_state(std::ostream& os) override {
    os.write(reinterpret_cast<const char*>(&value), sizeof value);
  }
  void load_state(std::istream& is) override {
    is.read(reinterpret_cast<char*>(&value), sizeof value);
    if (!is) throw std::runtime_error("counter: truncated");
  }
};

TEST(Checkpointable, SaveRestoreRoundTrip) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  Counter a;
  a.value = 31337;
  save_checkpoint(store, "counter", a, {});
  Counter b;
  EXPECT_FALSE(restore_checkpoint(store, "other-key", b));
  EXPECT_TRUE(restore_checkpoint(store, "counter", b));
  EXPECT_EQ(b.value, 31337u);
  // The default note records the kind.
  EXPECT_EQ(store.manifest("counter").back().info.note, "test.counter");
}

// --- transfer-routed uploads ----------------------------------------------

struct TransferRig {
  util::EventQueue queue;
  net::Network network;
  net::TransferManager transfers{network, queue, util::Rng(5)};
  objectstore::ObjectStore os;
  CheckpointStore store{os};

  TransferRig() {
    network.add_host("edge");
    network.add_host("cloud");
    network.add_duplex("edge", "cloud", net::LinkSpec{});
    store.use_transfer(transfers, "edge", "cloud");
  }
};

TEST(CheckpointStore, TransferRoutedCommitLandsWhenTheQueueRuns) {
  TransferRig rig;
  rig.store.save("trainer", "shipped", sample_info());
  EXPECT_EQ(rig.store.pending_uploads(), 1u);
  // Staged but not committed: nothing visible yet.
  EXPECT_FALSE(rig.store.load_latest("trainer").has_value());
  rig.queue.run();
  EXPECT_EQ(rig.store.pending_uploads(), 0u);
  const auto loaded = rig.store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "shipped");
  EXPECT_EQ(rig.store.upload_failures(), 0u);
}

TEST(CheckpointStore, PartitionedUploadFailsAndPreviousStaysCurrent) {
  TransferRig rig;
  rig.store.save("trainer", "landed", sample_info());
  rig.queue.run();
  rig.network.partition_host("cloud");
  rig.store.save("trainer", "lost-in-transit", sample_info());
  rig.queue.run();
  EXPECT_EQ(rig.store.upload_failures(), 1u);
  const auto loaded = rig.store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "landed");
}

TEST(ChaosEngine, CheckpointTruncateFaultTearsTheNextUpload) {
  util::EventQueue queue;
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  fault::ChaosEngine chaos(queue, 9);
  chaos.attach_checkpoints(store);
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::CheckpointTruncate;
  spec.at = 0.0;
  spec.truncate_frac = 0.3;
  chaos.inject(spec);
  queue.run();  // the fault arms the torn upload

  store.save("trainer", "lost-to-the-torn-upload", sample_info());
  // The torn envelope's CRC cannot match: it is quarantined at load time
  // and the key has no valid generation left.
  EXPECT_FALSE(store.load_latest("trainer").has_value());
  EXPECT_EQ(store.quarantined(), 1u);

  store.save("trainer", "healthy", sample_info());
  const auto loaded = store.load_latest("trainer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "healthy");
  EXPECT_EQ(chaos.report().count(fault::FaultKind::CheckpointTruncate), 1u);
}

// --- registry warm start ---------------------------------------------------

std::shared_ptr<ml::DrivingModel> shared_model(std::uint64_t seed) {
  ml::ModelConfig cfg;
  cfg.seed = seed;
  return std::shared_ptr<ml::DrivingModel>(
      ml::make_model(ml::ModelType::Linear, cfg));
}

ml::Sample probe_sample() {
  ml::Sample s;
  s.frames.emplace_back(32, 24, 0.42f);
  return s;
}

TEST(ModelRegistry, WarmStartRestoresTheNewestValidBundle) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  ml::ModelConfig cfg;
  cfg.seed = 77;

  serve::ModelRegistry source;
  source.publish(shared_model(77), "bootstrap");
  EXPECT_FALSE(
      serve::ModelRegistry().checkpoint_current(store, "model", cfg)
          .has_value());  // empty registry: nothing to persist
  const auto gen = source.checkpoint_current(store, "model", cfg);
  ASSERT_TRUE(gen.has_value());
  EXPECT_EQ(*gen, 1u);

  serve::ModelRegistry cold;
  EXPECT_FALSE(cold.warm_start(store, "no-such-key").has_value());
  const auto version = cold.warm_start(store, "model");
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(*version, 1u);
  const auto snap = cold.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->tag, "warm-start:gen-1");
  EXPECT_EQ(snap->model->type(), ml::ModelType::Linear);

  // The restored model computes exactly what the published one did.
  const ml::Sample probe = probe_sample();
  const ml::Prediction a = source.current()->model->predict(probe);
  const ml::Prediction b = snap->model->predict(probe);
  EXPECT_DOUBLE_EQ(a.steering, b.steering);
  EXPECT_DOUBLE_EQ(a.throttle, b.throttle);
}

TEST(ModelRegistry, WarmStartSkipsACorruptNewestGeneration) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  ml::ModelConfig cfg;
  cfg.seed = 5;
  serve::ModelRegistry source;
  source.publish(shared_model(5), "v1");
  source.checkpoint_current(store, "model", cfg);
  source.publish(shared_model(6), "v2");
  source.checkpoint_current(store, "model", cfg);

  auto obj = os.get("checkpoints", "model#gen-2");
  ASSERT_TRUE(obj.has_value());
  auto bytes = obj->bytes;
  bytes[bytes.size() / 2] ^= 0xff;
  os.put("checkpoints", "model#gen-2", bytes, obj->metadata);

  serve::ModelRegistry cold;
  const auto version = cold.warm_start(store, "model");
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(cold.current()->tag, "warm-start:gen-1");
  EXPECT_EQ(store.quarantined(), 1u);
}

TEST(FleetService, ServesFirstRequestFromAWarmStartWithoutRetraining) {
  objectstore::ObjectStore os;
  CheckpointStore store(os);
  ml::ModelConfig cfg;
  cfg.seed = 42;
  {
    serve::ModelRegistry trained;
    trained.publish(shared_model(42), "trained");
    trained.checkpoint_current(store, "fleet-model", cfg);
  }  // process "restarts": only the checkpoint survives

  util::EventQueue queue;
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.warm_start(store, "fleet-model").has_value());

  serve::FleetOptions opt;
  opt.cars = 2;
  opt.duration_s = 0.5;
  opt.mean_interarrival_s = 0.05;
  opt.batcher.max_batch = 4;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::OnDevice;
  opt.seed = 3;
  serve::FleetService service(queue, registry, opt);
  const serve::ServeReport report = service.run();
  EXPECT_GT(report.requests, 0u);
  EXPECT_EQ(report.requests, report.completed + report.shed);
  ASSERT_FALSE(report.records.empty());
  // Every completion was served by the warm-started version 1 model.
  EXPECT_EQ(report.requests_by_version.size(), 1u);
  EXPECT_EQ(report.requests_by_version.begin()->first, 1u);
}

}  // namespace
}  // namespace autolearn::ckpt
