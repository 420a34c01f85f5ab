#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/binio.hpp"

namespace autolearn::ckpt {
namespace {

constexpr std::uint32_t kMagic = 0x4b434c41;  // "ALCK" little-endian
constexpr std::uint16_t kVersion = 1;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

util::Json info_to_json(const GenerationInfo& g) {
  util::Json entry = util::Json::object();
  entry.set("generation", util::Json(g.generation));
  entry.set("bytes", util::Json(g.bytes));
  entry.set("crc", util::Json(static_cast<std::size_t>(g.crc)));
  entry.set("quarantined", util::Json(g.quarantined));
  entry.set("epoch", util::Json(g.info.epoch));
  entry.set("step", util::Json(g.info.step));
  entry.set("seed", util::Json(g.info.seed));
  entry.set("note", util::Json(g.info.note));
  util::Json metrics = util::Json::object();
  for (const auto& [name, value] : g.info.metrics) {
    metrics.set(name, util::Json(value));
  }
  entry.set("metrics", std::move(metrics));
  return entry;
}

GenerationInfo info_from_json(const util::Json& entry) {
  GenerationInfo g;
  g.generation = static_cast<std::uint64_t>(entry.at("generation").as_int());
  g.bytes = static_cast<std::uint64_t>(entry.at("bytes").as_int());
  g.crc = static_cast<std::uint32_t>(entry.at("crc").as_int());
  g.quarantined = entry.at("quarantined").as_bool();
  g.info.epoch = static_cast<std::uint64_t>(entry.at("epoch").as_int());
  g.info.step = static_cast<std::uint64_t>(entry.at("step").as_int());
  g.info.seed = static_cast<std::uint64_t>(entry.at("seed").as_int());
  g.info.note = entry.at("note").as_string();
  for (const auto& [name, value] : entry.at("metrics").as_object()) {
    g.info.metrics[name] = value.as_number();
  }
  return g;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_envelope(const std::string& payload,
                                          const CheckpointInfo& info) {
  std::ostringstream os(std::ios::binary);
  util::write_pod(os, kMagic);
  util::write_pod(os, kVersion);
  util::write_pod(os, info.epoch);
  util::write_pod(os, info.step);
  util::write_pod(os, info.seed);
  util::write_string(os, info.note);
  util::write_pod(os, static_cast<std::uint64_t>(payload.size()));
  util::write_pod(os, crc32(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::string s = os.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

DecodedEnvelope decode_envelope(const std::vector<std::uint8_t>& bytes) {
  std::istringstream is(std::string(bytes.begin(), bytes.end()),
                        std::ios::binary);
  util::BinReader<CheckpointError> r(is, "checkpoint");
  if (r.pod<std::uint32_t>("header") != kMagic) {
    throw CheckpointError(CheckpointError::Code::BadMagic,
                          "checkpoint: bad magic");
  }
  if (r.pod<std::uint16_t>("header") > kVersion) {
    throw CheckpointError(CheckpointError::Code::BadVersion,
                          "checkpoint: unsupported format version");
  }
  DecodedEnvelope out;
  out.info.epoch = r.pod<std::uint64_t>("header");
  out.info.step = r.pod<std::uint64_t>("header");
  out.info.seed = r.pod<std::uint64_t>("header");
  out.info.note = r.string("header");
  const auto payload_size = r.pod<std::uint64_t>("header");
  const auto expected_crc = r.pod<std::uint32_t>("header");
  out.payload = r.bytes(payload_size, "payload");
  if (crc32(out.payload.data(), out.payload.size()) != expected_crc) {
    throw CheckpointError(CheckpointError::Code::CrcMismatch,
                          "checkpoint: CRC mismatch");
  }
  return out;
}

CheckpointStore::CheckpointStore(objectstore::ObjectStore& store,
                                 StoreOptions options)
    : store_(store), options_(std::move(options)) {
  if (options_.keep_generations == 0) {
    throw std::invalid_argument("CheckpointStore: keep_generations >= 1");
  }
  if (!store_.has_container(options_.container)) {
    store_.create_container(options_.container);
  }
}

void CheckpointStore::instrument(obs::Tracer* tracer,
                                 obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

void CheckpointStore::use_transfer(net::TransferManager& transfers,
                                   std::string from_host,
                                   std::string to_host) {
  transfers_ = &transfers;
  from_host_ = std::move(from_host);
  to_host_ = std::move(to_host);
}

void CheckpointStore::set_commit_hook(
    std::function<void(const std::string&, std::uint64_t, std::size_t)> hook) {
  commit_hook_ = std::move(hook);
}

void CheckpointStore::corrupt_next_upload() { corrupt_next_ = true; }

void CheckpointStore::truncate_next_upload(double fraction) {
  truncate_fraction_ = std::clamp(fraction, 0.0, 1.0);
}

std::string CheckpointStore::object_name(const std::string& key,
                                         std::uint64_t generation) const {
  return key + "#gen-" + std::to_string(generation);
}

util::Json CheckpointStore::read_manifest(const std::string& key) const {
  const auto obj = store_.get(options_.container, key + "#manifest");
  if (!obj) {
    util::Json manifest = util::Json::object();
    manifest.set("key", util::Json(key));
    manifest.set("next_generation", util::Json(std::uint64_t{1}));
    manifest.set("generations", util::Json::array());
    return manifest;
  }
  return util::Json::parse(std::string(obj->bytes.begin(), obj->bytes.end()));
}

void CheckpointStore::write_manifest(const std::string& key,
                                     const util::Json& manifest) {
  store_.put_text(options_.container, key + "#manifest", manifest.dump());
}

std::vector<GenerationInfo> CheckpointStore::manifest(
    const std::string& key) const {
  std::vector<GenerationInfo> out;
  const util::Json m = read_manifest(key);
  for (const util::Json& entry : m.at("generations").as_array()) {
    out.push_back(info_from_json(entry));
  }
  return out;
}

std::uint64_t CheckpointStore::save(const std::string& key,
                                    const std::string& payload,
                                    const CheckpointInfo& info) {
  const obs::SpanGuard span(tracer_, "ckpt.save", "ckpt");
  ++saves_;
  if (metrics_) {
    metrics_->counter("ckpt.saves").inc();
    metrics_->counter("ckpt.save_bytes").inc(payload.size());
  }

  // Reserve the generation number up front so concurrent in-flight uploads
  // commit under distinct names in save order.
  util::Json m = read_manifest(key);
  const std::uint64_t generation =
      static_cast<std::uint64_t>(m.at("next_generation").as_int());
  m.set("next_generation", util::Json(generation + 1));
  write_manifest(key, m);

  std::vector<std::uint8_t> bytes = encode_envelope(payload, info);
  const std::uint32_t payload_crc = crc32(payload.data(), payload.size());

  // Stage first (the "write" half of write-rename): a crash or failed
  // upload beyond this point never affects the visible generations.
  store_.put(options_.container, key + "#staging", bytes,
             {{"generation", std::to_string(generation)},
              {"note", info.note}});

  if (!transfers_) {
    commit(key, generation, std::move(bytes), info, payload_crc);
    return generation;
  }

  ++pending_uploads_;
  auto finish = [this, key, generation, info, payload_crc,
                 bytes = std::move(bytes)](bool ok) mutable {
    --pending_uploads_;
    if (ok) {
      commit(key, generation, std::move(bytes), info, payload_crc);
    } else {
      ++upload_failures_;
      if (metrics_) metrics_->counter("ckpt.upload_failures").inc();
      if (tracer_) {
        util::Json args = util::Json::object();
        args.set("key", util::Json(key));
        args.set("generation", util::Json(generation));
        tracer_->instant("ckpt.upload_failed", "ckpt", std::move(args));
      }
    }
  };
  try {
    transfers_->start(from_host_, to_host_, bytes.size(),
                      [finish](const net::TransferResult& r) mutable {
                        finish(r.status == net::TransferStatus::Done);
                      });
  } catch (const net::UnreachableError&) {
    finish(false);
  }
  return generation;
}

void CheckpointStore::commit(const std::string& key, std::uint64_t generation,
                             std::vector<std::uint8_t> bytes,
                             const CheckpointInfo& info,
                             std::uint32_t payload_crc) {
  if (truncate_fraction_) {
    // Injected torn upload: the object store accepted a prefix. Length and
    // CRC checks catch it at load time; recovery falls back a generation.
    bytes.resize(static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * *truncate_fraction_));
    truncate_fraction_.reset();
    if (metrics_) metrics_->counter("ckpt.truncated_uploads").inc();
  }
  if (corrupt_next_) {
    // Injected in-transit corruption: flip a run of bytes in the back
    // half of the envelope (the payload region — the header sits at the
    // front), so the length checks pass but the payload CRC cannot.
    const std::size_t begin = bytes.size() / 2;
    const std::size_t end = std::min(bytes.size(), begin + 8);
    for (std::size_t i = begin; i < end; ++i) bytes[i] ^= 0xFF;
    corrupt_next_ = false;
    if (metrics_) metrics_->counter("ckpt.corrupted_uploads").inc();
  }

  GenerationInfo entry;
  entry.generation = generation;
  entry.bytes = bytes.size();
  entry.crc = payload_crc;
  entry.info = info;

  spill(key, generation, bytes);
  store_.put(options_.container, object_name(key, generation),
             std::move(bytes),
             {{"epoch", std::to_string(info.epoch)},
              {"step", std::to_string(info.step)},
              {"note", info.note}});
  store_.remove(options_.container, key + "#staging");

  util::Json m = read_manifest(key);
  // Manifest entries commit in generation order even when transfers land
  // out of order, so "newest" stays well-defined.
  util::JsonArray arr = m.at("generations").as_array();
  auto pos = std::find_if(arr.begin(), arr.end(), [&](const util::Json& e) {
    return static_cast<std::uint64_t>(e.at("generation").as_int()) >
           generation;
  });
  arr.insert(pos, info_to_json(entry));

  // Retention: keep the newest keep_generations entries, delete the rest.
  while (arr.size() > options_.keep_generations) {
    const GenerationInfo old = info_from_json(arr.front());
    const std::string name =
        old.quarantined ? object_name(key, old.generation) + "#quarantined"
                        : object_name(key, old.generation);
    store_.remove(options_.container, name);
    arr.erase(arr.begin());
  }
  m.set("generations", util::Json(std::move(arr)));
  write_manifest(key, m);

  if (metrics_) {
    metrics_->counter("ckpt.commits").inc();
    metrics_->gauge("ckpt.generation." + key)
        .set(static_cast<double>(generation));
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("key", util::Json(key));
    args.set("generation", util::Json(generation));
    args.set("bytes", util::Json(entry.bytes));
    args.set("note", util::Json(info.note));
    tracer_->instant("ckpt.commit", "ckpt", std::move(args));
  }
  if (commit_hook_) commit_hook_(key, generation, entry.bytes);
}

void CheckpointStore::spill(const std::string& key, std::uint64_t generation,
                            const std::vector<std::uint8_t>& bytes) const {
  if (options_.spill_dir.empty()) return;
  namespace fs = std::filesystem;
  std::string flat = key;
  std::replace(flat.begin(), flat.end(), '/', '_');
  fs::create_directories(options_.spill_dir);
  const fs::path path = fs::path(options_.spill_dir) /
                        (flat + ".gen-" + std::to_string(generation) + ".ckpt");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void CheckpointStore::quarantine(const std::string& key,
                                 std::uint64_t generation) {
  const std::string name = object_name(key, generation);
  if (const auto obj = store_.get(options_.container, name)) {
    store_.put(options_.container, name + "#quarantined", obj->bytes,
               obj->metadata);
    store_.remove(options_.container, name);
  }
  util::Json m = read_manifest(key);
  util::JsonArray arr = m.at("generations").as_array();
  for (util::Json& entry : arr) {
    if (static_cast<std::uint64_t>(entry.at("generation").as_int()) ==
        generation) {
      entry.set("quarantined", util::Json(true));
    }
  }
  m.set("generations", util::Json(std::move(arr)));
  write_manifest(key, m);
  ++quarantined_;
  if (metrics_) metrics_->counter("ckpt.quarantined").inc();
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("key", util::Json(key));
    args.set("generation", util::Json(generation));
    tracer_->instant("ckpt.corrupt", "ckpt", std::move(args));
  }
}

std::optional<CheckpointStore::Loaded> CheckpointStore::load_latest(
    const std::string& key) {
  const obs::SpanGuard span(tracer_, "ckpt.restore", "ckpt");
  const std::vector<GenerationInfo> gens = manifest(key);
  std::size_t quarantined_now = 0;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    if (it->quarantined) continue;
    const auto obj = store_.get(options_.container,
                                object_name(key, it->generation));
    if (!obj) continue;  // commit still in flight (or lost upload)
    try {
      DecodedEnvelope env = decode_envelope(obj->bytes);
      if (metrics_) {
        metrics_->counter("ckpt.restores").inc();
        metrics_->counter("ckpt.restore_bytes").inc(env.payload.size());
      }
      Loaded loaded;
      loaded.payload = std::move(env.payload);
      loaded.generation = *it;
      loaded.quarantined_now = quarantined_now;
      return loaded;
    } catch (const CheckpointError&) {
      // Corrupt (flipped byte, truncated upload): set it aside and fall
      // back to the previous generation rather than crash or misload.
      quarantine(key, it->generation);
      ++quarantined_now;
    }
  }
  if (metrics_) metrics_->counter("ckpt.restore_misses").inc();
  return std::nullopt;
}

std::uint64_t save_checkpoint(CheckpointStore& store, const std::string& key,
                              Checkpointable& object, CheckpointInfo info) {
  if (info.note.empty()) info.note = object.checkpoint_kind();
  std::ostringstream os(std::ios::binary);
  object.save_state(os);
  return store.save(key, os.str(), info);
}

bool restore_checkpoint(CheckpointStore& store, const std::string& key,
                        Checkpointable& object) {
  const auto loaded = store.load_latest(key);
  if (!loaded) return false;
  std::istringstream is(loaded->payload, std::ios::binary);
  object.load_state(is);
  return true;
}

}  // namespace autolearn::ckpt
