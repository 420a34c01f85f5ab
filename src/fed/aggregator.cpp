#include "fed/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/binio.hpp"

namespace autolearn::fed {
namespace {

// The aggregator's checkpoint state rides inside a CRC envelope, so a
// short read here means a torn or forged payload: it surfaces as the
// checkpoint's typed error.
using StateReader = util::BinReader<ckpt::CheckpointError>;

void put_client(std::ostream& os, const ClientRoundRecord& c) {
  util::write_string(os, c.client);
  util::write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(c.outcome));
  util::write_pod<std::uint64_t>(os, c.examples);
  util::write_pod<double>(os, c.backoff_s);
  util::write_pod<double>(os, c.upload_start_s);
  util::write_pod<double>(os, c.committed_s);
  util::write_string(os, c.detail);
}

ClientRoundRecord get_client(StateReader& r) {
  ClientRoundRecord c;
  c.client = r.string("client record");
  c.outcome = static_cast<ClientOutcome>(r.pod<std::uint8_t>("client record"));
  c.examples = r.pod<std::uint64_t>("client record");
  c.backoff_s = r.pod<double>("client record");
  c.upload_start_s = r.pod<double>("client record");
  c.committed_s = r.pod<double>("client record");
  c.detail = r.string("client record");
  return c;
}

void put_round(std::ostream& os, const RoundRecord& r) {
  util::write_pod<std::uint64_t>(os, r.round);
  util::write_pod<double>(os, r.started_s);
  util::write_pod<double>(os, r.cutoff_s);
  util::write_pod<double>(os, r.finished_s);
  util::write_pod<std::uint64_t>(os, r.base_version);
  util::write_pod<std::uint64_t>(os, r.published_version);
  util::write_pod<std::uint8_t>(os, r.quorum_met ? 1 : 0);
  util::write_pod<std::uint8_t>(os, r.promoted ? 1 : 0);
  util::write_pod<std::uint8_t>(os, r.rolled_back ? 1 : 0);
  util::write_pod<std::uint64_t>(os, r.accepted);
  util::write_pod<std::uint64_t>(os, r.total_examples);
  util::write_pod<std::uint64_t>(os, r.clients.size());
  for (const ClientRoundRecord& c : r.clients) put_client(os, c);
}

RoundRecord get_round(StateReader& r) {
  RoundRecord out;
  out.round = r.pod<std::uint64_t>("round record");
  out.started_s = r.pod<double>("round record");
  out.cutoff_s = r.pod<double>("round record");
  out.finished_s = r.pod<double>("round record");
  out.base_version = r.pod<std::uint64_t>("round record");
  out.published_version = r.pod<std::uint64_t>("round record");
  out.quorum_met = r.pod<std::uint8_t>("round record") != 0;
  out.promoted = r.pod<std::uint8_t>("round record") != 0;
  out.rolled_back = r.pod<std::uint8_t>("round record") != 0;
  out.accepted = r.size("round record");
  out.total_examples = r.pod<std::uint64_t>("round record");
  const auto n = r.pod<std::uint64_t>("round record");
  for (std::uint64_t i = 0; i < n; ++i) out.clients.push_back(get_client(r));
  return out;
}

constexpr std::uint32_t kStateVersion = 1;

}  // namespace

void FedOptions::validate() const {
  if (rounds == 0) {
    throw std::invalid_argument("fed: rounds must be >= 1");
  }
  if (!std::isfinite(round_timeout_s) || round_timeout_s <= 0) {
    throw std::invalid_argument("fed: round_timeout_s must be positive");
  }
  if (!std::isfinite(quorum_frac) || quorum_frac <= 0 || quorum_frac > 1) {
    throw std::invalid_argument("fed: quorum_frac must be in (0, 1]");
  }
  if (!std::isfinite(server_lr) || server_lr <= 0) {
    throw std::invalid_argument("fed: server_lr must be positive");
  }
  if (!std::isfinite(retry_backoff_s) || retry_backoff_s < 0) {
    throw std::invalid_argument("fed: retry_backoff_s must be >= 0");
  }
  if (!std::isfinite(backoff_mult) || backoff_mult < 1) {
    throw std::invalid_argument("fed: backoff_mult must be >= 1");
  }
  if (!std::isfinite(max_backoff_s) || max_backoff_s < retry_backoff_s) {
    throw std::invalid_argument("fed: max_backoff_s must be >= retry_backoff_s");
  }
  if (!std::isfinite(upload_jitter_s) || upload_jitter_s < 0) {
    throw std::invalid_argument("fed: upload_jitter_s must be >= 0");
  }
  if (cloud_host.empty()) {
    throw std::invalid_argument("fed: cloud_host must be non-empty");
  }
  if (delta_container.empty() || state_container.empty() ||
      ckpt_key.empty()) {
    throw std::invalid_argument(
        "fed: delta_container/state_container/ckpt_key must be non-empty");
  }
  if (canary_gate) serve::throw_first_issue(canary);
}

Aggregator::Aggregator(util::EventQueue& queue,
                       serve::ReplicatedRegistry& registry,
                       net::TransferManager& transfers,
                       objectstore::ObjectStore& store, ml::ModelType type,
                       ml::ModelConfig config, FedOptions options)
    : queue_(queue),
      registry_(registry),
      transfers_(transfers),
      objects_(store),
      type_(type),
      config_(config),
      options_(std::move(options)),
      rng_(options_.seed) {
  options_.validate();
  ckpt::StoreOptions so;
  so.container = options_.state_container;
  state_store_ = std::make_unique<ckpt::CheckpointStore>(objects_, so);
}

std::string Aggregator::delta_key(std::size_t client) const {
  return "fed/" + clients_[client]->name() + "/delta";
}

std::size_t Aggregator::add_client(ClientOptions copts,
                                   std::vector<ml::Sample> slice) {
  for (const auto& existing : clients_) {
    if (existing->name() == copts.name) {
      throw std::invalid_argument("fed: duplicate client name " + copts.name);
    }
  }
  const std::size_t index = clients_.size();
  clients_.push_back(std::make_unique<EdgeClient>(std::move(copts), type_,
                                                  config_, std::move(slice)));

  ckpt::StoreOptions so;
  so.container = options_.delta_container;
  auto store = std::make_unique<ckpt::CheckpointStore>(objects_, so);
  store->use_transfer(transfers_, clients_[index]->name(),
                      options_.cloud_host);
  store->instrument(tracer_, metrics_);
  // Timestamps the landing on the virtual clock and meters shipped bytes.
  // A delta landing after its round's cutoff (stale epoch) still counts as
  // shipped bytes but never back-fills a later round's record.
  store->set_commit_hook([this, index](const std::string& key,
                                       std::uint64_t generation,
                                       std::size_t bytes) {
    report_.delta_bytes_shipped += bytes;
    if (metrics_) {
      metrics_->counter("fed.delta.bytes").inc(static_cast<double>(bytes));
    }
    if (index >= record_.clients.size()) return;
    for (const ckpt::GenerationInfo& g : delta_stores_[index]->manifest(key)) {
      if (g.generation == generation && g.info.epoch == record_.round) {
        record_.clients[index].committed_s = queue_.now();
      }
    }
  });
  delta_stores_.push_back(std::move(store));
  down_.push_back(0);
  failure_streak_.push_back(0);
  return index;
}

void Aggregator::set_probes(std::vector<ml::Sample> probes) {
  probes_ = std::move(probes);
}

void Aggregator::instrument(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  state_store_->instrument(tracer, metrics);
  for (auto& store : delta_stores_) store->instrument(tracer, metrics);
}

void Aggregator::set_preemption(fault::PreemptionToken* token) {
  preempt_ = token;
}

fault::FedHooks Aggregator::fault_hooks() {
  fault::FedHooks hooks;
  hooks.client_state = [this](const std::string& client, bool down) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->name() == client) down_[i] = down ? 1 : 0;
    }
  };
  hooks.corrupt_next_delta = [this](const std::string& client) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->name() == client) {
        delta_stores_[i]->corrupt_next_upload();
      }
    }
  };
  return hooks;
}

double Aggregator::backoff_s(std::size_t client) const {
  const std::uint32_t streak = failure_streak_[client];
  if (streak == 0 || options_.retry_backoff_s == 0) return 0.0;
  const double raw = options_.retry_backoff_s *
                     std::pow(options_.backoff_mult,
                              static_cast<double>(streak - 1));
  return std::min(raw, options_.max_backoff_s);
}

void Aggregator::preempt_tick() {
  if (preempt_ && preempt_->tick()) {
    throw fault::PreemptedError(
        preempt_->ticks(),
        "fed aggregator preempted mid-merge (lease expired)");
  }
}

void Aggregator::checkpoint() {
  ckpt::CheckpointInfo info;
  info.epoch = round_index_ + 1;
  info.step = merged_prefix_;
  info.seed = options_.seed;
  ckpt::save_checkpoint(*state_store_, options_.ckpt_key, *this, info);
}

FedReport Aggregator::run() {
  if (clients_.empty()) {
    throw std::logic_error("fed: add_client before run()");
  }
  if (options_.canary_gate && probes_.empty()) {
    throw std::logic_error("fed: canary gate needs probes (set_probes)");
  }

  const bool resumed =
      ckpt::restore_checkpoint(*state_store_, options_.ckpt_key, *this);
  if (resumed) {
    if (metrics_) metrics_->counter("fed.resumes").inc();
    if (tracer_) {
      util::Json args = util::Json::object();
      args.set("round", util::Json(round_index_ + 1));
      args.set("mid_merge", util::Json(phase_ == Phase::Merge));
      args.set("merged_prefix", util::Json(merged_prefix_));
      tracer_->instant("fed.resume", "fed", std::move(args));
    }
  }

  while (round_index_ < options_.rounds) {
    if (phase_ == Phase::Collect) {
      collect_and_cutoff();
      if (!record_.quorum_met) {
        record_.finished_s = queue_.now();
        finalize_round();
        continue;
      }
      phase_ = Phase::Merge;
      acc_.assign(static_cast<std::size_t>(expected_params_), 0.0);
      weight_so_far_ = 0;
      merged_prefix_ = 0;
      checkpoint();  // merge entry point: resume repeats no collect work
    }
    merge_round();
    publish_round();
    finalize_round();
  }
  return report_;
}

void Aggregator::collect_and_cutoff() {
  const double t0 = queue_.now();
  const auto snapshot = registry_.shard(0).current();
  if (!snapshot) {
    throw std::logic_error(
        "fed: bootstrap-publish a model (publish_all) before run()");
  }
  expected_params_ = param_count(*snapshot->model);

  record_ = RoundRecord{};
  record_.round = round_index_ + 1;
  record_.started_s = t0;
  record_.cutoff_s = t0 + options_.round_timeout_s;
  record_.base_version = snapshot->version;
  record_.clients.resize(clients_.size());

  std::vector<char> participant(clients_.size(), 0);
  std::vector<std::size_t> fail_base(clients_.size(), 0);

  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientRoundRecord& c = record_.clients[i];
    c.client = clients_[i]->name();
    c.backoff_s = backoff_s(i);
    if (down_[i]) {
      c.outcome = ClientOutcome::Dropout;
      c.detail = "offline at round start";
      continue;
    }
    participant[i] = 1;
    c.outcome = ClientOutcome::Straggler;  // provisional until the scan

    EdgeClient::LocalUpdate update = clients_[i]->compute_update(
        *snapshot->model, snapshot->version, record_.round);
    const double jitter = rng_.uniform(0.0, options_.upload_jitter_s);
    const double at = t0 + c.backoff_s + update.compute_s + jitter;
    c.upload_start_s = at;
    fail_base[i] = delta_stores_[i]->upload_failures();

    std::string payload = encode_delta(update.delta);
    const std::uint64_t round = record_.round;
    queue_.schedule_at(at, [this, i, round,
                            payload = std::move(payload)]() mutable {
      if (record_.round != round) return;  // round moved on; stale upload
      ClientRoundRecord& cr = record_.clients[i];
      if (down_[i]) {
        cr.outcome = ClientOutcome::Dropout;
        cr.detail = "went offline before the upload";
        cr.upload_start_s = -1.0;
        return;
      }
      ckpt::CheckpointInfo info;
      info.epoch = round;
      info.seed = options_.seed;
      info.note = "fed.delta";
      delta_stores_[i]->save(delta_key(i), payload, info);
    });
  }

  queue_.run_until(record_.cutoff_s);

  std::size_t participants = 0;
  for (const char p : participant) participants += p ? 1 : 0;

  accepted_.clear();
  std::uint64_t total_examples = 0;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (!participant[i]) continue;
    ClientRoundRecord& c = record_.clients[i];

    // load_latest quarantines corrupt generations as a side effect, so the
    // manifest scan below sees this round's torn/bit-flipped uploads.
    const auto loaded = delta_stores_[i]->load_latest(delta_key(i));
    bool quarantined_round = false;
    for (const ckpt::GenerationInfo& g :
         delta_stores_[i]->manifest(delta_key(i))) {
      if (g.quarantined && g.info.epoch == record_.round) {
        quarantined_round = true;
      }
    }
    const bool fresh =
        loaded && loaded->generation.info.epoch == record_.round;

    if (fresh) {
      try {
        const WeightDelta d = decode_delta(loaded->payload);
        validate_delta(d, static_cast<std::size_t>(expected_params_));
        c.outcome = ClientOutcome::Accepted;
        c.examples = d.examples;
        c.detail.clear();
        AcceptedEntry entry;
        entry.client = static_cast<std::uint32_t>(i);
        entry.examples = d.examples;
        entry.generation = loaded->generation.generation;
        accepted_.push_back(entry);
        total_examples += d.examples;
      } catch (const DeltaError& e) {
        // Survived the CRC but failed structural/finiteness validation:
        // the second fence. Never merged.
        c.outcome = ClientOutcome::Quarantined;
        c.detail = e.what();
      }
    } else if (quarantined_round) {
      c.outcome = ClientOutcome::Quarantined;
      c.detail = "delta failed the CRC envelope; retrying with backoff";
    } else if (c.outcome == ClientOutcome::Dropout) {
      // Went down before its upload fired; detail set by the upload event.
    } else if (down_[i]) {
      c.outcome = ClientOutcome::Dropout;
      c.detail = "went offline mid-round";
    } else if (delta_stores_[i]->upload_failures() > fail_base[i]) {
      c.outcome = ClientOutcome::TransferFailed;
      c.detail = "transfer attempts exhausted";
    } else {
      c.outcome = ClientOutcome::Straggler;
      c.detail = "missed the cutoff";
    }
  }

  record_.accepted = accepted_.size();
  record_.total_examples = total_examples;
  const auto need = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             options_.quorum_frac * static_cast<double>(participants))));
  record_.quorum_met = participants > 0 && accepted_.size() >= need;

  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("round", util::Json(record_.round));
    args.set("participants", util::Json(std::uint64_t{participants}));
    args.set("accepted", util::Json(std::uint64_t{record_.accepted}));
    args.set("quorum_met", util::Json(record_.quorum_met));
    tracer_->instant("fed.cutoff", "fed", std::move(args));
  }
}

void Aggregator::merge_round() {
  while (merged_prefix_ < accepted_.size()) {
    preempt_tick();  // armed kill lands here, before the step checkpoints
    const AcceptedEntry& e = accepted_[merged_prefix_];
    const auto loaded =
        delta_stores_[e.client]->load_latest(delta_key(e.client));
    if (!loaded || loaded->generation.generation != e.generation) {
      throw std::logic_error("fed: accepted delta vanished before merge");
    }
    const WeightDelta d = decode_delta(loaded->payload);
    validate_delta(d, acc_.size());

    // Running weighted mean: checkpointable after every step, and exactly
    // equal to sum(w_i * d_i) / sum(w_i) once the prefix is complete.
    const double w = static_cast<double>(e.examples);
    const double total = static_cast<double>(weight_so_far_) + w;
    const double keep = static_cast<double>(weight_so_far_) / total;
    const double add = w / total;
    for (std::size_t j = 0; j < acc_.size(); ++j) {
      acc_[j] = acc_[j] * keep + static_cast<double>(d.values[j]) * add;
    }
    weight_so_far_ += e.examples;
    ++merged_prefix_;
    if (metrics_) metrics_->counter("fed.merge.steps").inc();
    checkpoint();  // durable: a kill now loses zero merged work
  }
  preempt_tick();  // pre-publish kill point; resume re-publishes
}

void Aggregator::publish_round() {
  const auto snapshot = registry_.shard(0).current();
  if (!snapshot || snapshot->version != record_.base_version) {
    throw std::logic_error("fed: registry moved under the aggregator "
                           "mid-round; resume requires the same incumbent");
  }

  std::unique_ptr<ml::DrivingModel> merged = ml::make_model(type_, config_);
  {
    std::stringstream weights;
    snapshot->model->save(weights);
    merged->load(weights);
  }
  std::vector<float> step(acc_.size());
  for (std::size_t j = 0; j < acc_.size(); ++j) {
    step[j] = static_cast<float>(options_.server_lr * acc_[j]);
  }
  add_scaled(*merged, step, 1.0f);
  std::shared_ptr<ml::DrivingModel> candidate(std::move(merged));
  const std::string tag = "fed-round-" + std::to_string(record_.round);

  if (options_.canary_gate) {
    const auto outcome = registry_.publish_canary(
        std::move(candidate), tag, options_.canary, probes_, &queue_);
    if (options_.canary.bake_s > 0) {
      queue_.run_until(queue_.now() + options_.canary.bake_s);
    }
    if (!outcome->decided) {
      throw std::logic_error("fed: canary gate never decided");
    }
    record_.promoted = outcome->promoted;
    record_.rolled_back = outcome->rolled_back;
    record_.published_version =
        outcome->promoted ? registry_.shard(0).version() : 0;
  } else {
    record_.published_version =
        registry_.publish_all(std::move(candidate), tag);
    record_.promoted = true;
  }
  record_.finished_s = queue_.now();

  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("round", util::Json(record_.round));
    args.set("promoted", util::Json(record_.promoted));
    args.set("rolled_back", util::Json(record_.rolled_back));
    args.set("version", util::Json(record_.published_version));
    tracer_->instant("fed.publish", "fed", std::move(args));
  }
}

void Aggregator::finalize_round() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    switch (record_.clients[i].outcome) {
      case ClientOutcome::Accepted:
        failure_streak_[i] = 0;
        ++report_.deltas_accepted;
        break;
      case ClientOutcome::Straggler:
        ++report_.stragglers;
        break;
      case ClientOutcome::Dropout:
        ++report_.dropouts;
        break;
      case ClientOutcome::TransferFailed:
        ++failure_streak_[i];
        ++report_.transfer_failures;
        break;
      case ClientOutcome::Quarantined:
        ++failure_streak_[i];
        ++report_.deltas_quarantined;
        break;
    }
  }
  if (!record_.quorum_met) {
    ++report_.rounds_no_quorum;
  } else if (record_.rolled_back) {
    ++report_.rounds_rolled_back;
  } else if (record_.promoted) {
    ++report_.rounds_published;
  }

  if (metrics_) {
    metrics_->counter("fed.rounds").inc();
    if (record_.quorum_met) {
      metrics_->counter(record_.rolled_back ? "fed.rounds.rolled_back"
                                            : "fed.rounds.published")
          .inc();
    } else {
      metrics_->counter("fed.rounds.no_quorum").inc();
    }
    metrics_->counter("fed.deltas.accepted")
        .inc(static_cast<double>(record_.accepted));
    metrics_->gauge("fed.round.examples")
        .set(static_cast<double>(record_.total_examples));
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("round", util::Json(record_.round));
    args.set("base_version", util::Json(record_.base_version));
    args.set("published_version", util::Json(record_.published_version));
    args.set("accepted", util::Json(std::uint64_t{record_.accepted}));
    args.set("quorum_met", util::Json(record_.quorum_met));
    args.set("promoted", util::Json(record_.promoted));
    args.set("rolled_back", util::Json(record_.rolled_back));
    tracer_->complete("fed.round", "fed", record_.started_s,
                      record_.finished_s, std::move(args));
  }

  report_.rounds.push_back(record_);
  record_ = RoundRecord{};
  accepted_.clear();
  acc_.clear();
  weight_so_far_ = 0;
  merged_prefix_ = 0;
  phase_ = Phase::Collect;
  ++round_index_;
  checkpoint();  // round boundary: a later kill resumes into the next round
}

void Aggregator::save_state(std::ostream& os) {
  util::write_pod<std::uint32_t>(os, kStateVersion);
  util::write_rng_state(os, rng_.state());

  util::write_pod<std::uint64_t>(os, round_index_);
  util::write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(phase_));
  util::write_pod<std::uint64_t>(os, expected_params_);
  util::write_pod<std::uint64_t>(os, weight_so_far_);
  util::write_pod<std::uint64_t>(os, merged_prefix_);

  util::write_pod<std::uint64_t>(os, accepted_.size());
  for (const AcceptedEntry& e : accepted_) {
    util::write_pod<std::uint32_t>(os, e.client);
    util::write_pod<std::uint64_t>(os, e.examples);
    util::write_pod<std::uint64_t>(os, e.generation);
  }
  util::write_pod<std::uint64_t>(os, acc_.size());
  for (const double v : acc_) util::write_pod<double>(os, v);
  util::write_pod<std::uint64_t>(os, failure_streak_.size());
  for (const std::uint32_t s : failure_streak_) {
    util::write_pod<std::uint32_t>(os, s);
  }

  put_round(os, record_);

  util::write_pod<std::uint64_t>(os, report_.rounds.size());
  for (const RoundRecord& r : report_.rounds) put_round(os, r);
  util::write_pod<std::uint64_t>(os, report_.rounds_published);
  util::write_pod<std::uint64_t>(os, report_.rounds_rolled_back);
  util::write_pod<std::uint64_t>(os, report_.rounds_no_quorum);
  util::write_pod<std::uint64_t>(os, report_.deltas_accepted);
  util::write_pod<std::uint64_t>(os, report_.deltas_quarantined);
  util::write_pod<std::uint64_t>(os, report_.stragglers);
  util::write_pod<std::uint64_t>(os, report_.dropouts);
  util::write_pod<std::uint64_t>(os, report_.transfer_failures);
  util::write_pod<std::uint64_t>(os, report_.delta_bytes_shipped);
}

void Aggregator::load_state(std::istream& is) {
  StateReader r(is, "fed: aggregator state");
  if (r.pod<std::uint32_t>("header") != kStateVersion) {
    throw ckpt::CheckpointError(ckpt::CheckpointError::Code::BadVersion,
                                "fed: aggregator state from a future format");
  }
  rng_.set_state(r.rng_state("RNG state"));

  round_index_ = r.pod<std::uint64_t>("merge state");
  const auto phase = r.pod<std::uint8_t>("merge state");
  if (phase != static_cast<std::uint8_t>(Phase::Collect) &&
      phase != static_cast<std::uint8_t>(Phase::Merge)) {
    throw std::runtime_error("fed: aggregator checkpoint has an unknown phase");
  }
  phase_ = static_cast<Phase>(phase);
  expected_params_ = r.pod<std::uint64_t>("merge state");
  weight_so_far_ = r.pod<std::uint64_t>("merge state");
  merged_prefix_ = r.pod<std::uint64_t>("merge state");

  accepted_.clear();
  const auto n_accepted = r.pod<std::uint64_t>("accepted deltas");
  for (std::uint64_t i = 0; i < n_accepted; ++i) {
    AcceptedEntry e;
    e.client = r.pod<std::uint32_t>("accepted deltas");
    e.examples = r.pod<std::uint64_t>("accepted deltas");
    e.generation = r.pod<std::uint64_t>("accepted deltas");
    accepted_.push_back(e);
  }
  acc_.clear();
  const auto n_acc = r.pod<std::uint64_t>("merge accumulator");
  for (std::uint64_t i = 0; i < n_acc; ++i) {
    acc_.push_back(r.pod<double>("merge accumulator"));
  }
  failure_streak_.clear();
  const auto n_streak = r.pod<std::uint64_t>("failure streaks");
  for (std::uint64_t i = 0; i < n_streak; ++i) {
    failure_streak_.push_back(r.pod<std::uint32_t>("failure streaks"));
  }
  if (failure_streak_.size() != clients_.size()) {
    throw std::runtime_error(
        "fed: aggregator checkpoint was written for a different client set");
  }

  record_ = get_round(r);
  // A resumed merge reads every delta value up to the accumulator's
  // length, and indexes clients by the accepted entries and the record.
  if (phase_ == Phase::Merge) {
    if (acc_.size() != expected_params_) {
      throw std::runtime_error(
          "fed: aggregator checkpoint's merge accumulator has " +
          std::to_string(acc_.size()) + " entries, expected " +
          std::to_string(expected_params_));
    }
    const bool known_clients =
        record_.clients.size() == clients_.size() &&
        std::all_of(accepted_.begin(), accepted_.end(),
                    [&](const AcceptedEntry& e) {
                      return e.client < clients_.size();
                    });
    if (!known_clients) {
      throw std::runtime_error(
          "fed: aggregator checkpoint was written for a different client set");
    }
  }

  report_ = FedReport{};
  const auto n_rounds = r.pod<std::uint64_t>("report");
  for (std::uint64_t i = 0; i < n_rounds; ++i) {
    report_.rounds.push_back(get_round(r));
  }
  report_.rounds_published = r.size("report");
  report_.rounds_rolled_back = r.size("report");
  report_.rounds_no_quorum = r.size("report");
  report_.deltas_accepted = r.size("report");
  report_.deltas_quarantined = r.size("report");
  report_.stragglers = r.size("report");
  report_.dropouts = r.size("report");
  report_.transfer_failures = r.size("report");
  report_.delta_bytes_shipped = r.pod<std::uint64_t>("report");
}

}  // namespace autolearn::fed
