#include "ml/trainer.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "util/binio.hpp"
#include "util/logging.hpp"

namespace autolearn::ml {
namespace {

std::vector<const Sample*> batch_view(const std::vector<Sample>& data,
                                      const std::vector<std::size_t>& order,
                                      std::size_t begin, std::size_t end) {
  std::vector<const Sample*> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push_back(&data[order[i]]);
  return out;
}

}  // namespace

double evaluate_loss(DrivingModel& model, const std::vector<Sample>& data,
                     std::size_t batch_size) {
  if (data.empty()) return 0.0;
  double total = 0;
  std::size_t count = 0;
  for (std::size_t b = 0; b < data.size(); b += batch_size) {
    const std::size_t e = std::min(data.size(), b + batch_size);
    std::vector<const Sample*> batch;
    batch.reserve(e - b);
    for (std::size_t i = b; i < e; ++i) batch.push_back(&data[i]);
    total += model.eval_batch(batch) * static_cast<double>(e - b);
    count += e - b;
  }
  return total / static_cast<double>(count);
}

double steering_mae(DrivingModel& model, const std::vector<Sample>& data,
                    std::size_t batch_size) {
  if (data.empty()) return 0.0;
  if (batch_size == 0) throw std::invalid_argument("steering_mae: batch 0");
  double total = 0;
  std::vector<Prediction> preds(batch_size);
  for (std::size_t b = 0; b < data.size(); b += batch_size) {
    const std::size_t n = std::min(batch_size, data.size() - b);
    model.predict_batch(data.data() + b, n, preds.data());
    for (std::size_t i = 0; i < n; ++i) {
      total += std::abs(preds[i].steering - data[b + i].steering);
    }
  }
  return total / static_cast<double>(data.size());
}

Trainer::Trainer(DrivingModel& model, const std::vector<Sample>& train,
                 const std::vector<Sample>& val, const TrainOptions& options)
    : model_(model),
      train_(train),
      val_(val),
      opts_(options),
      rng_(options.shuffle_seed),
      order_(train.size()) {
  if (train.empty()) throw std::invalid_argument("fit: empty training set");
  if (options.batch_size == 0) throw std::invalid_argument("fit: batch 0");
  std::iota(order_.begin(), order_.end(), 0);
}

void Trainer::preempt_tick() {
  if (opts_.preempt && opts_.preempt->tick()) {
    throw fault::PreemptedError(
        opts_.preempt->ticks(),
        "preempted while fitting " + model_.type_name());
  }
}

void Trainer::checkpoint_now() {
  if (!opts_.checkpoint_store || opts_.checkpoint_key.empty()) return;
  ckpt::CheckpointInfo info;
  info.epoch = epoch_;
  info.step = global_step_;
  info.seed = opts_.shuffle_seed;
  if (!history_.empty()) {
    info.metrics["train_loss"] = history_.back().train_loss;
    info.metrics["val_loss"] = history_.back().val_loss;
  }
  ckpt::save_checkpoint(*opts_.checkpoint_store, opts_.checkpoint_key, *this,
                        info);
  ++checkpoints_saved_;
  batches_since_ckpt_ = 0;
}

void Trainer::save_best_model(double val_loss) {
  if (!opts_.save_best || !opts_.checkpoint_store ||
      opts_.checkpoint_key.empty()) {
    return;
  }
  std::ostringstream snapshot;
  model_.save(snapshot);
  ckpt::CheckpointInfo info;
  info.epoch = epoch_;
  info.step = global_step_;
  info.seed = opts_.shuffle_seed;
  info.note = "best-model";
  info.metrics["val_loss"] = val_loss;
  opts_.checkpoint_store->save(opts_.checkpoint_key + ".best",
                               snapshot.str(), info);
}

TrainResult Trainer::fit() {
  tune_interpreted_allocator();
  const auto t0 = std::chrono::steady_clock::now();
  const KernelCounters kernels0 = kernel_counters();
  const obs::SpanGuard fit_span(opts_.tracer, "ml.fit", "ml");

  if (opts_.checkpoint_store && !opts_.checkpoint_key.empty()) {
    if (ckpt::restore_checkpoint(*opts_.checkpoint_store,
                                 opts_.checkpoint_key, *this)) {
      resumed_ = true;
      resumed_epoch_ = epoch_;
      if (opts_.verbose) {
        AUTOLEARN_LOG(Info, "trainer")
            << model_.type_name() << " resumed at epoch " << epoch_
            << " index " << next_index_;
      }
    }
  }

  bool stop_early = false;
  while (epoch_ < opts_.epochs && !stop_early) {
    const obs::SpanGuard epoch_span(opts_.tracer, "ml.epoch", "ml");
    if (next_index_ == 0) {
      // Fresh epoch. A mid-epoch restore keeps the drawn order and the
      // partial accumulators from the checkpoint instead.
      rng_.shuffle(order_);
      epoch_loss_ = 0;
      epoch_seen_ = 0;
    }
    while (next_index_ < train_.size()) {
      preempt_tick();  // batch boundary
      const std::size_t b = next_index_;
      const std::size_t e = std::min(train_.size(), b + opts_.batch_size);
      const auto batch = batch_view(train_, order_, b, e);
      epoch_loss_ += model_.train_batch(batch) * static_cast<double>(e - b);
      epoch_seen_ += e - b;
      ++global_step_;
      ++batches_run_;
      preempt_tick();  // mid-batch: the GEMM ran, the index did not advance
      next_index_ = e;
      ++batches_since_ckpt_;
      if (opts_.checkpoint_every_batches > 0 &&
          batches_since_ckpt_ >= opts_.checkpoint_every_batches &&
          next_index_ < train_.size()) {
        checkpoint_now();
      }
    }
    next_index_ = 0;
    EpochStats stats;
    stats.train_loss = epoch_loss_ / static_cast<double>(epoch_seen_);
    stats.val_loss =
        val_.empty() ? stats.train_loss : evaluate_loss(model_, val_);
    history_.push_back(stats);
    samples_seen_ += epoch_seen_;
    ++epochs_run_;
    if (opts_.verbose) {
      AUTOLEARN_LOG(Info, "trainer")
          << model_.type_name() << " epoch " << epoch_ << " train "
          << stats.train_loss << " val " << stats.val_loss;
    }
    if (stats.val_loss < best_val_loss_ - 1e-9) {
      best_val_loss_ = stats.val_loss;
      since_best_ = 0;
      if (opts_.restore_best) {
        std::ostringstream snapshot;
        model_.save(snapshot);
        best_weights_ = snapshot.str();
      }
      save_best_model(stats.val_loss);
    } else if (opts_.early_stop_patience > 0 &&
               ++since_best_ >= opts_.early_stop_patience) {
      stop_early = true;
    }
    ++epoch_;
    checkpoint_now();  // epoch-boundary checkpoint (no-op without a store)
  }
  if (opts_.restore_best && !best_weights_.empty()) {
    std::istringstream snapshot(best_weights_);
    model_.load(snapshot);
  }

  TrainResult result;
  result.history = history_;
  result.best_val_loss = best_val_loss_;
  result.epochs_run = epochs_run_;
  result.samples_seen = samples_seen_;
  result.resumed = resumed_;
  result.resumed_epoch = resumed_epoch_;
  result.checkpoints_saved = checkpoints_saved_;
  result.batches_run = batches_run_;
  result.final_train_loss = result.history.back().train_loss;
  result.forward_flops = model_.flops_per_sample() *
                         static_cast<std::uint64_t>(result.samples_seen);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const TrainOptions& options = opts_;
  if (options.metrics) {
    options.metrics->counter("ml.train.fits").inc();
    options.metrics->counter("ml.train.epochs").inc(result.epochs_run);
    options.metrics->counter("ml.train.samples").inc(result.samples_seen);
    options.metrics->counter("ml.train.forward_flops")
        .inc(result.forward_flops);
    options.metrics->gauge("ml.train.final_loss")
        .set(result.final_train_loss);
    options.metrics->gauge("ml.train.best_val_loss").set(result.best_val_loss);
    // Per-kernel workload actually executed by this fit (deltas of the
    // process-wide counters, so concurrent-free runs are reproducible).
    const KernelCounters kernels1 = kernel_counters();
    options.metrics->counter("ml.kernel.gemm_calls")
        .inc(kernels1.gemm_calls - kernels0.gemm_calls);
    options.metrics->counter("ml.kernel.gemm_flops")
        .inc(kernels1.gemm_flops - kernels0.gemm_flops);
    options.metrics->counter("ml.kernel.im2col_elems")
        .inc(kernels1.im2col_elems - kernels0.im2col_elems);
    options.metrics->counter("ml.kernel.col2im_elems")
        .inc(kernels1.col2im_elems - kernels0.col2im_elems);
  }
  return result;
}

namespace {
// "ALTR": trainer-state magic inside the checkpoint payload.
constexpr std::uint32_t kTrainerMagic = 0x52544c41;
}  // namespace

void Trainer::save_state(std::ostream& os) {
  util::write_pod(os, kTrainerMagic);
  util::write_rng_state(os, rng_.state());
  util::write_pod(os, static_cast<std::uint64_t>(order_.size()));
  for (const std::size_t i : order_) {
    util::write_pod(os, static_cast<std::uint64_t>(i));
  }
  util::write_pod(os, static_cast<std::uint64_t>(epoch_));
  util::write_pod(os, static_cast<std::uint64_t>(next_index_));
  util::write_pod(os, epoch_loss_);
  util::write_pod(os, static_cast<std::uint64_t>(epoch_seen_));
  util::write_pod(os, static_cast<std::uint64_t>(history_.size()));
  for (const EpochStats& s : history_) {
    util::write_pod(os, s.train_loss);
    util::write_pod(os, s.val_loss);
  }
  util::write_pod(os, static_cast<std::uint64_t>(samples_seen_));
  util::write_pod(os, static_cast<std::uint64_t>(epochs_run_));
  util::write_pod(os, best_val_loss_);
  util::write_pod(os, static_cast<std::uint64_t>(since_best_));
  util::write_string(os, best_weights_);
  util::write_pod(os, global_step_);
  model_.save_full(os);
}

void Trainer::load_state(std::istream& is) {
  util::BinReader<ModelLoadError> r(is, "Trainer");
  if (r.pod<std::uint32_t>("header") != kTrainerMagic) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         "Trainer: not a trainer checkpoint");
  }
  const util::RngState rng_state = r.rng_state("RNG state");
  const std::size_t order_count = r.size("order size");
  if (order_count != train_.size()) {
    throw std::invalid_argument(
        "Trainer: checkpoint was taken over a different dataset (" +
        std::to_string(order_count) + " vs " +
        std::to_string(train_.size()) + " samples)");
  }
  std::vector<std::size_t> order(order_count);
  for (std::size_t& index : order) {
    index = r.size("order");
    if (index >= train_.size()) {
      throw std::invalid_argument(
          "Trainer: checkpoint shuffle index " + std::to_string(index) +
          " is out of range for " + std::to_string(train_.size()) +
          " samples");
    }
  }
  const std::size_t epoch = r.size("epoch");
  const std::size_t next_index = r.size("index");
  const auto epoch_loss = r.pod<double>("loss accumulator");
  const std::size_t epoch_seen = r.size("seen counter");
  const std::size_t history_count = r.size("history size");
  std::vector<EpochStats> history;
  for (std::size_t i = 0; i < history_count; ++i) {
    EpochStats s;
    s.train_loss = r.pod<double>("history");
    s.val_loss = r.pod<double>("history");
    history.push_back(s);
  }
  const std::size_t samples_seen = r.size("sample counter");
  const std::size_t epochs_run = r.size("epoch counter");
  const auto best_val_loss = r.pod<double>("best val loss");
  const std::size_t since_best = r.size("patience counter");
  std::string best_weights = r.string("best snapshot");
  const auto global_step = r.pod<std::uint64_t>("step counter");
  // The model load is transactional on its own; commit the loop state only
  // after everything (model included) deserialized cleanly.
  model_.load_full(is);
  rng_.set_state(rng_state);
  order_ = std::move(order);
  epoch_ = epoch;
  next_index_ = next_index;
  epoch_loss_ = epoch_loss;
  epoch_seen_ = epoch_seen;
  history_ = std::move(history);
  samples_seen_ = samples_seen;
  epochs_run_ = epochs_run;
  best_val_loss_ = best_val_loss;
  since_best_ = since_best;
  best_weights_ = std::move(best_weights);
  global_step_ = global_step;
}

TrainResult fit(DrivingModel& model, const std::vector<Sample>& train,
                const std::vector<Sample>& val, const TrainOptions& options) {
  Trainer trainer(model, train, val, options);
  return trainer.fit();
}

}  // namespace autolearn::ml
