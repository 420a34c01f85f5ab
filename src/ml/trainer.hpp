// Mini-batch training loop (the "model training" phase of the AutoLearn
// pipeline): shuffled epochs, validation tracking, optional early
// stopping, and workload accounting (samples and FLOPs) that the GPU
// performance model converts into simulated node-hours.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "fault/preempt.hpp"
#include "ml/driving_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {

struct TrainOptions {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  std::uint64_t shuffle_seed = 7;
  /// Stop when val loss has not improved for this many epochs (0 = off).
  std::size_t early_stop_patience = 0;
  /// After training, restore the weights of the best-val-loss epoch
  /// (Keras's ModelCheckpoint(save_best_only) behaviour, which the
  /// DonkeyCar training script uses). Requires a non-empty val set.
  bool restore_best = false;
  bool verbose = false;
  /// Observability sinks (either may be null): an "ml.fit" span wrapping
  /// per-epoch "ml.epoch" spans, plus sample/epoch counters and loss
  /// gauges. Span timestamps come from the tracer's clock — its logical
  /// tick counter unless it is wired to a simulation clock — never from
  /// wall time, so traces stay seed-deterministic.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Durable checkpointing (null = off). When set, fit() checkpoints the
  /// full trainer state (loop counters, shuffle RNG, optimizer moments,
  /// dropout streams, model weights) under `checkpoint_key` at every epoch
  /// boundary, auto-restores from the newest valid generation on entry,
  /// and the resumed fit continues bitwise-identically to an
  /// uninterrupted run.
  ckpt::CheckpointStore* checkpoint_store = nullptr;
  std::string checkpoint_key = "trainer";
  /// Also checkpoint mid-epoch every N trained batches (0 = epoch
  /// boundaries only).
  std::size_t checkpoint_every_batches = 0;
  /// Persist the best-val-loss model (parameters only) under
  /// "<checkpoint_key>.best" whenever validation improves — the durable
  /// twin of restore_best, so serving can warm-start from *best* even
  /// when *latest* has regressed.
  bool save_best = false;
  /// Cooperative kill switch (see fault/preempt.hpp). fit() ticks the
  /// token at every batch boundary and again right after each
  /// GEMM-backed train_batch; at the armed tick it throws PreemptedError
  /// WITHOUT checkpointing (SIGKILL semantics).
  fault::PreemptionToken* preempt = nullptr;
};

struct EpochStats {
  double train_loss = 0.0;
  double val_loss = 0.0;
};

struct TrainResult {
  std::vector<EpochStats> history;
  double final_train_loss = 0.0;
  double best_val_loss = 0.0;
  std::size_t epochs_run = 0;
  std::size_t samples_seen = 0;       // train samples x epochs actually run
  std::uint64_t forward_flops = 0;    // per-sample forward MACs x samples
  double wall_seconds = 0.0;          // real CPU wall time of this fit
  // Checkpoint/resume accounting (zero when checkpointing is off).
  bool resumed = false;               // state came from a checkpoint
  std::size_t resumed_epoch = 0;      // epoch index the restore landed in
  std::size_t checkpoints_saved = 0;  // saves issued by this fit call
  std::size_t batches_run = 0;        // train_batch calls, this call only
};

/// The training loop as a resumable object. The free fit() below wraps it
/// for the common one-shot case; construct a Trainer directly to drive
/// checkpoint/restore yourself (e.g. from workflow cells or tests).
///
/// State captured by save_state covers everything the loop touches —
/// shuffle RNG and the epoch's drawn order, intra-epoch position, loss
/// accumulators, best-val tracking (including the restore_best snapshot),
/// and the model's save_full — so a restore mid-epoch continues at the
/// exact next batch with identical arithmetic.
class Trainer : public ckpt::Checkpointable {
 public:
  Trainer(DrivingModel& model, const std::vector<Sample>& train,
          const std::vector<Sample>& val, const TrainOptions& options);

  /// Runs (or resumes) the fit. Throws fault::PreemptedError when the
  /// armed preemption token fires.
  TrainResult fit();

  const char* checkpoint_kind() const override { return "ml.trainer"; }
  void save_state(std::ostream& os) override;
  void load_state(std::istream& is) override;

 private:
  void checkpoint_now();
  void save_best_model(double val_loss);
  void preempt_tick();

  DrivingModel& model_;
  const std::vector<Sample>& train_;
  const std::vector<Sample>& val_;
  TrainOptions opts_;

  // Resumable loop state (everything here round-trips through
  // save_state/load_state).
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t epoch_ = 0;        // epochs fully completed
  std::size_t next_index_ = 0;   // position in order_ (0 = epoch start)
  double epoch_loss_ = 0.0;      // raw accumulator of the running epoch
  std::size_t epoch_seen_ = 0;
  std::vector<EpochStats> history_;
  std::size_t samples_seen_ = 0;
  std::size_t epochs_run_ = 0;
  double best_val_loss_ = std::numeric_limits<double>::max();
  std::size_t since_best_ = 0;
  std::string best_weights_;     // restore_best snapshot of the best epoch
  std::uint64_t global_step_ = 0;  // train_batch calls across all runs

  // Per-call accounting (not serialized).
  bool resumed_ = false;
  std::size_t resumed_epoch_ = 0;
  std::size_t checkpoints_saved_ = 0;
  std::size_t batches_run_ = 0;
  std::size_t batches_since_ckpt_ = 0;
};

/// Trains `model` on `train`, tracking loss on `val` after each epoch.
TrainResult fit(DrivingModel& model, const std::vector<Sample>& train,
                const std::vector<Sample>& val, const TrainOptions& options);

/// Mean loss over a dataset (no updates).
double evaluate_loss(DrivingModel& model, const std::vector<Sample>& data,
                     std::size_t batch_size = 64);

/// Mean absolute steering error over the dataset — the accuracy number
/// reported in the E1 model-comparison table — computed through
/// predict_batch in chunks of `batch_size`.
double steering_mae(DrivingModel& model, const std::vector<Sample>& data,
                    std::size_t batch_size = 32);

}  // namespace autolearn::ml
