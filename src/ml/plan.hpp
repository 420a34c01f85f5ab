// Graph-compiled forward path with a static arena memory plan: the one
// inference path of every zoo model (DrivingModel::predict_batch).
//
// Sequential::forward, which training runs, walks the layers one by one,
// with every layer allocating its output Tensor (and often scratch) per
// batch. CompiledNet does that walk ONCE: compile() lowers the layer list
// into a flat step program (the layer's own forward_into kernel for every
// Conv, QuantConv, Dense and QuantDense, with a following ReLU fused in,
// and the LSTM's step_into once per time step over zeroed state), runs a
// liveness analysis over every intermediate buffer, and first-fit assigns
// them into ONE float arena sized for a fixed batch cap. Steady-state
// execution then performs zero heap allocations: staging, GEMMs and
// epilogues all run inside the arena (or in grow-only per-thread kernel
// scratch), and the ThreadPool's parallel regions allocate nothing. The
// plan keeps no arithmetic of its own beyond the in-place ReLU and Tanh
// steps a producer could not absorb.
//
// Bitwise contract: every step calls its layer's kernel, the one the
// layer's own forward calls, so outputs are bit-identical to
// Sequential::forward(x, false) for every batch size up to the cap (a
// fused ReLU computes t > 0 ? t : 0 on the same t a ReLU layer sees).
// ctest -L plan holds this as an oracle across the nets of the whole model
// zoo, fp32 and int8, and across hand-built conv shapes, and holds the
// Conv and LSTM kernels to a test-side copy of their earlier lowering
// (tests/layer_reference.hpp), outputs and gradients, bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/sequential.hpp"

namespace autolearn::obs {
class Counter;
class MetricsRegistry;
}  // namespace autolearn::obs

namespace autolearn::ml {

/// Typed compile/execute failure. Mirrors ModelLoadError: callers switch
/// on code(); what() carries the human-readable detail.
class PlanError : public std::runtime_error {
 public:
  enum class Code {
    EmptyModel,        // Sequential with no layers
    NullLayer,         // a slot transiently holds null (mid-swap)
    UnsupportedLayer,  // layer type the compiler has no step for
    BadShape,          // input sample shape inconsistent with the layers
    BadBatch,          // max rows == 0, or run() rows out of [1, max]
  };

  PlanError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  Code code() const { return code_; }

 private:
  Code code_;
};

/// Compile-time accounting, exposed for tests ("sharing beats the naive
/// sum"), the serve gauges and model pricing.
struct PlanStats {
  std::size_t steps = 0;              // executable steps (no-ops dropped)
  std::size_t values = 0;             // liveness-tracked buffers
  std::size_t arena_floats = 0;       // arena size after slot sharing
  std::size_t naive_floats = 0;       // sum of value sizes (no sharing)
  std::size_t fused_activations = 0;  // ReLUs folded into producers
  /// Forward FLOPs of one row, counted as compile walks the layer shapes:
  /// conv ConvGeometry::flops, dense 2·in·out, LSTM 2·T·4H·(D+H), fp32 and
  /// int8 alike. CompiledModel::stats leaves it 0 (a model's nets run
  /// different rows per sample; DrivingModel::flops_per_sample weighs them).
  std::uint64_t flops = 0;
};

/// One Sequential compiled for a fixed row cap. Rows are the net's batch
/// dimension — the RNN encoder compiles with max_rows = batch * seq_len
/// since time is folded into the batch axis there.
class CompiledNet {
 public:
  /// Compiles immediately; throws PlanError on empty nets, null slots,
  /// unsupported layers or shape mismatches. `in_sample_shape` is the
  /// per-row shape (no batch dim), e.g. {1, 24, 32} for a conv encoder.
  CompiledNet(Sequential& net, const std::vector<std::size_t>& in_sample_shape,
              std::size_t max_rows);
  ~CompiledNet();
  CompiledNet(const CompiledNet&) = delete;
  CompiledNet& operator=(const CompiledNet&) = delete;

  /// Staging buffer for the input, [max_rows, in_row_elems] row-major
  /// inside the arena: the one way a plan takes its input. Callers write
  /// the batch here, then run(rows); a run may overwrite it in place, so
  /// stage again before the next one.
  float* input();
  std::size_t in_row_elems() const;
  std::size_t out_row_elems() const;
  std::size_t max_rows() const;

  /// Executes the step program on the staged input; returns the output,
  /// [rows, out_row_elems] row-major, valid until the next run. Throws
  /// PlanError{BadBatch} when rows is 0 or exceeds the cap. Performs no
  /// heap allocation (after kernel warm-up) — see docs/performance.md.
  const float* run(std::size_t rows);

  const PlanStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A model's full compiled forward: one CompiledNet per Sequential it
/// owns, plus the batch cap the plan was specialized for and optional
/// metrics plumbing. Built by DrivingModel::attach_plan, which a zoo
/// model's first predict calls when no plan is attached.
class CompiledModel {
 public:
  explicit CompiledModel(std::size_t max_batch);
  ~CompiledModel();
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  CompiledNet& add_net(Sequential& net,
                       const std::vector<std::size_t>& in_sample_shape,
                       std::size_t max_rows);

  std::size_t max_batch() const { return max_batch_; }
  /// Aggregate over every net.
  PlanStats stats() const;

  /// Resolves metric handles once so record_exec never does a name lookup
  /// (the registry's string lookup allocates; the hot path must not).
  /// nullptr detaches.
  void instrument(obs::MetricsRegistry* metrics);
  /// Hot-path accounting: one chunk of `rows` run through the plan.
  void record_exec(std::size_t rows);

 private:
  std::size_t max_batch_;
  std::vector<std::unique_ptr<CompiledNet>> nets_;
  obs::Counter* exec_batches_ = nullptr;
  obs::Counter* exec_rows_ = nullptr;
};

}  // namespace autolearn::ml
