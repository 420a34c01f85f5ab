#include "ml/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/lstm.hpp"
#include "ml/quant_layers.hpp"
#include "obs/metrics.hpp"

namespace autolearn::ml {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
// Arena slots start on 64-byte boundaries relative to the arena base, so
// shared slots never split a cache line between two live buffers.
constexpr std::size_t kAlignFloats = 16;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Bytes stored in a float-typed slot: round rows up to whole floats.
std::size_t bytes_as_floats(std::size_t bytes) { return ceil_div(bytes, 4); }

enum class Op {
  Conv,
  QuantConv,
  Dense,
  QuantDense,
  Lstm,
  Relu,   // standalone in-place (fused forms never reach here)
  Tanh,   // in-place
};

struct Step {
  Op op;
  std::size_t in = kNone, out = kNone;
  std::size_t scr0 = kNone, scr1 = kNone, scr2 = kNone;
  bool fuse_relu = false;

  // The layer whose kernel the step runs (forward_into, or the LSTM's
  // step_into), resolved at compile time; a load drops the plan, and the
  // next predict recompiles against the loaded model.
  const Conv* conv = nullptr;
  const QuantConv* qconv = nullptr;
  const Dense* dense = nullptr;
  const QuantDense* qdense = nullptr;
  const LSTM* lstm = nullptr;

  ConvGeometry::Volumes vol{};  // conv: one sample's in/out volume
  std::size_t t_len = 0;        // lstm: time steps per row
};

struct Value {
  std::size_t row_elems = 0;
  std::size_t def = 0;       // first step index live
  std::size_t last_use = 0;  // last step index live (inclusive)
  std::size_t offset = 0;    // assigned arena offset (floats)
};

}  // namespace

struct CompiledNet::Impl {
  std::size_t max_rows = 0;
  std::size_t in_elems = 0;   // per row
  std::size_t out_elems = 0;  // per row
  std::size_t out_value = 0;
  std::vector<Step> steps;
  std::vector<Value> values;
  std::vector<float> arena;
  PlanStats stats;

  std::size_t add_value(std::size_t row_elems, std::size_t def,
                        std::size_t last_use) {
    values.push_back(Value{row_elems, def, last_use, 0});
    return values.size() - 1;
  }

  void compile(Sequential& net, const std::vector<std::size_t>& in_shape);
  void assign_offsets();
  const float* exec(std::size_t rows);
};

void CompiledNet::Impl::compile(Sequential& net,
                                const std::vector<std::size_t>& in_shape) {
  if (net.num_layers() == 0) {
    throw PlanError(PlanError::Code::EmptyModel,
                    "plan: cannot compile an empty model");
  }
  in_elems = 1;
  for (std::size_t d : in_shape) in_elems *= d;
  if (in_elems == 0) {
    throw PlanError(PlanError::Code::BadShape,
                    "plan: zero-element input sample shape");
  }

  std::vector<std::size_t> shape = in_shape;  // current per-row shape
  std::size_t cur = add_value(in_elems, 0, 0);

  const auto elems = [](const std::vector<std::size_t>& s) {
    std::size_t e = 1;
    for (std::size_t d : s) e *= d;
    return e;
  };
  const auto bad_shape = [](const std::string& what) {
    return PlanError(PlanError::Code::BadShape, "plan: " + what);
  };

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    if (!net.has_layer(li)) {
      throw PlanError(PlanError::Code::NullLayer,
                      "plan: layer slot " + std::to_string(li) +
                          " is null (mid-swap model?)");
    }
    Layer& layer = net.layer(li);
    const std::size_t si = steps.size();
    // A ReLU right after a fusable producer folds into its epilogue.
    const auto fuse_next_relu = [&]() -> bool {
      if (li + 1 >= net.num_layers() || !net.has_layer(li + 1)) return false;
      if (dynamic_cast<ReLU*>(&net.layer(li + 1)) == nullptr) return false;
      ++li;
      ++stats.fused_activations;
      return true;
    };

    const auto* conv = dynamic_cast<const Conv*>(&layer);
    const auto* qconv = dynamic_cast<const QuantConv*>(&layer);
    if (conv != nullptr || qconv != nullptr) {
      Step s{};
      s.op = conv != nullptr ? Op::Conv : Op::QuantConv;
      s.conv = conv;
      s.qconv = qconv;
      const ConvGeometry& g =
          conv != nullptr ? conv->geometry() : qconv->geometry();
      std::vector<std::size_t> row_shape = shape;  // [1, C, (D,) H, W]
      row_shape.insert(row_shape.begin(), 1);
      try {
        s.vol = g.volumes(row_shape);
      } catch (const std::invalid_argument&) {
        throw bad_shape(layer.name() + " input mismatch");
      }
      const std::size_t ckk = g.patch_rows(), p = s.vol.positions();
      stats.flops += g.flops(s.vol);
      s.fuse_relu = fuse_next_relu();
      s.in = cur;
      values[cur].last_use = si;
      if (qconv != nullptr) {
        // int8 lowers through the patch matrix; fp32 runs the implicit
        // GEMM, which needs neither buffer.
        s.scr0 = add_value(ckk * p, si, si);                    // patch matrix
        s.scr1 = add_value(bytes_as_floats(ckk * p), si, si);  // q(col)
        s.scr2 = add_value(g.out_channels * p, si, si);        // GEMM out
      }
      s.out = cur = add_value(g.out_channels * p, si, si);
      shape = g.out_shape(1, s.vol);
      shape.erase(shape.begin());
      steps.push_back(s);
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      if (elems(shape) != dense->in_features()) {
        throw bad_shape("dense input mismatch");
      }
      stats.flops += 2ull * dense->in_features() * dense->out_features();
      Step s{};
      s.op = Op::Dense;
      s.dense = dense;
      s.fuse_relu = fuse_next_relu();
      s.in = cur;
      values[cur].last_use = si;
      s.out = cur = add_value(dense->out_features(), si, si);
      shape = {dense->out_features()};
      steps.push_back(s);
    } else if (auto* lstm = dynamic_cast<LSTM*>(&layer)) {
      if (shape.size() != 2 || shape[1] != lstm->input_size()) {
        throw bad_shape("lstm input mismatch");
      }
      const std::size_t t_len = shape[0], hs = lstm->hidden_size();
      stats.flops += 2ull * t_len * 4 * hs * (lstm->input_size() + hs);
      Step s{};
      s.op = Op::Lstm;
      s.lstm = lstm;
      s.t_len = t_len;
      s.in = cur;
      values[cur].last_use = si;
      s.scr0 = add_value(4 * hs, si, si);  // gates
      s.scr1 = add_value(hs, si, si);      // cell state
      s.out = cur = add_value(hs, si, si);
      shape = {hs};
      steps.push_back(s);
    } else if (auto* qdense = dynamic_cast<QuantDense*>(&layer)) {
      const std::size_t in_f = qdense->in_features();
      const std::size_t out_f = qdense->out_features();
      if (elems(shape) != in_f) throw bad_shape("qdense input mismatch");
      stats.flops += 2ull * in_f * out_f;
      Step s{};
      s.op = Op::QuantDense;
      s.qdense = qdense;
      s.fuse_relu = fuse_next_relu();
      s.in = cur;
      values[cur].last_use = si;
      s.scr0 = add_value(bytes_as_floats(in_f), si, si);  // q(x)^T bytes
      s.scr1 = add_value(out_f, si, si);                  // y^T
      s.out = cur = add_value(out_f, si, si);
      shape = {out_f};
      steps.push_back(s);
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      // Only reached when the producer was not fusable (e.g. after a
      // Flatten or as the first layer): in-place pass over the value.
      Step s{};
      s.op = Op::Relu;
      s.in = s.out = cur;
      values[cur].last_use = si;
      steps.push_back(s);
    } else if (dynamic_cast<Tanh*>(&layer) != nullptr) {
      Step s{};
      s.op = Op::Tanh;
      s.in = s.out = cur;
      values[cur].last_use = si;
      steps.push_back(s);
    } else if (dynamic_cast<Flatten*>(&layer) != nullptr) {
      shape = {elems(shape)};  // shape-only: the arena is already flat
    } else if (dynamic_cast<Dropout*>(&layer) != nullptr) {
      // Inference identity (plans only serve train=false).
    } else {
      throw PlanError(
          PlanError::Code::UnsupportedLayer,
          "plan: no compiled step for layer '" + layer.name() + "'");
    }
  }

  out_value = cur;
  out_elems = values[cur].row_elems;
  // The output must survive past the last step.
  values[out_value].last_use = steps.size();
  stats.steps = steps.size();
  stats.values = values.size();
  assign_offsets();
}

void CompiledNet::Impl::assign_offsets() {
  // First-fit offset assignment over live intervals, largest-first within
  // each definition point (the classic static memory-planning heuristic;
  // see the worked example in docs/performance.md).
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a].def != values[b].def) return values[a].def < values[b].def;
    if (values[a].row_elems != values[b].row_elems) {
      return values[a].row_elems > values[b].row_elems;
    }
    return a < b;
  });
  struct Placed {
    std::size_t offset, size, def, last_use;
  };
  std::vector<Placed> placed;
  std::size_t high_water = 0, naive = 0;
  for (std::size_t vi : order) {
    Value& v = values[vi];
    const std::size_t size =
        ceil_div(v.row_elems * max_rows, kAlignFloats) * kAlignFloats;
    naive += size;
    std::vector<Placed> conflicts;
    for (const Placed& p : placed) {
      if (!(p.last_use < v.def || v.last_use < p.def)) conflicts.push_back(p);
    }
    std::sort(conflicts.begin(), conflicts.end(),
              [](const Placed& a, const Placed& b) {
                return a.offset < b.offset;
              });
    std::size_t off = 0;
    for (const Placed& c : conflicts) {
      if (off + size <= c.offset) break;  // fits in the gap before c
      off = std::max(off, c.offset + c.size);
    }
    v.offset = off;
    placed.push_back(Placed{off, size, v.def, v.last_use});
    high_water = std::max(high_water, off + size);
  }
  stats.arena_floats = high_water;
  stats.naive_floats = naive;
  arena.assign(high_water, 0.0f);
}

const float* CompiledNet::Impl::exec(std::size_t rows) {
  if (rows == 0 || rows > max_rows) {
    throw PlanError(PlanError::Code::BadBatch,
                    "plan: run() rows " + std::to_string(rows) +
                        " outside [1, " + std::to_string(max_rows) + "]");
  }
  float* const base = arena.data();
  const auto at = [&](std::size_t vi) { return base + values[vi].offset; };
  // Byte-typed views of float slots (quantized activations).
  const auto bytes_at = [&](std::size_t vi) {
    return reinterpret_cast<std::uint8_t*>(at(vi));
  };
  const std::size_t n = rows;

  for (const Step& s : steps) {
    switch (s.op) {
      case Op::Conv:
        s.conv->forward_into(at(s.in), n, s.vol, at(s.out), s.fuse_relu);
        break;
      case Op::QuantConv:
        s.qconv->forward_into(at(s.in), n, s.vol, at(s.scr0),
                              bytes_at(s.scr1), at(s.scr2), at(s.out),
                              s.fuse_relu);
        break;
      case Op::Dense:
        s.dense->forward_into(at(s.in), n, at(s.out), s.fuse_relu);
        break;
      case Op::QuantDense:
        s.qdense->forward_into(at(s.in), n, bytes_at(s.scr0), at(s.scr1),
                               at(s.out), s.fuse_relu);
        break;
      case Op::Lstm: {
        // h and c start at zero and each step updates them in place.
        const std::size_t d = s.lstm->input_size();
        const float* xin = at(s.in);  // [n, T*D] == [n, T, D]
        float* gates = at(s.scr0);
        float* c = at(s.scr1);
        float* h = at(s.out);
        std::fill(h, h + n * values[s.out].row_elems, 0.0f);
        std::fill(c, c + n * values[s.scr1].row_elems, 0.0f);
        for (std::size_t t = 0; t < s.t_len; ++t) {
          s.lstm->step_into(xin + t * d, s.t_len * d, n, h, c, gates, c, h);
        }
        break;
      }
      case Op::Relu: {
        float* buf = at(s.out);
        const std::size_t total = n * values[s.out].row_elems;
        for (std::size_t i = 0; i < total; ++i) {
          buf[i] = buf[i] > 0.0f ? buf[i] : 0.0f;
        }
        break;
      }
      case Op::Tanh: {
        float* buf = at(s.out);
        const std::size_t total = n * values[s.out].row_elems;
        for (std::size_t i = 0; i < total; ++i) buf[i] = std::tanh(buf[i]);
        break;
      }
    }
  }
  return at(out_value);
}

CompiledNet::CompiledNet(Sequential& net,
                         const std::vector<std::size_t>& in_sample_shape,
                         std::size_t max_rows)
    : impl_(std::make_unique<Impl>()) {
  if (max_rows == 0) {
    throw PlanError(PlanError::Code::BadBatch, "plan: max rows must be >= 1");
  }
  impl_->max_rows = max_rows;
  impl_->compile(net, in_sample_shape);
}

CompiledNet::~CompiledNet() = default;

float* CompiledNet::input() {
  return impl_->arena.data() + impl_->values[0].offset;
}
std::size_t CompiledNet::in_row_elems() const { return impl_->in_elems; }
std::size_t CompiledNet::out_row_elems() const { return impl_->out_elems; }
std::size_t CompiledNet::max_rows() const { return impl_->max_rows; }

const float* CompiledNet::run(std::size_t rows) { return impl_->exec(rows); }

const PlanStats& CompiledNet::stats() const { return impl_->stats; }

CompiledModel::CompiledModel(std::size_t max_batch) : max_batch_(max_batch) {
  if (max_batch == 0) {
    throw PlanError(PlanError::Code::BadBatch, "plan: max batch must be >= 1");
  }
}

CompiledModel::~CompiledModel() = default;

CompiledNet& CompiledModel::add_net(
    Sequential& net, const std::vector<std::size_t>& in_sample_shape,
    std::size_t max_rows) {
  nets_.push_back(std::make_unique<CompiledNet>(net, in_sample_shape, max_rows));
  return *nets_.back();
}

PlanStats CompiledModel::stats() const {
  PlanStats total;
  for (const auto& n : nets_) {
    const PlanStats& s = n->stats();
    total.steps += s.steps;
    total.values += s.values;
    total.arena_floats += s.arena_floats;
    total.naive_floats += s.naive_floats;
    total.fused_activations += s.fused_activations;
  }
  return total;
}

void CompiledModel::instrument(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    exec_batches_ = nullptr;
    exec_rows_ = nullptr;
    return;
  }
  exec_batches_ = &metrics->counter("serve.plan.exec.batches");
  exec_rows_ = &metrics->counter("serve.plan.exec.rows");
}

void CompiledModel::record_exec(std::size_t rows) {
  if (exec_batches_ != nullptr) {
    exec_batches_->inc();
    exec_rows_->inc(rows);
  }
}

}  // namespace autolearn::ml
