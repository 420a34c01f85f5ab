#include "ml/sequential.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/binio.hpp"

namespace autolearn::ml {

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur, train);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

namespace {
// "ALSQ": parameter-block magic, so a stream that is not a Sequential
// checkpoint fails fast with BadHeader instead of misreading sizes.
constexpr std::uint32_t kParamsMagic = 0x51534c41;
}  // namespace

void Sequential::save_params(std::ostream& os) {
  const auto ps = params();
  util::write_pod(os, kParamsMagic);
  util::write_pod(os, static_cast<std::uint64_t>(ps.size()));
  for (Param* p : ps) {
    const auto& shape = p->value.shape();
    util::write_pod(os, static_cast<std::uint32_t>(shape.size()));
    for (const std::size_t dim : shape) {
      util::write_pod(os, static_cast<std::uint64_t>(dim));
    }
    util::write_f32_span(os, p->value.data(), p->value.size());
  }
}

void Sequential::load_params(std::istream& is) {
  const auto ps = params();
  util::BinReader<ModelLoadError> r(is, "Sequential");
  if (r.pod<std::uint32_t>("header") != kParamsMagic) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         "Sequential: not a parameter checkpoint");
  }
  const auto count = r.pod<std::uint64_t>("tensor count");
  if (count != ps.size()) {
    throw ModelLoadError(
        ModelLoadError::Code::LayerCountMismatch,
        "Sequential: checkpoint holds " + std::to_string(count) +
            " tensors, model expects " + std::to_string(ps.size()));
  }
  // Stage everything, validating shape tensor-by-tensor; commit only after
  // the whole stream checked out so a bad checkpoint cannot half-load.
  std::vector<std::vector<float>> staged(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto rank = r.pod<std::uint32_t>("tensor header");
    std::vector<std::size_t> shape;
    for (std::uint32_t d = 0; d < rank; ++d) {
      shape.push_back(r.size("tensor shape"));
    }
    if (shape != ps[i]->value.shape()) {
      throw ModelLoadError(
          ModelLoadError::Code::ShapeMismatch,
          "Sequential: tensor " + std::to_string(i) + " shape mismatch");
    }
    staged[i].resize(ps[i]->value.size());
    r.f32s(staged[i].data(), staged[i].size(), "tensor data");
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), ps[i]->value.data());
  }
}

void Sequential::save_state(std::ostream& os) const {
  for (const auto& l : layers_) l->save_state(os);
}

void Sequential::load_state(std::istream& is) {
  for (auto& l : layers_) l->load_state(is);
}

}  // namespace autolearn::ml
