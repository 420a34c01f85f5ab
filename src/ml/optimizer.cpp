#include "ml/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/sequential.hpp"
#include "util/binio.hpp"

namespace autolearn::ml {

SGD::SGD(double lr, double momentum) : lr_(lr), momentum_(momentum) {
  if (!(lr > 0 && std::isfinite(lr))) {
    throw std::invalid_argument("SGD: lr must be finite and > 0");
  }
  if (!(momentum >= 0 && momentum < 1)) {
    throw std::invalid_argument("SGD: momentum in [0,1)");
  }
}

void SGD::step(const std::vector<Param*>& params) {
  if (velocity_.empty()) {
    for (const Param* p : params) {
      velocity_.push_back(Tensor::zeros_like(p->value));
    }
  }
  if (velocity_.size() != params.size()) {
    throw std::logic_error("SGD: parameter set changed");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    Tensor& vel = velocity_[i];
    for (std::size_t k = 0; k < vel.size(); ++k) {
      vel[k] = static_cast<float>(momentum_ * vel[k] - lr_ * p.grad[k]);
      p.value[k] += vel[k];
    }
    p.zero_grad();
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  if (!(lr > 0 && std::isfinite(lr))) {
    throw std::invalid_argument("Adam: lr must be finite and > 0");
  }
}

void Adam::step(const std::vector<Param*>& params) {
  if (m_.empty()) {
    for (const Param* p : params) {
      m_.push_back(Tensor::zeros_like(p->value));
      v_.push_back(Tensor::zeros_like(p->value));
    }
  }
  if (m_.size() != params.size()) {
    throw std::logic_error("Adam: parameter set changed");
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t k = 0; k < m.size(); ++k) {
      const double g = p.grad[k];
      m[k] = static_cast<float>(beta1_ * m[k] + (1 - beta1_) * g);
      v[k] = static_cast<float>(beta2_ * v[k] + (1 - beta2_) * g * g);
      const double mhat = m[k] / bc1;
      const double vhat = v[k] / bc2;
      p.value[k] -=
          static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
    p.zero_grad();
  }
}

namespace {

// Slot tensors are stored flat (count, then size + raw floats each): the
// optimizers only ever index them linearly, so shape is not needed to
// resume and a 1-D restore is exact.
void save_slots(std::ostream& os, const std::vector<Tensor>& slots) {
  util::write_pod(os, static_cast<std::uint64_t>(slots.size()));
  for (const Tensor& t : slots) {
    util::write_pod(os, static_cast<std::uint64_t>(t.size()));
    util::write_f32_span(os, t.data(), t.size());
  }
}

// A slot list is empty (the optimizer has not stepped yet) or holds one
// slot per parameter, sized like it: step() indexes each parameter by its
// slot's size, so any other shape would run past the parameter's end.
std::vector<Tensor> load_slots(std::istream& is,
                               const std::vector<Param*>& params,
                               const char* who) {
  util::BinReader<ModelLoadError> r(is, who);
  const auto count = r.pod<std::uint64_t>("slot count");
  if (count != 0 && count != params.size()) {
    throw ModelLoadError(ModelLoadError::Code::ShapeMismatch,
                         std::string(who) + ": checkpoint holds " +
                             std::to_string(count) + " slots for " +
                             std::to_string(params.size()) + " parameters");
  }
  std::vector<Tensor> loaded;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t n = params[i]->value.size();
    if (r.pod<std::uint64_t>("slot size") != n) {
      throw ModelLoadError(ModelLoadError::Code::ShapeMismatch,
                           std::string(who) + ": slot " + std::to_string(i) +
                               " does not match its parameter");
    }
    Tensor t({n});
    r.f32s(t.data(), n, "slot data");
    loaded.push_back(std::move(t));
  }
  return loaded;
}

}  // namespace

void SGD::save_state(std::ostream& os) const { save_slots(os, velocity_); }

void SGD::load_state(std::istream& is, const std::vector<Param*>& params) {
  velocity_ = load_slots(is, params, "SGD");
}

void Adam::save_state(std::ostream& os) const {
  util::write_pod(os, static_cast<std::uint64_t>(t_));
  save_slots(os, m_);
  save_slots(os, v_);
}

void Adam::load_state(std::istream& is, const std::vector<Param*>& params) {
  const std::size_t t =
      util::BinReader<ModelLoadError>(is, "Adam").size("step counter");
  std::vector<Tensor> m = load_slots(is, params, "Adam");
  std::vector<Tensor> v = load_slots(is, params, "Adam");
  if (m.size() != v.size()) {
    throw ModelLoadError(ModelLoadError::Code::ShapeMismatch,
                         "Adam: first and second moments differ in count");
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace autolearn::ml
