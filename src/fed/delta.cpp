#include "fed/delta.hpp"

#include <cmath>
#include <sstream>
#include <string_view>

#include "util/binio.hpp"

namespace autolearn::fed {

namespace {

constexpr char kMagic[4] = {'A', 'L', 'F', 'D'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::size_t param_count(ml::DrivingModel& model) {
  std::size_t n = 0;
  for (ml::Sequential* net : model.mutable_nets()) {
    for (const ml::Param* p : net->params()) n += p->value.size();
  }
  return n;
}

std::vector<float> flatten_params(ml::DrivingModel& model) {
  std::vector<float> out;
  out.reserve(param_count(model));
  for (ml::Sequential* net : model.mutable_nets()) {
    for (const ml::Param* p : net->params()) {
      const float* data = p->value.data();
      out.insert(out.end(), data, data + p->value.size());
    }
  }
  return out;
}

void add_scaled(ml::DrivingModel& model, const std::vector<float>& delta,
                float scale) {
  if (delta.size() != param_count(model)) {
    throw DeltaError(DeltaError::Code::SizeMismatch,
                     "weight delta: " + std::to_string(delta.size()) +
                         " values for a model with " +
                         std::to_string(param_count(model)) + " parameters");
  }
  std::size_t at = 0;
  for (ml::Sequential* net : model.mutable_nets()) {
    for (ml::Param* p : net->params()) {
      float* data = p->value.data();
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        data[i] += scale * delta[at++];
      }
    }
  }
}

std::string encode_delta(const WeightDelta& delta) {
  std::ostringstream os(std::ios::binary);
  util::write_pod(os, kMagic);
  util::write_pod(os, kVersion);
  util::write_pod(os, static_cast<std::uint32_t>(delta.client.size()));
  os.write(delta.client.data(),
           static_cast<std::streamsize>(delta.client.size()));
  util::write_pod(os, delta.round);
  util::write_pod(os, delta.base_version);
  util::write_pod(os, delta.examples);
  util::write_pod(os, static_cast<std::uint64_t>(delta.values.size()));
  util::write_f32_span(os, delta.values.data(), delta.values.size());
  return os.str();
}

WeightDelta decode_delta(const std::string& payload) {
  std::istringstream is(payload, std::ios::binary);
  util::BinReader<DeltaError> r(is, "weight delta");
  if (r.bytes(sizeof kMagic, "magic") !=
      std::string_view(kMagic, sizeof kMagic)) {
    throw DeltaError(DeltaError::Code::BadMagic,
                     "weight delta: bad magic");
  }
  const auto version = r.pod<std::uint32_t>("version");
  if (version != kVersion) {
    throw DeltaError(DeltaError::Code::BadMagic,
                     "weight delta: unknown version " +
                         std::to_string(version));
  }
  WeightDelta out;
  out.client = r.string<std::uint32_t>("client name");
  out.round = r.pod<std::uint64_t>("round");
  out.base_version = r.pod<std::uint64_t>("base version");
  out.examples = r.pod<std::uint64_t>("example count");
  out.values = r.f32s(r.pod<std::uint64_t>("value count"), "values");
  if (!r.at_end()) {
    throw DeltaError(DeltaError::Code::Truncated,
                     "weight delta: trailing bytes");
  }
  return out;
}

void validate_delta(const WeightDelta& delta, std::size_t expected_params) {
  if (delta.values.size() != expected_params) {
    throw DeltaError(DeltaError::Code::SizeMismatch,
                     "weight delta from " + delta.client + ": " +
                         std::to_string(delta.values.size()) +
                         " values, expected " +
                         std::to_string(expected_params));
  }
  for (const float v : delta.values) {
    if (!std::isfinite(v)) {
      throw DeltaError(DeltaError::Code::NonFinite,
                       "weight delta from " + delta.client +
                           ": non-finite value");
    }
  }
}

}  // namespace autolearn::fed
