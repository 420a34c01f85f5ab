// Raw little-endian binary codec shared by every binary decoder: checkpoint
// envelopes, weight deltas, model, optimizer and trainer state, aggregator
// and notebook state. Writes never fail silently because the callers check
// the stream once per object. Reads go through one BinReader, which turns
// every short read into the decoder's typed Truncated error and never
// sizes an allocation from a length field before the bytes behind it have
// arrived.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

namespace autolearn::util {

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "write_pod: POD only");
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// RngState is serialized field-by-field (never as one POD blob) so the
// stream carries no indeterminate struct padding.
inline void write_rng_state(std::ostream& os, const RngState& st) {
  for (const std::uint64_t word : st.s) write_pod(os, word);
  write_pod(os, st.cached_normal);
  write_pod(os, static_cast<std::uint8_t>(st.has_cached_normal));
}

inline void write_f32_span(std::ostream& os, const float* data,
                           std::size_t n) {
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(n * sizeof(float)));
}

/// Bounded, typed reader over a binary stream. `Error` is the decoder's
/// typed error: it has a Code::Truncated and a (Code, message) constructor.
/// Every short read throws Error(Truncated, "<decoder>: truncated <field>").
template <typename Error>
class BinReader {
 public:
  BinReader(std::istream& is, const char* decoder)
      : is_(is), decoder_(decoder) {}

  template <typename T>
  T pod(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>, "BinReader: POD only");
    T value{};
    read(&value, sizeof value, field);
    return value;
  }

  /// A u64 count, index or counter.
  std::size_t size(const char* field) {
    return static_cast<std::size_t>(pod<std::uint64_t>(field));
  }

  /// `n` raw bytes, `n` taken from the stream.
  std::string bytes(std::uint64_t n, const char* field) {
    return grow<std::string>(n, field);
  }

  /// A string behind a `Len` length prefix.
  template <typename Len = std::uint64_t>
  std::string string(const char* field) {
    return bytes(pod<Len>(field), field);
  }

  /// `n` floats into a buffer the caller sized from the receiver.
  void f32s(float* dst, std::size_t n, const char* field) {
    read(dst, n * sizeof(float), field);
  }

  /// `n` floats, `n` taken from the stream.
  std::vector<float> f32s(std::uint64_t n, const char* field) {
    return grow<std::vector<float>>(n, field);
  }

  RngState rng_state(const char* field) {
    RngState st;
    for (std::uint64_t& word : st.s) word = pod<std::uint64_t>(field);
    st.cached_normal = pod<double>(field);
    st.has_cached_normal = pod<std::uint8_t>(field) != 0;
    return st;
  }

  bool at_end() { return is_.peek() == std::istream::traits_type::eof(); }

 private:
  // Strings and stream-sized float runs grow by at most this many bytes per
  // read, so a corrupt length field can claim at most one chunk more memory
  // than the stream really holds.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  void read(void* dst, std::size_t n, const char* field) {
    if (!is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n))) {
      throw Error(Error::Code::Truncated,
                  std::string(decoder_) + ": truncated " + field);
    }
  }

  template <typename Buffer>
  Buffer grow(std::uint64_t n, const char* field) {
    using Elem = typename Buffer::value_type;
    constexpr std::uint64_t kStep = kChunkBytes / sizeof(Elem);
    Buffer out;
    while (out.size() < n) {
      const std::size_t at = out.size();
      out.resize(at + static_cast<std::size_t>(
                          std::min<std::uint64_t>(n - at, kStep)));
      read(out.data() + at, (out.size() - at) * sizeof(Elem), field);
    }
    return out;
  }

  std::istream& is_;
  const char* decoder_;
};

}  // namespace autolearn::util
