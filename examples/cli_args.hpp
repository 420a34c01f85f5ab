// Strict numeric command-line arguments for the examples. A number must be
// the whole token: "3x", "-1" for a count, "nan" and "inf" for a duration,
// and "abc" for a seed are errors, where std::stoul/std::stod/strtoull
// would read 3, 2^64 - 1, NaN, infinity or 0.
#pragma once

#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>

namespace autolearn::cli {

/// The token as a T when all of it is one decimal number in T's range
/// (an unsigned T takes plain digits only); nullopt otherwise.
template <typename T>
std::optional<T> parse_number(const std::string& token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// A duration: a whole-token number of seconds, finite and > 0.
inline std::optional<double> parse_seconds(const std::string& token) {
  const std::optional<double> s = parse_number<double>(token);
  if (!s || !std::isfinite(*s) || !(*s > 0)) return std::nullopt;
  return s;
}

/// Reports a rejected argument on stderr; returns the usage exit code, 2.
inline int bad_number(const std::string& what, const std::string& token) {
  std::cerr << "error: " << what << " '" << token << "'\n";
  return 2;
}

}  // namespace autolearn::cli
