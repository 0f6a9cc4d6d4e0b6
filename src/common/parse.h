// Whole-token number parsing for the text ingresses: command-line flags
// and trace files.
//
// std::from_chars reads the whole token or the parse fails. An unsigned
// type takes no sign, so "-1" is an error instead of wrapping to 2^64 - 1;
// a value outside T's range is an error instead of being truncated by a
// narrowing cast; and a double must be finite (from_chars also spells
// "nan" and "inf").

#ifndef CSFC_COMMON_PARSE_H_
#define CSFC_COMMON_PARSE_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace csfc {

/// Parses all of `token` as a T. Writes *out only on success.
template <typename T>
bool ParseToken(std::string_view token, T* out) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace csfc

#endif  // CSFC_COMMON_PARSE_H_
