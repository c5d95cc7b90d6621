// Number formatting for the exporters (DESIGN.md §8). Every byte is produced
// by std::to_chars, so the output depends on neither the locale nor stream
// state, and each function is specified as the printf format it replaces:
// the artifacts read exactly as they did when the exporters used snprintf.
// Each writes at p, which must have room for the text, and returns its end.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace lossburst::obs {

/// Room enough for any put_number text: the longest "%.10g" output,
/// "-1.234567891e-308", is 17 characters.
inline constexpr std::size_t kNumberChars = 24;

/// printf "%.10g" (to_chars general with precision 10 is specified as that
/// format). Integral |v| < 1e10 has at most ten significant digits, which
/// "%.10g" prints as the bare integer; -0.0 prints "-0" and takes the
/// general path with every other value.
inline char* put_number(char* p, double v) {
  if (v > -1e10 && v < 1e10) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      return std::to_chars(p, p + kNumberChars, i).ptr;
    }
  }
  return std::to_chars(p, p + kNumberChars, v, std::chars_format::general, 10).ptr;
}

/// printf "%0<width>lld".
inline char* put_zero_padded(char* p, std::int64_t v, int width) {
  char digits[20];
  const std::uint64_t mag =
      v < 0 ? 0 - static_cast<std::uint64_t>(v) : static_cast<std::uint64_t>(v);
  const char* end = std::to_chars(digits, digits + sizeof digits, mag).ptr;
  if (v < 0) {
    *p++ = '-';
    --width;
  }
  for (auto len = end - digits; len < width; ++len) *p++ = '0';
  return std::copy(static_cast<const char*>(digits), end, p);
}

/// printf "%lld.%0<digits>lld" of (ns / 10^digits, ns % 10^digits), at
/// most 2 * kNumberChars characters: digits 9 is the CSV's seconds
/// ("%lld.%09lld"), digits 3 the trace's microseconds ("%lld.%03lld").
inline char* put_fixed(char* p, std::int64_t ns, int digits) {
  std::int64_t scale = 1;
  for (int i = 0; i < digits; ++i) scale *= 10;
  p = std::to_chars(p, p + kNumberChars, ns / scale).ptr;
  *p++ = '.';
  return put_zero_padded(p, ns % scale, digits);
}

}  // namespace lossburst::obs
