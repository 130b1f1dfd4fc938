// Strict numbers for command-line flags, shared by lktm-sim, lktm_sweep and
// lktm_check. For unsigned integers the whole argument must be decimal digits
// and the value must fit the target type, so `--seed x`, `--threads 4x` or
// `--cores -1` is a usage error rather than a silent 0, a truncated 4 or a
// value wrapped to 2^32 - 1.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace lktm::cli {

/// The value of `text` as a T, or nullopt unless `text` is a non-empty run of
/// decimal digits whose value fits in T.
template <class T>
std::optional<T> parseUnsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>, "parseUnsigned wants an unsigned type");
  T value{};
  const char* end = text.data() + text.size();
  // For unsigned T, from_chars accepts digits only: no sign, no whitespace,
  // and an empty string is an error.
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// parseUnsigned for flag `flag` of `tool`; on bad input prints a diagnostic
/// and exits with status 2 (usage error).
template <class T>
T unsignedArg(const char* tool, const char* flag, const char* text) {
  if (const std::optional<T> v = parseUnsigned<T>(text)) return *v;
  std::fprintf(stderr, "%s: %s wants an unsigned decimal integer, got '%s'\n", tool, flag,
               text);
  std::exit(2);
}

}  // namespace lktm::cli
