// Small string helpers shared across modules (CSV parsing, CLI-ish args).
#pragma once

#include <string>

namespace eotora::util {

// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string trim(const std::string& text);

// Parses a decimal double, throwing std::invalid_argument with context on
// failure. Deliberately stricter than strtod: `inf`/`nan` spellings and C99
// hex-floats are rejected (no numeric field in this codebase — CLI flags,
// replay CSVs, price traces — legitimately contains them), as is any text
// whose magnitude overflows double (ERANGE). Values that underflow to zero
// or a denormal parse normally.
[[nodiscard]] double parse_double(const std::string& text);

// Parses a base-10 long exactly (no round-trip through double, so values
// above 2^53 keep every digit). Throws std::invalid_argument on non-integer
// text or when the value does not fit in long.
[[nodiscard]] long parse_long(const std::string& text);

// True when `text` starts with `prefix`.
[[nodiscard]] bool starts_with(const std::string& text,
                               const std::string& prefix);

}  // namespace eotora::util
