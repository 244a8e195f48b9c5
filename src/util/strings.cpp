#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace eotora::util {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

double parse_double(const std::string& text) {
  const std::string trimmed = trim(text);
  if (trimmed.empty()) {
    throw std::invalid_argument("parse_double: empty field");
  }
  // strtod also accepts `inf`, `nan(...)`, and C99 hex-floats ("0x1p3").
  // Restricting the alphabet to the decimal-float one up front rejects all
  // of those (any letter other than the exponent marker fails), while
  // strtod below still enforces the actual grammar.
  bool has_digit = false;
  for (const char ch : trimmed) {
    const bool allowed = (ch >= '0' && ch <= '9') || ch == '.' ||
                         ch == '+' || ch == '-' || ch == 'e' || ch == 'E';
    if (!allowed) {
      throw std::invalid_argument("parse_double: not a decimal number: '" +
                                  text + "'");
    }
    has_digit = has_digit || (ch >= '0' && ch <= '9');
  }
  if (!has_digit) {
    throw std::invalid_argument("parse_double: not a decimal number: '" +
                                text + "'");
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(trimmed.c_str(), &end);
  if (end == trimmed.c_str() || *end != '\0') {
    throw std::invalid_argument("parse_double: not a number: '" + text + "'");
  }
  // Overflow saturates to ±HUGE_VAL with ERANGE set; underflow (also
  // ERANGE, but the value stays finite) is deliberately let through.
  if (!std::isfinite(value)) {
    throw std::invalid_argument(
        "parse_double: magnitude overflows double: '" + text + "'");
  }
  return value;
}

long parse_long(const std::string& text) {
  const std::string trimmed = trim(text);
  if (trimmed.empty()) {
    throw std::invalid_argument("parse_long: empty field");
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(trimmed.c_str(), &end, 10);
  if (end == trimmed.c_str() || *end != '\0') {
    throw std::invalid_argument("parse_long: not an integer: '" + text + "'");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("parse_long: out of range for long: '" + text +
                                "'");
  }
  return value;
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace eotora::util
