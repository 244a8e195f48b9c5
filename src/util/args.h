// Minimal command-line argument parsing for the example drivers.
//
// Supports --key=value and --flag forms. Unknown keys are rejected up front
// so typos fail loudly instead of silently running defaults.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace eotora::util {

class Args {
 public:
  // Parses argv. `allowed` is the complete set of recognized keys (without
  // the leading dashes). Throws std::invalid_argument on malformed tokens
  // or unknown keys.
  Args(int argc, const char* const* argv, std::set<std::string> allowed);

  [[nodiscard]] bool has(const std::string& key) const;

  // Typed getters with defaults. Throw std::invalid_argument when the value
  // does not parse.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  // For counts, sizes and seeds: a negative value is rejected by name
  // instead of wrapping to a huge unsigned one, and so is a value below
  // `min` (min = 1 for counts that must be positive).
  [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                       std::uint64_t fallback,
                                       std::uint64_t min = 0) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace eotora::util
