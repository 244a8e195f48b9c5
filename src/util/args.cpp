#include "util/args.h"

#include <stdexcept>

#include "util/check.h"
#include "util/strings.h"

namespace eotora::util {

Args::Args(int argc, const char* const* argv,
           std::set<std::string> allowed) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!starts_with(token, "--")) {
      throw std::invalid_argument("unexpected argument '" + token +
                                  "' (expected --key=value)");
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    const std::string key = body.substr(0, eq);
    if (allowed.find(key) == allowed.end()) {
      std::string known;
      for (const auto& k : allowed) known += " --" + k;
      throw std::invalid_argument("unknown option '--" + key +
                                  "'; known options:" + known);
    }
    // Last-wins on a repeated flag would silently drop the earlier value
    // ("--devices=10 --devices=100" ran with 100); repeats are always a
    // mistake here, so reject them.
    if (values_.find(key) != values_.end()) {
      throw std::invalid_argument("duplicate option '--" + key +
                                  "': every option may be given at most once");
    }
    values_[key] = eq == std::string::npos ? "" : body.substr(eq + 1);
  }
}

bool Args::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_double(it->second);
}

long Args::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // parse_long, not parse_double-and-truncate: a double round-trip loses
  // precision silently above 2^53.
  try {
    return parse_long(it->second);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("option '--" + key +
                                "' expects an integer, got '" + it->second +
                                "'");
  }
}

std::uint64_t Args::get_uint(const std::string& key, std::uint64_t fallback,
                             std::uint64_t min) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  long value = -1;
  try {
    value = parse_long(it->second);
  } catch (const std::invalid_argument&) {
    // Reported below with the same message as a negative value.
  }
  if (value < 0) {
    throw std::invalid_argument("option '--" + key +
                                "' expects a non-negative integer, got '" +
                                it->second + "'");
  }
  if (static_cast<std::uint64_t>(value) < min) {
    throw std::invalid_argument("option '--" + key + "' must be at least " +
                                std::to_string(min) + ", got '" + it->second +
                                "'");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace eotora::util
