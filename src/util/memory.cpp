#include "util/memory.h"

#include <fstream>
#include <sstream>
#include <string>

namespace eotora::util {

namespace {

// Reads "<key>:   <value> kB" from /proc/self/status; 0 when absent.
std::size_t status_kb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) != 0 ||
        line.size() <= key.size() || line[key.size()] != ':') {
      continue;
    }
    std::istringstream rest(line.substr(key.size() + 1));
    std::size_t kb = 0;
    rest >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

std::size_t peak_rss_bytes() { return status_kb("VmHWM") * 1024; }

}  // namespace eotora::util
