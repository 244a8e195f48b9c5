#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace eotora::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  EOTORA_REQUIRE(!headers_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  EOTORA_REQUIRE_MSG(row.size() == headers_.size(),
                     "row has " << row.size() << " fields, expected "
                                << headers_.size());
  rows_.push_back(std::move(row));
}

void Table::add_numeric_row(const std::vector<double>& row, int precision) {
  std::vector<std::string> formatted;
  formatted.reserve(row.size());
  for (double v : row) formatted.push_back(format_double(v, precision));
  add_row(std::move(formatted));
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto rule = [&] {
    std::string s = "+";
    for (std::size_t w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& fields) {
    std::ostringstream oss;
    oss << "|";
    for (std::size_t c = 0; c < fields.size(); ++c) {
      oss << ' ' << std::setw(static_cast<int>(widths[c])) << std::right
          << fields[c] << " |";
    }
    oss << '\n';
    return oss.str();
  };
  std::string out = rule() + line(headers_) + rule();
  for (const auto& row : rows_) out += line(row);
  out += rule();
  return out;
}

void Table::print(std::ostream& os) const { os << to_ascii(); }

std::string format_double(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

}  // namespace eotora::util
