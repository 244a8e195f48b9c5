// ASCII / CSV table rendering for the bench harness and examples.
//
// Every bench binary prints the rows a paper figure plots; Table keeps the
// formatting consistent (aligned ASCII for humans, CSV for plotting scripts).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace eotora::util {

class Table {
 public:
  // Column headers define the table width; every row must match.
  explicit Table(std::vector<std::string> headers);

  // Appends a pre-formatted row. Requires row.size() == number of headers.
  void add_row(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  void add_numeric_row(const std::vector<double>& row, int precision = 4);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

  // Aligned, boxed ASCII rendering.
  [[nodiscard]] std::string to_ascii() const;

  void print(std::ostream& os) const;  // ASCII to the stream.

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with fixed precision (helper shared by benches).
[[nodiscard]] std::string format_double(double value, int precision = 4);

}  // namespace eotora::util
