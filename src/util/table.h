// ASCII table / CSV emission for the benchmark harness.
//
// Each bench binary regenerates one of the paper's tables or figures; the
// figure benches print one row per data point (series are columns), so the
// paper plot can be re-drawn from the CSV with any plotting tool.
#pragma once

#include <string>
#include <vector>

namespace dsim {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Render as an aligned ASCII table.
  std::string to_ascii() const;
  /// Print ASCII to stdout with a title banner.
  void print(const std::string& title) const;

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dsim
