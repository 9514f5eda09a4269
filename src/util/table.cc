#include "util/table.h"

#include <algorithm>
#include <cstdio>

#include "util/assertx.h"

namespace dsim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  DSIM_CHECK_MSG(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::to_ascii() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += "| ";
      out += row[c];
      out.append(width[c] - row[c].size() + 1, ' ');
    }
    out += "|\n";
  };
  std::string out;
  emit_row(headers_, out);
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += "|";
    out.append(width[c] + 2, '-');
  }
  out += "|\n";
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

void Table::print(const std::string& title) const {
  std::printf("\n=== %s ===\n%s", title.c_str(), to_ascii().c_str());
  std::fflush(stdout);
}

}  // namespace dsim
