#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace dlouvain::util {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::vector<std::size_t> TextTable::column_widths() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  return widths;
}

void TextTable::print(std::ostream& os) const {
  const auto widths = column_widths();
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << cell << std::string(widths[c] - cell.size() + 2, ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace dlouvain::util
