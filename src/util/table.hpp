// Aligned plain-text table printing for the bench harnesses, the examples
// and the CLI.
//
// The bench binaries regenerate the paper's tables; TextTable keeps their
// stdout output readable and diff-able (fixed column alignment).
#pragma once

#include <concepts>
#include <ostream>
#include <string>
#include <vector>

namespace dlouvain::util {

class TextTable {
 public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; the row is padded/truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double value, int precision = 4);

  /// Any integer type formats exactly.
  template <typename T>
    requires std::integral<T>
  static std::string fmt(T value) {
    return std::to_string(value);
  }

  /// Render with space padding and a header rule.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  [[nodiscard]] std::vector<std::size_t> column_widths() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dlouvain::util
