// CSV emission for experiment results. Every bench writes its series both as
// a human-readable console table and as CSV rows suitable for replotting.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pregel {

/// Row-at-a-time CSV writer with RFC-4180 quoting.
class CsvWriter {
 public:
  /// Writes to an externally owned stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  CsvWriter& header(std::initializer_list<std::string_view> cols) {
    return header(std::vector<std::string_view>(cols));
  }
  CsvWriter& header(const std::vector<std::string_view>& cols);

  /// Begin a row; then chain field() calls; end_row() finishes the line.
  CsvWriter& field(std::string_view v);
  CsvWriter& field(double v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }
  CsvWriter& end_row();

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  void sep();
  static std::string escape(std::string_view v);

  std::ostream* out_;
  bool row_open_ = false;
  std::size_t rows_ = 0;
};

/// Console-friendly fixed-width table: collects rows, prints aligned.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Render with column alignment; numeric-looking cells right-align.
  std::string to_string() const;
  void print(std::ostream& out) const;

  std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper: fixed-decimals double to string (bench tables).
std::string fmt(double v, int decimals = 2);

}  // namespace pregel
