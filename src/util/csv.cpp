#include "util/csv.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace pregel {

CsvWriter& CsvWriter::header(const std::vector<std::string_view>& cols) {
  bool first = true;
  for (auto c : cols) {
    if (!first) *out_ << ',';
    *out_ << escape(c);
    first = false;
  }
  *out_ << '\n';
  return *this;
}

void CsvWriter::sep() {
  if (row_open_) *out_ << ',';
  row_open_ = true;
}

CsvWriter& CsvWriter::field(std::string_view v) {
  sep();
  *out_ << escape(v);
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  sep();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  *out_ << buf;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  sep();
  *out_ << v;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  sep();
  *out_ << v;
  return *this;
}

CsvWriter& CsvWriter::end_row() {
  *out_ << '\n';
  row_open_ = false;
  ++rows_;
  return *this;
}

std::string CsvWriter::escape(std::string_view v) {
  const bool needs_quote = v.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(v);
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' && c != '-' && c != '+' &&
        c != 'e' && c != 'E' && c != '%' && c != ',' && c != 'x' && c != '$')
      return false;
  }
  return true;
}
}  // namespace

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  auto pad = [](const std::string& s, std::size_t w, bool right) {
    std::string out;
    if (right) out.append(w - s.size(), ' ');
    out += s;
    if (!right) out.append(w - s.size(), ' ');
    return out;
  };

  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += pad(headers_[c], widths[c], false);
    out += c + 1 < headers_.size() ? "  " : "";
  }
  out += '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(widths[c], '-');
    out += c + 1 < headers_.size() ? "  " : "";
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += pad(row[c], widths[c], looks_numeric(row[c]));
      out += c + 1 < row.size() ? "  " : "";
    }
    out += '\n';
  }
  return out;
}

void TextTable::print(std::ostream& out) const { out << to_string(); }

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace pregel
