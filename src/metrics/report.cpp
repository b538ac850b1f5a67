#include "metrics/report.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.h"

namespace fluidfaas::metrics {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> cells) {
  FFS_CHECK_MSG(cells.size() == header_.size(),
                "row width does not match header");
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto rule = [&] {
    for (std::size_t c = 0; c < width.size(); ++c) {
      os << "+" << std::string(width[c] + 2, '-');
    }
    os << "+\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << std::left << std::setw(static_cast<int>(width[c]))
         << cells[c] << " ";
    }
    os << "|\n";
  };
  rule();
  line(header_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string Fmt(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string FmtPercent(double fraction, int decimals) {
  return Fmt(fraction * 100.0, decimals) + "%";
}

std::string FmtGain(double value, double base, int decimals) {
  if (!(base > 0.0)) return "-";
  const double percent = 100.0 * (value / base - 1.0);
  if (!std::isfinite(percent)) return "-";
  std::string out = Fmt(percent, decimals);
  // A value that rounds to zero is no loss: -0.04 at one decimal prints
  // +0.0%, not -0.0%.
  if (out.find_first_not_of("-0.") == std::string::npos) {
    out = Fmt(0.0, decimals);
  }
  if (out.front() != '-') out.insert(0, 1, '+');
  out += '%';
  return out;
}

std::string FmtMillis(double us, int decimals) {
  return Fmt(us / 1000.0, decimals) + "ms";
}

}  // namespace fluidfaas::metrics
