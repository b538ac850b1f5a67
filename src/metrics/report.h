// Plain-text table and CSV emission helpers shared by the bench binaries,
// so every figure/table prints in a consistent, diff-friendly format.
#pragma once

#include <iostream>
#include <string>
#include <vector>

namespace fluidfaas::metrics {

/// Fixed-width ASCII table. Columns are sized to the widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& os = std::cout) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers.
std::string Fmt(double v, int decimals = 2);
std::string FmtPercent(double fraction, int decimals = 1);
std::string FmtMillis(double us, int decimals = 1);
/// The relative gain of `value` over `base`, 100 × (value / base − 1),
/// printed with its sign ("+25.0%", "-0.1%"); a gain that rounds to zero
/// prints as "+0.0%". No gain is defined over a base <= 0, nor when the
/// ratio is not finite: both print "-".
std::string FmtGain(double value, double base, int decimals);

}  // namespace fluidfaas::metrics
