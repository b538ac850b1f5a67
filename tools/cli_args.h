// Minimal `--key value` command-line parsing for the fluidfaas CLI.
// Flags may appear in any order; unknown keys are rejected up front so
// typos fail loudly instead of silently using defaults. Numbers are parsed
// whole: "5x", "1.9" for an integer or "-1" for a seed is an error, never a
// silent prefix or wrap-around, and a rate, scale or load factor may not be
// negative.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace fluidfaas::tools {

class CliArgs {
 public:
  /// Parse argv[first..): alternating "--key value" pairs. `allowed`
  /// is the full set of recognized keys (without the leading dashes).
  CliArgs(int argc, char** argv, int first,
          const std::set<std::string>& allowed) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw FfsError("expected --flag, got: " + key);
      }
      key = key.substr(2);
      if (!allowed.count(key)) {
        throw FfsError("unknown flag: --" + key);
      }
      if (i + 1 >= argc) {
        throw FfsError("missing value for --" + key);
      }
      values_[key] = argv[++i];
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// --`key` parsed whole as a T (ParseNumber), or `fallback` if absent.
  template <typename T>
  T Get(const std::string& key, T fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : ParseNumber<T>(key, it->second);
  }

  double GetDouble(const std::string& key, double fallback) const {
    return Get<double>(key, fallback);
  }

  long GetInt(const std::string& key, long fallback) const {
    return Get<long>(key, fallback);
  }

  /// A count (nodes, GPUs): an integer in [1, INT_MAX].
  int GetCount(const std::string& key, int fallback) const {
    const long v = GetInt(key, fallback);
    if (v < 1 || v > std::numeric_limits<int>::max()) {
      throw FfsError(std::string("--") + key + " must be a positive count");
    }
    return static_cast<int>(v);
  }

  /// A number > 0 (durations).
  double GetPositive(const std::string& key, double fallback) const {
    const double v = GetDouble(key, fallback);
    if (!(v > 0.0)) throw FfsError(std::string("--") + key + " must be > 0");
    return v;
  }

  /// A number >= 0 (rates, scales, load factors).
  double GetNonNegative(const std::string& key, double fallback) const {
    return RequireNonNegative(key, GetDouble(key, fallback));
  }

  /// GetList<double>, every item >= 0.
  std::vector<double> GetNonNegativeList(const std::string& key) const {
    std::vector<double> out = GetList<double>(key);
    for (double v : out) RequireNonNegative(key, v);
    return out;
  }

  /// The comma-separated items of --`key` (or of `fallback` when absent),
  /// empty items skipped; each parsed whole as a T unless T is a string.
  template <typename T>
  std::vector<T> GetList(const std::string& key,
                         const std::string& fallback = "") const {
    std::vector<T> out;
    std::istringstream ss(GetString(key, fallback));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      if constexpr (std::is_same_v<T, std::string>) {
        out.push_back(item);
      } else {
        out.push_back(ParseNumber<T>(key, item));
      }
    }
    return out;
  }

 private:
  static double RequireNonNegative(const std::string& key, double v) {
    if (v < 0.0) throw FfsError(std::string("--") + key + " must be >= 0");
    return v;
  }

  /// Parse all of `token` as a T for --`flag`: nothing may be left over,
  /// integers take no fraction, unsigned integers take no sign, and a
  /// floating-point value must be finite. Throws FfsError otherwise.
  template <typename T>
  static T ParseNumber(const std::string& flag, const std::string& token) {
    T v{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
    if (!ok) {
      const char* kind = std::is_floating_point_v<T> ? "a finite number"
                         : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                     : "an integer";
      throw FfsError(std::string("--") + flag + " expects " + kind +
                     ", got: " + token);
    }
    return v;
  }

  std::map<std::string, std::string> values_;
};

}  // namespace fluidfaas::tools
