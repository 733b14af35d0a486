// Measurement accumulators and result-table formatting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ulsocks::sim {

/// Streaming mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  void reset() { *this = OnlineStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width text table used by the figure-reproduction benches so every
/// harness prints paper-style rows the same way.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 2);

  /// Render to a string (also used by tests to check harness output).
  [[nodiscard]] std::string to_string() const;

  /// Print to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ulsocks::sim
