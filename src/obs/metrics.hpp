// Unified metrics registry: the one read-out path for every per-layer
// counter in the stack.
//
// Each protocol layer registers typed handles — Counter, Gauge, or
// log-bucket Histogram — under a "scope/name" path (e.g.
// "h0/emp/data_frames_tx").  The registry owns the instruments; handles are
// stable references, so hot-path increments are a single pointer chase.
// `snapshot()` flattens everything into an ordered path→value map, which is
// what benches embed in their BENCH_*.json records and what tests diff
// across runs for determinism (paths are sorted, values are integers — two
// identical seeded runs must produce byte-identical snapshots).  Tests read
// counters through `snapshot().at(path)`, so a misspelled path throws.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ulsocks::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  Counter& operator++() noexcept {
    ++value_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) noexcept {
    value_ += n;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, credits held, live sockets).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t d) noexcept { value_ += d; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Log-bucket histogram: bucket i counts observations in [2^(i-1), 2^i)
/// (bucket 0 holds zeros and ones).  Constant memory, O(1) observe, and
/// enough resolution for latency/depth distributions whose interesting
/// structure is multiplicative.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return i < kBuckets ? buckets_[i] : 0;
  }

  /// Upper bound (exclusive) of the values quantile `q` in [0,1] falls in:
  /// the smallest power-of-two bucket boundary covering that rank.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const noexcept;

  /// Which bucket a value lands in.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Owns every instrument, keyed by path.  Lookup is by exact path; creating
/// twice returns the same instrument (so a reconstructed component attaches
/// to its accumulated history within one engine lifetime).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& path);
  [[nodiscard]] Gauge& gauge(const std::string& path);
  [[nodiscard]] Histogram& histogram(const std::string& path);

  /// Ordered path → value view of every instrument.  Counters and gauges
  /// contribute one entry; histograms expand into `/count`, `/sum`, `/min`,
  /// `/max`, and `/p50`//`/p99` bound entries so the map stays integral
  /// (and therefore byte-stable across identical runs).
  [[nodiscard]] std::map<std::string, std::int64_t> snapshot() const;

  /// snapshot() restricted to paths starting with `prefix` — the host- or
  /// layer-scoped view ("h0/", "h1/tcp/", ...).
  [[nodiscard]] std::map<std::string, std::int64_t> snapshot(
      std::string_view prefix) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  // deques give stable element addresses; maps index into them by path.
  std::deque<Counter> counter_store_;
  std::deque<Gauge> gauge_store_;
  std::deque<Histogram> histogram_store_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
};

/// "h<node>" followed by `suffix`: the per-host prefix of metric paths and
/// timeline processes ("h3/emp", "h3").  Built by appending: GCC 12 flags
/// the insert inside `"h" + std::to_string(n)` with a false -Wrestrict.
[[nodiscard]] inline std::string host_label(std::uint32_t node,
                                            std::string_view suffix = {}) {
  std::string label = "h";
  label += std::to_string(node);
  label += suffix;
  return label;
}

/// Prefix helper: a component creates one Scope ("h3/emp") and registers
/// its instruments by bare name.
class Scope {
 public:
  Scope(Registry& reg, std::string prefix)
      : reg_(reg), prefix_(std::move(prefix)) {}

  [[nodiscard]] Counter& counter(std::string_view name) {
    return reg_.counter(prefix_ + "/" + std::string(name));
  }
  [[nodiscard]] Gauge& gauge(std::string_view name) {
    return reg_.gauge(prefix_ + "/" + std::string(name));
  }
  [[nodiscard]] Histogram& histogram(std::string_view name) {
    return reg_.histogram(prefix_ + "/" + std::string(name));
  }
  [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }

 private:
  Registry& reg_;
  std::string prefix_;
};

}  // namespace ulsocks::obs
