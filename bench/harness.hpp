// Shared measurement harness for the figure-reproduction benches.
//
// Every routine builds a fresh 2- or 4-node cluster, runs the workload to
// completion in simulated time and reports microseconds / Mb/s exactly the
// way the paper does: "latency" is half the ping-pong round trip, bandwidth
// is receiver-side goodput over the transfer window.
//
// Observability: every run goes through one run scope (run_measured()),
// which keeps that run's full registry snapshot; BenchResults attaches the
// snapshot to the point recorded next and writes the schema-versioned
// BENCH_<figure>.json that scripts/validate_bench_json.py checks.  set_trace_export() arms a Chrome trace_event export of the next
// run (see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace ulsocks::bench {

using apps::Cluster;
using sim::Task;

/// Which transport a measurement runs over.  Built through the named
/// factories so every choice carries a stack name and a config label the
/// JSON emitter reuses; the paper presets flow in via sockets::preset().
class StackChoice {
 public:
  enum class Kind { kSubstrate, kTcp, kRawEmp };

  /// Substrate run with a registry preset (label = the paper figure label).
  [[nodiscard]] static StackChoice substrate(const sockets::Preset& preset);
  /// Substrate run with a hand-built config (ablations that tweak knobs).
  [[nodiscard]] static StackChoice substrate(sockets::SubstrateConfig cfg,
                                             std::string label);
  /// Kernel TCP; `sockbuf` of 0 keeps the kernel default (16 KB).
  [[nodiscard]] static StackChoice tcp(int sockbuf = 0);
  /// Raw EMP ping-pong, no sockets layer at all.
  [[nodiscard]] static StackChoice raw_emp();

  /// Stack name for series labels and JSON: "substrate", "tcp" or "emp".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Configuration label: preset figure label, "sockbuf=N", or "raw".
  [[nodiscard]] const std::string& config_label() const noexcept {
    return label_;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const sockets::SubstrateConfig& cfg() const noexcept {
    return cfg_;
  }
  [[nodiscard]] int tcp_sockbuf() const noexcept { return tcp_sockbuf_; }

 private:
  Kind kind_ = Kind::kSubstrate;
  sockets::SubstrateConfig cfg_{};
  int tcp_sockbuf_ = 0;  // 0: kernel default (16 KB)
  std::string name_ = "substrate";
  std::string label_;
};

/// The run scope of every measured run.  Spawn the workload's roots, then
/// call this: it enables the tracer when a trace export is armed, runs
/// `eng` to completion, records the run's registry snapshot, and writes and
/// disarms an armed trace export.
void run_measured(sim::Engine& eng);

/// Arm a timeline export: the next run_measured() run executes with the
/// tracer enabled and writes Chrome trace_event JSON to `path` when it
/// finishes.
void set_trace_export(std::string path);

/// Options every bench main understands:
///   --iters N    latency iterations per point (smoke runs use small N)
///   --trace F    export a Chrome trace of the first run to F
///   --out DIR    directory for BENCH_<figure>.json (default ".")
struct BenchOptions {
  int iters = 0;  // 0: the figure's default
  std::string trace_path;
  std::string out_dir = ".";

  [[nodiscard]] int iters_or(int dflt) const { return iters > 0 ? iters : dflt; }
};
[[nodiscard]] BenchOptions parse_bench_args(int argc, char** argv);

/// Machine-readable bench results.  add() records one measured point along
/// with the metrics snapshot of the run that produced it; write() emits
///
///   {
///     "schema": "ulsocks.bench.v1",
///     "figure": "<figure>", "title": "<title>",
///     "points": [{"series", "stack", "config", "x", "value", "unit",
///                 "metrics": {"h0/emp/data_frames_tx": 123, ...}}, ...]
///   }
///
/// as BENCH_<figure>.json so plots and regression checks never scrape the
/// human tables.
class BenchResults {
 public:
  BenchResults(std::string figure, std::string title);

  /// Record the point for the measure_* call that just returned `value`.
  void add(std::string_view series, const StackChoice& stack,
           std::string_view x, double value, std::string_view unit);
  /// Record a point that has no StackChoice (raw-parameter ablations).
  void add(std::string_view series, std::string_view stack_name,
           std::string_view config_label, std::string_view x, double value,
           std::string_view unit);
  /// Write BENCH_<figure>.json into `dir`; returns the path written, or
  /// empty on I/O failure (also printed to stderr).
  std::string write(const std::string& dir = ".") const;

 private:
  struct Point {
    std::string series;
    std::string stack;
    std::string config;
    std::string x;
    double value;
    std::string unit;
    std::map<std::string, std::int64_t> metrics;
  };
  std::string figure_;
  std::string title_;
  std::vector<Point> points_;
};

/// One-way latency (us) for `msg_bytes` messages, averaged over `iters`
/// ping-pong rounds after `warmup` rounds.  `dual_cpu = false` runs the
/// NICs with one firmware CPU (ablation of the Tigon2's dual-core design).
[[nodiscard]] double measure_latency_us(const StackChoice& stack,
                                        std::size_t msg_bytes,
                                        int iters = 50, int warmup = 5,
                                        bool dual_cpu = true);

/// Unidirectional goodput (Mb/s) sending `total_bytes` in `msg_bytes`
/// application writes; `dual_cpu` as for measure_latency_us().
[[nodiscard]] double measure_bandwidth_mbps(const StackChoice& stack,
                                            std::size_t msg_bytes,
                                            std::size_t total_bytes,
                                            bool dual_cpu = true);

/// ftp RETR throughput (Mb/s) for a file of `file_bytes` on a RAM disk.
[[nodiscard]] double measure_ftp_mbps(const StackChoice& stack,
                                      std::size_t file_bytes);

/// Web-server mean response time (us): 1 server + 3 clients, 16-byte
/// requests, `response_bytes` replies, `requests_per_connection` per
/// connection (1 = HTTP/1.0, 8 = HTTP/1.1).
[[nodiscard]] double measure_web_response_us(
    const StackChoice& stack, std::uint32_t response_bytes,
    std::uint32_t requests_per_connection, std::size_t requests_per_client);

/// Distributed matmul wall time (ms) for an n x n problem on 4 nodes.
[[nodiscard]] double measure_matmul_ms(const StackChoice& stack,
                                       std::size_t n);

/// Latency with `extra_descriptors` unrelated descriptors pre-posted ahead
/// of the measurement channel (tag-matching walk-cost ablation).
[[nodiscard]] double measure_latency_with_extra_descriptors_us(
    std::size_t extra_descriptors, std::size_t msg_bytes = 4);

/// Pretty size label ("4", "1K", "64K").
[[nodiscard]] std::string size_label(std::size_t bytes);

}  // namespace ulsocks::bench
