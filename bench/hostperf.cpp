// Host performance of the simulator itself: wall-clock events/sec on the
// fig13 microbench workloads, plus a raw engine churn loop.
//
// Unlike every other bench, the value here is NOT a simulated quantity —
// it is how fast this build of the simulator executes on the host.  The
// committed baseline (bench/baselines/BENCH_hostperf.json) is the
// regression gate: scripts/check_hostperf.py fails the build if any
// events/sec point drops more than 25% below it.
//
// Methodology: each scenario runs `reps` times, the reps taken
// round-robin across scenarios, and records the best
// events/sec (best-of-N is robust against scheduler noise on shared CI
// hosts; medians still drift when the whole host is loaded).  The
// simulated results of every rep are identical — the engine is
// deterministic — so best-of changes only the wall-clock estimate.
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace {

/// Pure event-queue churn: four self-rescheduling chains of empty events,
/// no protocol work at all.  Measures the engine's ceiling.
void engine_churn(std::uint64_t total_events) {
  ulsocks::sim::Engine eng;
  // No protocol stack runs here, so no host copies happen; register the
  // counter anyway so every bench point carries host/bytes_copied.
  (void)eng.metrics().counter("host/bytes_copied");
  struct Chain {
    ulsocks::sim::Engine* eng;
    std::uint64_t left;
    void operator()() {
      if (--left == 0) return;
      eng->schedule_after(100, Chain{*this});
    }
  };
  for (std::uint64_t lane = 0; lane < 4; ++lane) {
    eng.schedule_after(lane, Chain{&eng, total_events / 4});
  }
  ulsocks::bench::run_measured(eng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  // Smoke runs (--iters N) shrink every scenario so CI stays fast; the
  // committed baseline is recorded with the full defaults.
  const bool smoke = opt.iters > 0;
  const int reps = 3;

  BenchResults results("hostperf",
                       "Simulator host throughput (wall-clock events/sec)");
  const auto ds = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto emp = StackChoice::raw_emp();

  const std::size_t bw_total = smoke ? (4ul << 20) : (96ul << 20);
  const std::size_t ftp_bytes = smoke ? (512ul << 10) : (24ul << 20);
  const int lat_iters = smoke ? opt.iters : 2000;
  const std::size_t scale_requests = smoke ? 8 : 192;
  // C10K: 3 client hosts x 334 connections ~ 1000 concurrent against one
  // server.  Small credit window / staging buffers keep the descriptor
  // memory of a thousand live connections bounded (credits=4 is the
  // paper's web-server setting).
  const std::size_t c10k_conns = smoke ? 8 : 334;
  sockets::SubstrateConfig c10k_cfg = sockets::preset("ds_da_uq").cfg;
  c10k_cfg.credits = 4;
  c10k_cfg.buffer_bytes = 2048;
  const auto c10k = StackChoice::substrate(c10k_cfg, "c10k credits=4");

  struct Scenario {
    const char* name;
    const StackChoice* stack;
    const char* x;
    std::function<double()> job;
    const char* unit = "evps";
  };
  const std::vector<Scenario> scenarios = {
      // Large-message streaming drained with the zero-copy read_view API:
      // the tentpole workload for the slice data path.
      {"fig13_bw_64K", &ds, "64K",
       [&] { return measure_bandwidth_view_mbps(ds, 65536, bw_total); }},
      {"fig13_lat_4B", &ds, "4",
       [&] { return measure_latency_us(ds, 4, lat_iters); }},
      // Large-file FTP over the substrate (the paper's fig 14 application).
      {"fig14_ftp", &ds, "file",
       [&] { return measure_ftp_mbps(ds, ftp_bytes); }},
      {"emp_bw_64K", &emp, "64K",
       [&] { return measure_bandwidth_mbps(emp, 65536, bw_total); }},
      // Sharded scaling: the same 16-host web workload serial and at 4
      // shards.  The simulated result is identical; the 4-shard run pays
      // the epoch barriers on one thread, and check_hostperf.py gates its
      // events/sec at >= 0.7x the 1-shard point.
      {"scale_web_16hosts", &ds, "1shard",
       [&] { return measure_scale_web_evps(ds, 16, 1, scale_requests); }},
      {"scale_web_16hosts", &ds, "4shards",
       [&] { return measure_scale_web_evps(ds, 16, 4, scale_requests); }},
      // C10K ring-vs-blocking: identical traffic (~1000 simultaneous
      // connections), two servers.  The gated quantity is requests served
      // per wall second — the ring's point is doing the same application
      // work with fewer engine events (one parked pump vs a thundering
      // herd), so events/sec would reward the blocking server's waste.
      // check_hostperf.py asserts ring >= blocking.
      {"scale_c10k", &c10k, "ring",
       [&] { return measure_scale_c10k_reqps(c10k, true, c10k_conns); },
       "reqps"},
      {"scale_c10k", &c10k, "blocking",
       [&] { return measure_scale_c10k_reqps(c10k, false, c10k_conns); },
       "reqps"},
      // The ring server composes with the sharded engine: same workload
      // partitioned over 4 shards.
      {"scale_c10k", &c10k, "ring_4shards",
       [&] { return measure_scale_c10k_reqps(c10k, true, c10k_conns, 4); },
       "reqps"},
  };

  // Reps run round-robin over the scenarios rather than back to back, so
  // host drift during the run lands on every scenario alike instead of on
  // whichever ran last — the ratio gates in check_hostperf.py compare
  // points of one run against each other.
  struct Best {
    double value = -1.0;
    HostPerf perf;
    std::map<std::string, std::int64_t> metrics;
  };
  std::vector<Best> bests(scenarios.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const Scenario& sc = scenarios[s];
      // evps scenarios record the run's host events/sec; other units (the
      // C10K reqps points) record the job's own return value.  Best-of-N
      // picks by the recorded quantity either way.
      const double ret = sc.job();
      const HostPerf& p = last_run_host_perf();
      const double value =
          std::string_view(sc.unit) == "evps" ? p.events_per_sec : ret;
      if (value > bests[s].value) bests[s] = {value, p, last_run_metrics()};
    }
  }
  sim::ResultTable table({"scenario", "stack", "Mev/s", "wall_ms"});
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& sc = scenarios[s];
    const Best& best = bests[s];
    results.add(sc.name, sc.stack->name(), sc.stack->config_label(), sc.x,
                best.value, sc.unit, best.metrics);
    table.add_row({sc.name, sc.stack->name(),
                   sim::ResultTable::num(best.perf.events_per_sec / 1e6, 2),
                   sim::ResultTable::num(best.perf.wall_ms, 1)});
  }

  {
    const std::uint64_t n = smoke ? 200'000 : 2'000'000;
    HostPerf best{};
    std::map<std::string, std::int64_t> best_metrics;
    for (int r = 0; r < reps; ++r) {
      engine_churn(n);
      if (last_run_host_perf().events_per_sec > best.events_per_sec) {
        best = last_run_host_perf();
        best_metrics = last_run_metrics();
      }
    }
    results.add("engine_churn", "sim", "engine", "empty_events",
                best.events_per_sec, "evps", std::move(best_metrics));
    table.add_row({"engine_churn", "sim",
                   sim::ResultTable::num(best.events_per_sec / 1e6, 2),
                   sim::ResultTable::num(best.wall_ms, 1)});
  }

  table.print();
  results.write(opt.out_dir);
  return 0;
}
