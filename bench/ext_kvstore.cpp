// Extension bench (paper §8 future work): a data-center-style key-value
// service.  Mean operation latency and achieved op rate for a GET-heavy
// mix, substrate vs kernel TCP — the workload the paper planned to carry
// to commercial data centers.
#include <cstdio>

#include "apps/cluster.hpp"
#include "apps/kvstore.hpp"
#include "harness.hpp"
#include "sim/stats.hpp"

using namespace ulsocks;
using sim::Task;

namespace {

struct KvResult {
  double mean_us = 0;
  double kops = 0;
};

KvResult run_kv(apps::Cluster::StackKind kind, std::size_t value_bytes,
                std::size_t ops) {
  sim::Engine eng;
  sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
  KvResult result;

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::KvServerOptions opt;
    opt.max_connections = 1;
    co_await apps::kv_server(proc, cl.stack(0, kind), opt);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(10'000);
    os::Process proc(cl.node(1).host);
    apps::KvClient kv(proc, cl.stack(1, kind), 0);
    co_await kv.connect();
    std::vector<std::uint8_t> value(value_bytes, 0x5a);
    // Populate, then a GET-heavy (4:1) steady state.
    for (int k = 0; k < 16; ++k) {
      (void)co_await kv.set("key" + std::to_string(k), value);
    }
    sim::Time t0 = eng.now();
    for (std::size_t i = 0; i < ops; ++i) {
      std::string key = "key" + std::to_string(i % 16);
      if (i % 5 == 0) {
        (void)co_await kv.set(key, value);
      } else {
        auto v = co_await kv.get(key);
        (void)v;
      }
    }
    double us = sim::to_us(eng.now() - t0);
    result.mean_us = us / static_cast<double>(ops);
    result.kops = static_cast<double>(ops) / (us / 1e3);
    co_await kv.close();
  };
  eng.spawn(server());
  eng.spawn(client());
  bench::run_measured(eng);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::BenchOptions;
  using bench::BenchResults;

  const BenchOptions opt = bench::parse_bench_args(argc, argv);
  const std::size_t ops = opt.iters > 0
                              ? static_cast<std::size_t>(opt.iters)
                              : 400;

  std::printf(
      "Extension: key-value store (the paper's data-center future work)\n"
      "GET-heavy 4:1 mix over one persistent connection\n\n");
  BenchResults results("ext_kvstore",
                       "Key-value store, GET-heavy 4:1 mix");
  sim::ResultTable table({"value", "sub_us/op", "sub_kops", "tcp_us/op",
                          "tcp_kops", "speedup"});
  for (std::size_t bytes : {64ul, 1024ul, 8192ul}) {
    auto sub = run_kv(apps::Cluster::StackKind::kSubstrate, bytes, ops);
    results.add("Substrate", "substrate", "DS + Delayed Acks + UQ",
                bench::size_label(bytes), sub.mean_us, "us");
    auto tcp = run_kv(apps::Cluster::StackKind::kTcp, bytes, ops);
    results.add("TCP", "tcp", "default", bench::size_label(bytes),
                tcp.mean_us, "us");
    table.add_row({bench::size_label(bytes),
                   sim::ResultTable::num(sub.mean_us, 1),
                   sim::ResultTable::num(sub.kops, 1),
                   sim::ResultTable::num(tcp.mean_us, 1),
                   sim::ResultTable::num(tcp.kops, 1),
                   sim::ResultTable::num(tcp.mean_us / sub.mean_us, 1)});
  }
  table.print();
  std::printf(
      "\nexpected: request-response traffic inherits the latency win "
      "(~3-4x),\nthe gap shrinking as values grow toward bandwidth-bound "
      "sizes\n");
  results.write(opt.out_dir);
  return 0;
}
