// Extension bench (paper §8 future work): a data-center-style key-value
// service.  Mean operation latency for a GET-heavy mix, substrate vs
// kernel TCP — the workload the paper planned to carry to commercial data
// centers.
#include "apps/cluster.hpp"
#include "apps/kvstore.hpp"
#include "harness.hpp"

using namespace ulsocks;
using sim::Task;

namespace {

// Mean operation latency (us) of `ops` operations on `value_bytes` values.
double run_kv(apps::Cluster::StackKind kind, std::size_t value_bytes,
              std::size_t ops) {
  sim::Engine eng;
  sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
  double mean_us = 0;

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
    mean_us = sim::to_us(eng.now() - t0) / static_cast<double>(ops);
    co_await kv.close();
  };
  eng.spawn(server());
  eng.spawn(client());
  bench::run_measured(eng);
  return mean_us;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  constexpr std::size_t kOps = 400;

  bench::BenchResults results("ext_kvstore",
                              "Key-value store, GET-heavy 4:1 mix", "value");
  results.ratio("TCP/Sub", "TCP", "Substrate");
  for (std::size_t bytes : {64ul, 1024ul, 8192ul}) {
    results.add("Substrate", "substrate", "DS + Delayed Acks + UQ",
                bench::size_label(bytes),
                run_kv(apps::Cluster::StackKind::kSubstrate, bytes, kOps),
                "us");
    results.add("TCP", "tcp", "default", bench::size_label(bytes),
                run_kv(apps::Cluster::StackKind::kTcp, bytes, kOps), "us");
  }
  results.write(opt.out_dir);
  return 0;
}
