// Figure 13: latency and bandwidth of the substrate against kernel TCP.
//
// Latency series: Datagram sockets, Data Streaming sockets (all
// enhancements), TCP.  Bandwidth series additionally split TCP by socket
// buffer size (default 16 KB vs tuned) and include raw EMP.
//
// Paper reference: latency 28.5 us (DG) / 37 us (DS) / ~120 us (TCP), a
// 4.2x / 3.4x improvement; peak bandwidth ~840 Mb/s vs 340 Mb/s (16 KB
// buffers) and ~550 Mb/s (tuned).
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const int iters = opt.iters_or(50);
  // Smoke runs (--iters N) also shrink the per-point transfer so the
  // bandwidth half finishes quickly.
  const std::size_t total = opt.iters > 0 ? (1ul << 20) : (24ul << 20);

  BenchResults results("fig13_microbench",
                       "Substrate vs kernel TCP: latency and bandwidth");
  const auto dg = StackChoice::substrate(sockets::preset("dg"));
  const auto ds = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto tcp_def = StackChoice::tcp();
  const auto tcp_256k = StackChoice::tcp(262'144);
  const auto emp = StackChoice::raw_emp();

  std::printf("Figure 13a: latency vs message size (one-way, us)\n\n");
  {
    const std::size_t sizes[] = {4, 64, 256, 1024, 4096};
    const StackChoice* stacks[] = {&dg, &ds, &tcp_def};
    const char* series[] = {"Datagram", "DataStreaming", "TCP"};
    sim::ResultTable table({"size", "Datagram", "DataStreaming", "TCP",
                            "TCP/DG"});
    for (std::size_t size : sizes) {
      double lat[3];
      for (std::size_t s = 0; s < 3; ++s) {
        lat[s] = measure_latency_us(*stacks[s], size, iters);
        results.add(series[s], *stacks[s], size_label(size), lat[s], "us");
      }
      table.add_row({size_label(size), sim::ResultTable::num(lat[0], 1),
                     sim::ResultTable::num(lat[1], 1),
                     sim::ResultTable::num(lat[2], 1),
                     sim::ResultTable::num(lat[2] / lat[0], 1)});
    }
    table.print();
    std::printf(
        "\npaper (4B): DG 28.5, DS 37, TCP ~120  (4.2x / 3.4x better)\n\n");
  }

  std::printf("Figure 13b: bandwidth vs message size (Mb/s)\n\n");
  {
    const std::size_t sizes[] = {1024, 4096, 16384, 65536};
    const StackChoice* stacks[] = {&ds, &dg, &tcp_def, &tcp_256k, &emp};
    const char* series[] = {"bw_Substrate_DS", "bw_Datagram", "bw_TCP_16K",
                            "bw_TCP_tuned", "bw_raw_EMP"};
    sim::ResultTable table({"size", "Substrate_DS", "Datagram", "TCP_16K",
                            "TCP_tuned", "raw_EMP"});
    for (std::size_t size : sizes) {
      double bw[5];
      for (std::size_t s = 0; s < 5; ++s) {
        bw[s] = measure_bandwidth_mbps(*stacks[s], size, total);
        results.add(series[s], *stacks[s], size_label(size), bw[s], "mbps");
      }
      table.add_row({size_label(size), sim::ResultTable::num(bw[0], 0),
                     sim::ResultTable::num(bw[1], 0),
                     sim::ResultTable::num(bw[2], 0),
                     sim::ResultTable::num(bw[3], 0),
                     sim::ResultTable::num(bw[4], 0)});
    }
    table.print();
    std::printf(
        "\npaper (peak): substrate ~840, TCP 340 (16K) / 550 (tuned), "
        "EMP ~880\n");
  }
  results.write(opt.out_dir);
  return 0;
}
