// Figure 13: latency and bandwidth of the substrate against kernel TCP.
//
// Latency series: Datagram sockets, Data Streaming sockets (all
// enhancements), TCP.  Bandwidth series additionally split TCP by socket
// buffer size (default 16 KB vs tuned) and include raw EMP.
//
// Paper reference: latency 28.5 us (DG) / 37 us (DS) / ~120 us (TCP), a
// 4.2x / 3.4x improvement; peak bandwidth ~840 Mb/s vs 340 Mb/s (16 KB
// buffers) and ~550 Mb/s (tuned).
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  // Bytes each bandwidth point transfers.
  const std::size_t total = 24ul << 20;

  BenchResults results("fig13_microbench",
                       "Substrate vs kernel TCP: latency and bandwidth",
                       "size");
  results.ratio("TCP/DG", "TCP", "Datagram");
  const auto dg = StackChoice::substrate(sockets::preset("dg"));
  const auto ds = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto tcp_def = StackChoice::tcp();
  const auto tcp_256k = StackChoice::tcp(262'144);
  const auto emp = StackChoice::raw_emp();

  {
    const StackChoice* stacks[] = {&dg, &ds, &tcp_def};
    const char* series[] = {"Datagram", "DataStreaming", "TCP"};
    for (std::size_t size : {4ul, 64ul, 256ul, 1024ul, 4096ul}) {
      for (std::size_t s = 0; s < 3; ++s) {
        double us = measure_latency_us(*stacks[s], size);
        results.add(series[s], *stacks[s], size_label(size), us, "us");
      }
    }
  }
  {
    const StackChoice* stacks[] = {&ds, &dg, &tcp_def, &tcp_256k, &emp};
    const char* series[] = {"bw_Substrate_DS", "bw_Datagram", "bw_TCP_16K",
                            "bw_TCP_tuned", "bw_raw_EMP"};
    for (std::size_t size : {1024ul, 4096ul, 16384ul, 65536ul}) {
      for (std::size_t s = 0; s < 5; ++s) {
        double mbps = measure_bandwidth_mbps(*stacks[s], size, total);
        results.add(series[s], *stacks[s], size_label(size), mbps, "mbps");
      }
    }
  }
  results.write(opt.out_dir);
  return 0;
}
