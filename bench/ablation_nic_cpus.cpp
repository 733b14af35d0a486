// Ablation: the Tigon2's two firmware CPUs (cf. Shivam et al., IPDPS'02,
// "Can User Level Protocols Take Advantage of Multi-CPU NICs?").
//
// In single-CPU mode the transmit and receive firmware paths serialize on
// one core; ping-pong latency suffers little (the paths alternate) but
// bidirectional and streaming throughput lose the overlap.
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const std::size_t total = opt.iters > 0 ? (1ul << 20) : (16ul << 20);

  const auto sub = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto emp = StackChoice::raw_emp();

  BenchResults results("ablation_nic_cpus",
                       "Dual vs single NIC firmware CPU");
  std::printf("Ablation: dual vs single NIC firmware CPU\n\n");
  sim::ResultTable table({"metric", "dual_cpu", "single_cpu"});

  double lat_dual = measure_latency_us(sub, 4, 50, 5, /*dual_cpu=*/true);
  results.add("latency_4B", sub, "dual", lat_dual, "us");
  double lat_single = measure_latency_us(sub, 4, 50, 5, /*dual_cpu=*/false);
  results.add("latency_4B", sub, "single", lat_single, "us");
  table.add_row({"latency_4B_us", sim::ResultTable::num(lat_dual, 1),
                 sim::ResultTable::num(lat_single, 1)});

  double bw_dual = measure_bandwidth_mbps(sub, 65536, total,
                                          /*dual_cpu=*/true);
  results.add("stream_bw", sub, "dual", bw_dual, "mbps");
  double bw_single = measure_bandwidth_mbps(sub, 65536, total,
                                            /*dual_cpu=*/false);
  results.add("stream_bw", sub, "single", bw_single, "mbps");
  table.add_row({"stream_mbps", sim::ResultTable::num(bw_dual, 0),
                 sim::ResultTable::num(bw_single, 0)});

  double emp_dual = measure_latency_us(emp, 4, 50, 5, /*dual_cpu=*/true);
  results.add("raw_emp_latency", emp, "dual", emp_dual, "us");
  double emp_single = measure_latency_us(emp, 4, 50, 5, /*dual_cpu=*/false);
  results.add("raw_emp_latency", emp, "single", emp_single, "us");
  table.add_row({"raw_emp_latency_us", sim::ResultTable::num(emp_dual, 1),
                 sim::ResultTable::num(emp_single, 1)});

  table.print();
  std::printf(
      "\nexpected: streaming bandwidth drops hardest in single-CPU mode — "
      "the\nreceive path's per-frame work no longer overlaps ack "
      "generation\n");
  results.write(opt.out_dir);
  return 0;
}
