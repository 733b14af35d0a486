// Ablation: the Tigon2's two firmware CPUs (cf. Shivam et al., IPDPS'02,
// "Can User Level Protocols Take Advantage of Multi-CPU NICs?").
//
// In single-CPU mode the transmit and receive firmware paths serialize on
// one core; ping-pong latency suffers little (the paths alternate) but
// bidirectional and streaming throughput lose the overlap.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  const auto sub = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto emp = StackChoice::raw_emp();

  BenchResults results("ablation_nic_cpus",
                       "Dual vs single NIC firmware CPU", "firmware");
  for (bool dual : {true, false}) {
    results.add("latency_4B", sub, dual ? "dual" : "single",
                measure_latency_us(sub, 4, dual), "us");
  }
  // Streaming bandwidth: 16 MB in 64 KB writes.
  for (bool dual : {true, false}) {
    results.add("stream_bw", sub, dual ? "dual" : "single",
                measure_bandwidth_mbps(sub, 65536, 16ul << 20, dual),
                "mbps");
  }
  for (bool dual : {true, false}) {
    results.add("raw_emp_latency", emp, dual ? "dual" : "single",
                measure_latency_us(emp, 4, dual), "us");
  }
  results.write(opt.out_dir);
  return 0;
}
