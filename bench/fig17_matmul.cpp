// Figure 17: distributed matrix multiplication on the 4-node cluster
// (master + 3 workers, select()-based gather), substrate vs kernel TCP.
//
// Paper reference: the substrate is faster, with the advantage shrinking
// as N grows and computation starts to dominate communication.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  const auto sub = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto tcp = StackChoice::tcp(262'144);

  BenchResults results("fig17_matmul",
                       "Matrix multiplication wall time (ms), 4 nodes", "N");
  results.ratio("TCP/Sub", "TCP", "Substrate");
  for (std::size_t n : {64ul, 128ul, 192ul, 256ul, 384ul}) {
    results.add("Substrate", sub, std::to_string(n),
                measure_matmul_ms(sub, n), "ms");
    results.add("TCP", tcp, std::to_string(n), measure_matmul_ms(tcp, n),
                "ms");
  }
  results.write(opt.out_dir);
  return 0;
}
