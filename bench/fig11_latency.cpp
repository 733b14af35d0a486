// Figure 11: micro-benchmark latency of the substrate's incremental
// enhancements, against raw EMP.
//
//   DS        data streaming, immediate acks, pre-posted ack descriptors
//   DS_DA     + delayed acknowledgments (§6.3)
//   DS_DA_UQ  + acks on the EMP unexpected queue (§6.4) and piggybacking
//   DG        datagram sockets (§6.2)
//   EMP       raw EMP ping-pong (no sockets layer)
//
// Paper reference points at 4 bytes: EMP ~28 us, DG ~28.5 us, DS_DA_UQ
// ~37 us, with plain DS clearly above DS_DA above DS_DA_UQ.
#include <iterator>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  const StackChoice stacks[] = {
      StackChoice::substrate(sockets::preset("ds")),
      StackChoice::substrate(sockets::preset("ds_da")),
      StackChoice::substrate(sockets::preset("ds_da_uq")),
      StackChoice::substrate(sockets::preset("dg")),
      StackChoice::raw_emp(),
  };
  const char* series[] = {"DS", "DS_DA", "DS_DA_UQ", "DG", "raw_EMP"};

  BenchResults results("fig11_latency",
                       "Substrate latency by enhancement (one-way, us)",
                       "size");
  for (std::size_t size : {4ul, 64ul, 256ul, 1024ul, 4096ul}) {
    for (std::size_t s = 0; s < std::size(stacks); ++s) {
      double us = measure_latency_us(stacks[s], size);
      results.add(series[s], stacks[s], size_label(size), us, "us");
    }
  }
  results.write(opt.out_dir);
  return 0;
}
