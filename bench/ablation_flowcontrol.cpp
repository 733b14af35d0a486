// Ablation (§5.2): the three unexpected-message-handling alternatives.
//
//   comm-thread    separate communication thread reposting descriptors:
//                  ~20 us of polling-thread synchronization per socket call
//   rendezvous     request/grant/data exchange per message (zero copy)
//   eager-credits  the adopted scheme: pre-posted buffers + credits
//
// The paper rejected the communication thread on measurement and kept the
// other two as user-selectable; this bench reproduces why.
#include <iterator>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  auto eager = sockets::preset("ds_da_uq").cfg;
  auto rend = eager;
  rend.flow = sockets::FlowControl::kRendezvous;
  auto thread = eager;
  thread.flow = sockets::FlowControl::kCommThread;

  const StackChoice stacks[] = {
      StackChoice::substrate(eager, "eager credits"),
      StackChoice::substrate(rend, "rendezvous"),
      StackChoice::substrate(thread, "comm thread"),
  };
  const char* series[] = {"eager_credits", "rendezvous", "comm_thread"};

  BenchResults results("ablation_flowcontrol",
                       "Flow-control alternatives (§5.2)", "size");
  for (std::size_t size : {4ul, 1024ul, 4096ul}) {
    for (std::size_t s = 0; s < std::size(stacks); ++s) {
      results.add(series[s], stacks[s], size_label(size),
                  measure_latency_us(stacks[s], size), "us");
    }
  }
  // Streaming bandwidth: 16 MB in 64 KB writes.
  for (std::size_t s = 0; s < std::size(stacks); ++s) {
    results.add(std::string("bw_") + series[s], stacks[s], "64K",
                measure_bandwidth_mbps(stacks[s], 65536, 16ul << 20),
                "mbps");
  }
  results.write(opt.out_dir);
  return 0;
}
