// Figure 12: 4-byte latency as a function of credit size, with and without
// delayed acknowledgments (§6.3).
//
// The mechanism: without delayed acks the substrate pre-posts one ack
// descriptor per credit ("2N"), and the NIC walks them (550 ns each) while
// tag-matching every incoming data frame.  Delayed acks cut the number of
// pre-posted ack descriptors to ~2, so latency falls as the credit count
// (and with it the ack-descriptor fraction) grows.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  BenchResults results("fig12_credits",
                       "4-byte latency vs credit size (one-way, us)",
                       "credits");
  for (std::uint32_t credits : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto imm = sockets::preset("ds").cfg;
    imm.credits = credits;
    auto dly = sockets::preset("ds_da").cfg;
    dly.credits = credits;
    auto imm_stack = StackChoice::substrate(
        imm, "DS credits=" + std::to_string(credits));
    auto dly_stack = StackChoice::substrate(
        dly, "DS+DA credits=" + std::to_string(credits));
    results.add("immediate_acks", imm_stack, std::to_string(credits),
                measure_latency_us(imm_stack, 4), "us");
    results.add("delayed_acks", dly_stack, std::to_string(credits),
                measure_latency_us(dly_stack, 4), "us");
  }
  results.write(opt.out_dir);
  return 0;
}
