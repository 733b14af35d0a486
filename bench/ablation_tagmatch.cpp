// Ablation (§6.3/§6.4): NIC tag-matching walk cost.
//
// The paper measured 550 ns per walked descriptor.  This bench pre-posts a
// growing number of unrelated descriptors ahead of the measurement channel
// and reports the one-way latency.  The fillers sit on one side only, so
// the walk happens once per round trip and one-way latency grows by half
// of it: ~0.275 us per descriptor (scripts/check_figures.py checks the
// slope).
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  BenchResults results("ablation_tagmatch",
                       "NIC tag-matching walk cost (4-byte one-way, us)",
                       "extra_descriptors");
  for (std::size_t extra : {0ul, 4ul, 8ul, 16ul, 32ul, 64ul, 128ul}) {
    results.add("latency", "emp", "raw", std::to_string(extra),
                measure_latency_with_extra_descriptors_us(extra), "us");
  }
  results.write(opt.out_dir);
  return 0;
}
