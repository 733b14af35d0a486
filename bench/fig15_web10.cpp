// Figure 15: web-server average response time under HTTP/1.0 (one request
// per connection), 1 server + 3 clients.
//
// The substrate runs with 4 credits, the paper's choice for this
// experiment: with one request per connection, larger credit counts waste
// time posting and reclaiming descriptors that are never used (§7.4).
//
// Paper reference: the substrate wins by up to ~6x; TCP's ~200-250 us
// kernel connection setup dominates its small-reply response times.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  auto cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  const auto sub = StackChoice::substrate(cfg, "DS+DA+UQ credits=4");
  const auto tcp = StackChoice::tcp();

  BenchResults results("fig15_web10",
                       "Web server avg response time, HTTP/1.0 (us)",
                       "reply");
  results.ratio("TCP/Sub", "TCP", "Substrate");
  for (std::uint32_t s : {4u, 64u, 256u, 1024u, 4096u, 8192u}) {
    results.add("Substrate", sub, size_label(s),
                measure_web_response_us(sub, s, 1, 16), "us");
    results.add("TCP", tcp, size_label(s),
                measure_web_response_us(tcp, s, 1, 16), "us");
  }
  results.write(opt.out_dir);
  return 0;
}
