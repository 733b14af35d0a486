// Figure 16: web-server average response time under HTTP/1.1 (up to eight
// requests per connection), 1 server + 3 clients.
//
// HTTP/1.1 exists to amortize TCP's expensive connection setup; the paper
// shows the substrate still wins even after that amortization.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  auto cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  const auto sub = StackChoice::substrate(cfg, "DS+DA+UQ credits=4");
  const auto tcp = StackChoice::tcp();

  BenchResults results("fig16_web11",
                       "Web server avg response time, HTTP/1.1 (us)",
                       "reply");
  results.ratio("TCP/Sub", "TCP", "Substrate");
  for (std::uint32_t s : {4u, 64u, 256u, 1024u, 4096u, 8192u}) {
    results.add("Substrate", sub, size_label(s),
                measure_web_response_us(sub, s, 8, 32), "us");
    results.add("TCP", tcp, size_label(s),
                measure_web_response_us(tcp, s, 8, 32), "us");
  }
  results.write(opt.out_dir);
  return 0;
}
