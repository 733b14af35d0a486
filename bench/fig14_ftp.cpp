// Figure 14: ftp throughput from a RAM disk, substrate vs kernel TCP.
//
// Paper reference: both substrate options roughly overlap (the filesystem
// overhead dominates differences between them), each about twice the TCP
// number, and all below the raw socket peak of §7.2.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  BenchResults results("fig14_ftp",
                       "ftp RETR throughput vs file size (Mb/s)", "file");
  results.ratio("DS/TCP", "DataStreaming", "TCP");
  const auto ds = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto dg = StackChoice::substrate(sockets::preset("dg"));
  const auto tcp = StackChoice::tcp();

  for (std::size_t mb : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
    std::size_t bytes = mb << 20;
    results.add("DataStreaming", ds, size_label(bytes),
                measure_ftp_mbps(ds, bytes), "mbps");
    results.add("Datagram", dg, size_label(bytes),
                measure_ftp_mbps(dg, bytes), "mbps");
    results.add("TCP", tcp, size_label(bytes), measure_ftp_mbps(tcp, bytes),
                "mbps");
  }
  results.write(opt.out_dir);
  return 0;
}
