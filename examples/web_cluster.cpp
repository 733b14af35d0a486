// Web-server cluster demo: the paper's §7.4 experiment as a runnable
// scenario.  One server, three clients; each client fetches a page-sized
// reply per connection (HTTP/1.0) and then again with eight requests per
// connection (HTTP/1.1).  Both stacks are shown side by side.
//
//   ./examples/web_cluster
#include <cstdio>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"

using namespace ulsocks;
using sim::Task;

namespace {

double run(apps::Cluster::StackKind kind, std::uint32_t per_connection,
           std::uint32_t reply_bytes) {
  sim::Engine engine;
  // Web-server runs use 4 credits: with a request per connection, bigger
  // credit counts waste time posting and reclaiming descriptors (§7.4).
  sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  apps::Cluster cluster(engine, sim::calibrated_cost_model(), 4, cfg);

  sim::OnlineStats rt[3];
  auto server = [&]() -> Task<void> {
    os::Process proc(cluster.node(0).host);
    apps::WebServerOptions opt;
    opt.requests_per_connection = per_connection;
    opt.max_connections = 3 * (24 / per_connection);
    co_await apps::web_server(proc, cluster.stack(0, kind), opt);
  };
  auto client = [&](std::size_t idx) -> Task<void> {
    co_await engine.delay(5'000 + idx * 500);
    os::Process proc(cluster.node(idx + 1).host);
    apps::WebClientOptions opt;
    opt.server_node = 0;
    opt.response_bytes = reply_bytes;
    opt.requests_per_connection = per_connection;
    opt.total_requests = 24;
    co_await apps::web_client(proc, cluster.stack(idx + 1, kind), opt,
                              rt[idx]);
  };
  engine.spawn(server());
  for (std::size_t i = 0; i < 3; ++i) engine.spawn(client(i));
  engine.run();

  double sum = 0;
  for (const auto& st : rt) sum += st.mean();
  return sum / 3.0;
}

}  // namespace

int main() {
  std::printf("web server, 1 server + 3 clients, 1 KB replies (§7.4)\n\n");
  std::printf("%-12s %-18s %-18s\n", "protocol", "substrate (us)",
              "kernel TCP (us)");
  for (std::uint32_t per_conn : {1u, 8u}) {
    double sub = run(apps::Cluster::StackKind::kSubstrate, per_conn, 1024);
    double tcp = run(apps::Cluster::StackKind::kTcp, per_conn, 1024);
    std::printf("HTTP/1.%c     %-18.0f %-18.0f  (%.1fx)\n",
                per_conn == 1 ? '0' : '1', sub, tcp, tcp / sub);
  }
  std::printf(
      "\npaper: up to ~6x under HTTP/1.0; HTTP/1.1's connection reuse\n"
      "narrows but does not close the gap\n");
  return 0;
}
