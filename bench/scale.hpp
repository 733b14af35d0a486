// Many-host scaling topology: one web server plus N-1 request clients on a
// sharded star network (sim/shard.hpp).  This is the workload the sharded
// engine exists for — fig15/16-style traffic at host counts a serial event
// loop cannot sustain — packaged so benches and tests can build it with
// any shard count and compare results across counts.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"
#include "net/link.hpp"
#include "oskernel/process.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace ulsocks::bench {

struct ScaleWebOptions {
  std::size_t hosts = 16;   // host 0 serves, the rest request
  std::size_t shards = 1;   // ShardGroup size (1 = serial reference)
  std::uint32_t response_bytes = 8192;
  std::uint32_t requests_per_connection = 8;  // HTTP/1.1 style
  std::size_t requests_per_client = 64;
  std::uint64_t seed = 1;
};

/// Builds the sharded cluster; start() spawns the server and every client
/// on its own shard's engine, and the caller runs group().
class ScaleWeb {
 public:
  ScaleWeb(const sim::CostModel& model, const sockets::SubstrateConfig& cfg,
           const ScaleWebOptions& opt)
      : opt_(opt),
        group_(opt.shards, net::shard_lookahead(model.wire), opt.seed),
        cluster_(group_, model, opt.hosts, cfg),
        per_client_(opt.hosts > 1 ? opt.hosts - 1 : 0) {}

  [[nodiscard]] sim::ShardGroup& group() { return group_; }

  void start(apps::Cluster::StackKind kind) {
    cluster_.spawn_on(0, serve(kind));
    for (std::size_t i = 0; i + 1 < opt_.hosts; ++i) {
      cluster_.spawn_on(i + 1, request(i, kind));
    }
  }

 private:
  sim::Task<void> serve(apps::Cluster::StackKind kind) {
    os::Process proc(cluster_.node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = opt_.requests_per_connection;
    so.max_connections =
        (opt_.hosts - 1) *
        ((opt_.requests_per_client + opt_.requests_per_connection - 1) /
         opt_.requests_per_connection);
    co_await apps::web_server(proc, cluster_.stack(0, kind), so);
  }

  sim::Task<void> request(std::size_t idx, apps::Cluster::StackKind kind) {
    // Stagger connects on the client's own engine so the accept queue
    // sees an orderly arrival pattern at any host count.
    co_await cluster_.node_engine(idx + 1).delay(10'000 + idx * 700);
    os::Process proc(cluster_.node(idx + 1).host);
    apps::WebClientOptions co;
    co.server_node = 0;
    co.response_bytes = opt_.response_bytes;
    co.requests_per_connection = opt_.requests_per_connection;
    co.total_requests = opt_.requests_per_client;
    co_await apps::web_client(proc, cluster_.stack(idx + 1, kind), co,
                              per_client_[idx]);
  }

  ScaleWebOptions opt_;
  sim::ShardGroup group_;
  apps::Cluster cluster_;
  std::vector<sim::OnlineStats> per_client_;
};

/// C10K-style concurrency workload: a few client hosts each run hundreds of
/// concurrent connection coroutines against ONE server host, so the server
/// multiplexes ~a thousand simultaneous connections.  This is the workload
/// the os::OpRing exists for — a blocking server parks one coroutine per
/// connection and every stack wake resumes all of them (the thundering
/// herd); the ring server parks a single pump.  The same options run either
/// server, so benches can report ring-vs-blocking on identical traffic.
struct ScaleC10kOptions {
  std::size_t client_hosts = 3;          // hosts 1..N each run many conns
  std::size_t connections_per_host = 334;  // 3 * 334 ~ 1000 concurrent
  std::size_t shards = 1;
  std::uint32_t response_bytes = 256;
  std::uint32_t requests_per_connection = 2;
  bool ring_server = true;               // false: blocking web_server
  // Accept window / listen depth.  A thousand near-simultaneous SYNs
  // against a small backlog turn into a retransmission storm of refused
  // and retried connects; like a tuned C10K listener (somaxconn-style),
  // the window is sized for the arrival burst.
  int backlog = 1024;
  std::uint64_t seed = 1;
};

class ScaleC10k {
 public:
  ScaleC10k(const sim::CostModel& model, const sockets::SubstrateConfig& cfg,
            const ScaleC10kOptions& opt)
      : opt_(opt),
        group_(opt.shards, net::shard_lookahead(model.wire), opt.seed),
        cluster_(group_, model, opt.client_hosts + 1, cfg),
        per_conn_(opt.client_hosts * opt.connections_per_host) {}

  [[nodiscard]] sim::ShardGroup& group() { return group_; }

  /// Responses received across every connection (the "requests served"
  /// numerator of the reqps metric).
  [[nodiscard]] std::size_t requests_served() const {
    std::size_t n = 0;
    for (const auto& st : per_conn_) n += st.count();
    return n;
  }

  /// Spawn the server and every connection; the caller runs group().
  void start(apps::Cluster::StackKind kind) {
    cluster_.spawn_on(0, serve(kind));
    for (std::size_t h = 1; h <= opt_.client_hosts; ++h) {
      for (std::size_t c = 0; c < opt_.connections_per_host; ++c) {
        cluster_.spawn_on(h, connection(h, c, kind));
      }
    }
  }

 private:
  sim::Task<void> serve(apps::Cluster::StackKind kind) {
    os::Process proc(cluster_.node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = opt_.requests_per_connection;
    so.max_connections = opt_.client_hosts * opt_.connections_per_host;
    so.backlog = opt_.backlog;
    if (opt_.ring_server) {
      co_await apps::web_server_ring(proc, cluster_.stack(0, kind), so);
    } else {
      co_await apps::web_server(proc, cluster_.stack(0, kind), so);
    }
  }

  sim::Task<void> connection(std::size_t host, std::size_t c,
                             apps::Cluster::StackKind kind) {
    // Near-simultaneous arrivals: 50 ns apart, so the full connection
    // population overlaps and the server really holds every connection
    // live at once (EMP retransmission absorbs backlog overflow).
    const std::size_t idx = (host - 1) * opt_.connections_per_host + c;
    co_await cluster_.node_engine(host).delay(10'000 + idx * 50);
    os::Process proc(cluster_.node(host).host);
    apps::WebClientOptions co;
    co.server_node = 0;
    co.response_bytes = opt_.response_bytes;
    co.requests_per_connection = opt_.requests_per_connection;
    co.total_requests = opt_.requests_per_connection;  // one connection
    // A thousand simultaneous SYNs can outlast EMP's retransmission
    // give-up against a finite backlog; like any C10K client, back off
    // and retry a refused connect (deterministic, idx-jittered delays).
    for (int attempt = 0;; ++attempt) {
      bool retry = false;
      try {
        co_await apps::web_client(proc, cluster_.stack(host, kind), co,
                                  per_conn_[idx]);
      } catch (const os::SocketError& e) {
        if (e.code() != os::SockErr::kRefused || attempt >= 6) throw;
        retry = true;  // co_await is illegal inside a handler
      }
      if (!retry) break;
      co_await cluster_.node_engine(host).delay(100'000 * (attempt + 1) +
                                                idx * 131);
    }
  }

  ScaleC10kOptions opt_;
  sim::ShardGroup group_;
  apps::Cluster cluster_;
  std::vector<sim::OnlineStats> per_conn_;
};

}  // namespace ulsocks::bench
