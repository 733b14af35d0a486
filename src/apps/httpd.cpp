#include "apps/httpd.hpp"

#include <map>
#include <vector>

#include "net/byte_order.hpp"
#include "oskernel/ring.hpp"
#include "oskernel/socket_api.hpp"

namespace ulsocks::apps {

namespace {

using os::SockAddr;
using sim::Task;

// 16-byte request: magic, requested response size, request ordinal, pad.
void encode_request(std::uint32_t bytes, std::uint32_t ordinal,
                    std::uint8_t* out) {
  net::store_le32(out, 0x75485454u);  // "uHTT"
  net::store_le32(out + 4, bytes);
  net::store_le32(out + 8, ordinal);
  net::store_le32(out + 12, 0);
}

std::uint32_t decode_request_bytes(const std::uint8_t* in) {
  return net::load_le32(in + 4);
}

}  // namespace

namespace {

/// One connection's request/response loop, run as its own simulated
/// process so concurrent clients don't queue behind each other.
Task<void> handle_connection(os::Process& proc, int cs,
                             std::uint32_t requests_per_connection,
                             std::size_t& completed) {
  std::vector<std::uint8_t> request(kHttpRequestBytes);
  std::vector<std::uint8_t> body;
  for (std::uint32_t r = 0; r < requests_per_connection; ++r) {
    bool got_request = true;
    try {
      co_await proc.read_exact(cs, request);
    } catch (const os::SocketError&) {
      got_request = false;  // client finished early
    }
    if (!got_request) break;
    std::uint32_t bytes = decode_request_bytes(request.data());
    body.assign(bytes, 0x42);
    co_await proc.write_all(cs, body);
  }
  co_await proc.close(cs);
  ++completed;
}

}  // namespace

sim::Task<void> web_server(os::Process& proc, os::SocketApi& stack,
                           WebServerOptions options) {
  int ls = co_await proc.socket(stack);
  co_await proc.bind(ls, SockAddr{0, options.port});
  co_await proc.listen(ls, options.backlog);
  std::size_t accepted = 0;
  std::size_t completed = 0;
  while (options.max_connections == 0 ||
         accepted < options.max_connections) {
    int cs = co_await proc.accept(ls);
    ++accepted;
    // Concurrent handling: the accept loop keeps running while earlier
    // connections are still being served.
    proc.host().engine().spawn(handle_connection(
        proc, cs, options.requests_per_connection, completed));
  }
  while (completed < accepted) co_await stack.activity().wait();
  co_await proc.close(ls);
}

namespace {

/// Per-connection state machine for the ring server.  Exactly one SQE is
/// in flight per connection at any time, so a close never races a pending
/// read/write on the same descriptor.
struct RingConn {
  int sd = -1;
  std::vector<std::uint8_t> request =
      std::vector<std::uint8_t>(kHttpRequestBytes);
  std::size_t got = 0;  // request bytes accumulated so far
  std::vector<std::uint8_t> body;
  std::size_t wrote = 0;  // response bytes already accepted by the stack
  std::uint32_t served = 0;
};

}  // namespace

sim::Task<void> web_server_ring(os::Process& proc, os::SocketApi& stack,
                                WebServerOptions options) {
  int ls = co_await stack.socket();
  co_await stack.bind(ls, SockAddr{0, options.port});
  co_await stack.listen(ls, options.backlog);
  auto& eng = proc.host().engine();

  os::OpRing ring(eng, stack);
  // user_data: 0 tags accept CQEs (and the final listener close); ids >= 1
  // name connections.
  constexpr std::uint64_t kAcceptTag = 0;
  std::map<std::uint64_t, RingConn> conns;
  std::uint64_t next_id = 1;

  const std::size_t window =
      options.max_connections == 0
          ? static_cast<std::size_t>(options.backlog)
          : std::min(static_cast<std::size_t>(options.backlog),
                     options.max_connections);
  std::size_t accepts_posted = 0;
  std::size_t completed = 0;

  auto top_up_accepts = [&] {
    while ((options.max_connections == 0 ||
            accepts_posted < options.max_connections) &&
           accepts_posted - completed - conns.size() < window) {
      ring.push_accept(ls, kAcceptTag);
      ++accepts_posted;
    }
  };

  top_up_accepts();
  ring.submit();
  while (options.max_connections == 0 ||
         completed < options.max_connections) {
    for (const os::Cqe& c : co_await ring.reap(1, options.reap_batch)) {
      if (c.op == os::OpKind::kAccept) {
        if (c.failed) continue;  // canceled at shutdown
        std::uint64_t id = next_id++;
        RingConn& conn = conns[id];
        conn.sd = static_cast<int>(c.result);
        ring.push_read(conn.sd, std::span(conn.request), id);
        top_up_accepts();
        continue;
      }
      if (c.op == os::OpKind::kClose) {
        if (c.user_data == kAcceptTag) continue;  // listener close
        conns.erase(c.user_data);
        ++completed;
        continue;
      }
      RingConn& conn = conns.at(c.user_data);
      if (c.op == os::OpKind::kRead) {
        if (c.failed || c.result == 0) {  // client finished early / EOF
          ring.push_close(conn.sd, c.user_data);
          continue;
        }
        conn.got += static_cast<std::size_t>(c.result);
        if (conn.got < kHttpRequestBytes) {  // partial request: keep reading
          ring.push_read(conn.sd,
                         std::span(conn.request).subspan(conn.got), c.user_data);
          continue;
        }
        std::uint32_t bytes = decode_request_bytes(conn.request.data());
        conn.body.assign(bytes, 0x42);
        conn.wrote = 0;
        ring.push_write(conn.sd, std::span<const std::uint8_t>(conn.body),
                        c.user_data);
        continue;
      }
      // kWrite: continue the response, next request, or close.
      if (c.failed) {
        ring.push_close(conn.sd, c.user_data);
        continue;
      }
      conn.wrote += static_cast<std::size_t>(c.result);
      if (conn.wrote < conn.body.size()) {
        ring.push_write(conn.sd,
                        std::span<const std::uint8_t>(conn.body)
                            .subspan(conn.wrote),
                        c.user_data);
      } else if (++conn.served < options.requests_per_connection) {
        conn.got = 0;
        ring.push_read(conn.sd, std::span(conn.request), c.user_data);
      } else {
        ring.push_close(conn.sd, c.user_data);
      }
    }
    ring.submit();
  }

  // Shutdown: closing the listener cancels the still-posted accept window
  // (failed/kClosed CQEs), then the close CQE itself drains.
  ring.push_close(ls, kAcceptTag);
  ring.submit();
  while (ring.inflight() > 0) {
    (void)co_await ring.reap(1, options.reap_batch);
  }
}

sim::Task<void> web_client(os::Process& proc, os::SocketApi& stack,
                           WebClientOptions options,
                           sim::OnlineStats& response_us) {
  std::vector<std::uint8_t> request(kHttpRequestBytes);
  std::vector<std::uint8_t> body(options.response_bytes);
  std::size_t issued = 0;
  while (issued < options.total_requests) {
    std::uint32_t batch = static_cast<std::uint32_t>(
        std::min<std::size_t>(options.requests_per_connection,
                              options.total_requests - issued));
    sim::Time t0 = proc.host().engine().now();
    int fd = co_await proc.socket(stack);
    co_await proc.connect(fd, SockAddr{options.server_node, options.port});
    for (std::uint32_t r = 0; r < batch; ++r) {
      encode_request(options.response_bytes,
                     static_cast<std::uint32_t>(issued + r), request.data());
      co_await proc.write_all(fd, request);
      co_await proc.read_exact(fd, body);
    }
    co_await proc.close(fd);
    // Average response time: the connection's wall time spread over the
    // requests it carried (how HTTP/1.1 amortizes the handshake).
    double per_request_us = sim::to_us(proc.host().engine().now() - t0) /
                            static_cast<double>(batch);
    for (std::uint32_t r = 0; r < batch; ++r) response_us.add(per_request_us);
    issued += batch;
  }
}

}  // namespace ulsocks::apps
