// Randomized property and stress tests across the full stack.
//
// These sweeps are the "did we really build a byte-stream?" insurance: for
// any interleaving of write sizes, read sizes, loss patterns, connection
// churn and concurrency the simulator's determinism lets us replay, the
// application must observe exactly the bytes that were sent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "apps/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace ulsocks {
namespace {

using apps::Cluster;
using os::SockAddr;
using sim::Engine;
using sim::Task;

std::vector<std::uint8_t> random_payload(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return v;
}

// ---------------------------------------------------------------------------
// Property: the substrate is a byte stream under ANY chunking.
// ---------------------------------------------------------------------------

class StreamChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamChunking, ArbitraryWriteAndReadSizesPreserveTheStream) {
  Engine eng(GetParam());
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  sim::Rng rng(GetParam() * 977 + 1);

  const std::size_t total = 20'000 + rng.uniform(0, 60'000);
  auto data = random_payload(rng, total);
  std::vector<std::uint8_t> received;

  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 1);
    int cs = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf;
    for (;;) {
      buf.resize(1 + rng.uniform(0, 8'000));  // random read size each call
      std::size_t n = co_await api.read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    co_await eng.delay(1000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, 80});
    std::size_t off = 0;
    while (off < data.size()) {
      std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(0, 9'000), data.size() - off);
      co_await api.write_all(
          s, std::span<const std::uint8_t>(data).subspan(off, n));
      off += n;
      if (rng.chance(0.2)) co_await eng.delay(rng.uniform(0, 200'000));
    }
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_EQ(received, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamChunking,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Property: frame loss never reorders the byte stream.  With many eager
// messages in flight, a lost first frame lets the next message bind the
// earlier descriptor and the retransmission a later one; the reader must
// still consume messages in the order they were written.  The reader starts
// late so the whole credit window fills up.
// ---------------------------------------------------------------------------

class LossyStream : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyStream, MessagesInFlightKeepStreamOrder) {
  Engine eng(GetParam());
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  for (std::size_t i = 0; i < 2; ++i) {
    cl.network().host_link(i).set_drop_policy(
        net::StarNetwork::kHostSide,
        net::random_drop_policy(eng.rng(), 0.02));
  }
  sim::Rng rng(GetParam() * 977 + 1);
  const auto data = random_payload(rng, 200'000);
  std::vector<std::uint8_t> received;

  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 1);
    int cs = co_await api.accept(ls, nullptr);
    co_await eng.delay(2'000'000);
    std::vector<std::uint8_t> buf(8192);
    for (;;) {
      std::size_t n = co_await api.read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    co_await eng.delay(1000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, 80});
    std::size_t off = 0;
    while (off < data.size()) {
      std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(0, 5'999), data.size() - off);
      co_await api.write_all(
          s, std::span<const std::uint8_t>(data).subspan(off, n));
      off += n;
    }
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();

  ASSERT_EQ(received.size(), data.size());
  const auto diff = std::mismatch(received.begin(), received.end(),
                                  data.begin());
  if (diff.first != received.end()) {
    // Name where the misplaced bytes were sent from: the first 64 bytes
    // from the mismatch on, found in the sent stream.
    const auto at = diff.first - received.begin();
    const auto window =
        std::min<std::ptrdiff_t>(64, received.end() - diff.first);
    const auto from = std::search(data.begin(), data.end(), diff.first,
                                  diff.first + window);
    ADD_FAILURE() << "byte " << at << " holds the byte sent at offset "
                  << (from - data.begin());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyStream,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Property: datagram mode preserves message boundaries for ANY size mix.
// ---------------------------------------------------------------------------

class DatagramBoundaries : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatagramBoundaries, EachReadReturnsExactlyOneMessage) {
  Engine eng(GetParam());
  Cluster cl(eng, sim::calibrated_cost_model(), 2, sockets::preset("dg").cfg);
  sim::Rng rng(GetParam() * 131 + 7);

  constexpr int kMessages = 40;
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < kMessages; ++i) {
    // Mix of eager (< 4 KB) and rendezvous (> 4 KB) datagrams.
    std::size_t n = rng.chance(0.3) ? 4'097 + rng.uniform(0, 60'000)
                                    : 1 + rng.uniform(0, 4'000);
    sent.push_back(random_payload(rng, n));
  }
  int mismatches = 0;
  int received = 0;

  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 1);
    co_await api.set_option(ls, os::SockOpt::kDatagram, 1);
    int cs = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(70'000);
    for (int i = 0; i < kMessages; ++i) {
      std::size_t n = co_await api.read(cs, buf);
      ++received;
      if (n != sent[static_cast<std::size_t>(i)].size() ||
          !std::equal(sent[static_cast<std::size_t>(i)].begin(),
                      sent[static_cast<std::size_t>(i)].end(), buf.begin())) {
        ++mismatches;
      }
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    co_await eng.delay(1000);
    int s = co_await api.socket();
    co_await api.set_option(s, os::SockOpt::kDatagram, 1);
    co_await api.connect(s, SockAddr{1, 80});
    for (const auto& msg : sent) {
      std::size_t n = co_await api.write(s, msg);
      EXPECT_EQ(n, msg.size());  // datagrams never split
      if (rng.chance(0.3)) co_await eng.delay(rng.uniform(0, 100'000));
    }
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatagramBoundaries,
                         ::testing::Values(11, 12, 13, 14));

// ---------------------------------------------------------------------------
// Soak: concurrent connections across 4 nodes under frame loss.
// ---------------------------------------------------------------------------

TEST(Soak, ConcurrentConnectionsUnderLossStayCorrect) {
  Engine eng(42);
  Cluster cl(eng, sim::calibrated_cost_model(), 4);
  for (std::size_t i = 0; i < 4; ++i) {
    cl.network().host_link(i).set_drop_policy(
        net::StarNetwork::kHostSide,
        net::random_drop_policy(eng.rng(), 0.01));
  }
  sim::Rng rng(4242);

  // Node 0 runs one echo server; nodes 1..3 each run 3 sequential client
  // sessions with random payloads.
  constexpr int kSessionsPerClient = 3;
  int verified = 0;

  auto server = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{0, 80});
    co_await api.listen(ls, 8);
    for (int c = 0; c < 3 * kSessionsPerClient; ++c) {
      int cs = co_await api.accept(ls, nullptr);
      // Echo until EOF, inside a detached task so accepts continue.
      auto echo = [](os::SocketApi& a, Engine& e, int fd) -> Task<void> {
        std::vector<std::uint8_t> buf(8192);
        for (;;) {
          std::size_t n = co_await a.read(fd, buf);
          if (n == 0) break;
          co_await a.write_all(
              fd, std::span<const std::uint8_t>(buf).first(n));
        }
        co_await a.close(fd);
        (void)e;
      };
      eng.spawn(echo(api, eng, cs));
    }
  };
  auto client = [&](std::size_t node) -> Task<void> {
    auto& api = cl.node(node).socks;
    co_await eng.delay(1000 * node);
    for (int s = 0; s < kSessionsPerClient; ++s) {
      auto payload = random_payload(rng, 5'000 + rng.uniform(0, 20'000));
      int fd = co_await api.socket();
      co_await api.connect(fd, SockAddr{0, 80});
      co_await api.write_all(fd, payload);
      std::vector<std::uint8_t> echo(payload.size());
      co_await api.read_exact(fd, echo);
      if (echo == payload) ++verified;
      co_await api.close(fd);
    }
  };
  eng.spawn(server());
  for (std::size_t n = 1; n <= 3; ++n) eng.spawn(client(n));
  eng.run();

  EXPECT_EQ(verified, 3 * kSessionsPerClient);
  // Loss definitely happened and was recovered at the EMP layer.
  const auto snap = eng.metrics().snapshot();
  std::int64_t retx = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    retx += snap.at(obs::host_label(static_cast<std::uint32_t>(i),
                                    "/emp/retransmitted_frames"));
  }
  EXPECT_GT(retx, 0);
}

// ---------------------------------------------------------------------------
// Churn: many sequential connections recycle tags and descriptors cleanly.
// ---------------------------------------------------------------------------

TEST(Soak, ConnectionChurnLeaksNothing) {
  Engine eng(7);
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  constexpr int kConnections = 120;
  int served = 0;

  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 4);
    for (int i = 0; i < kConnections; ++i) {
      int cs = co_await api.accept(ls, nullptr);
      std::vector<std::uint8_t> buf(32);
      co_await api.read_exact(cs, buf);
      co_await api.write_all(cs, buf);
      co_await api.close(cs);
      ++served;
    }
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    std::vector<std::uint8_t> msg(32, 1);
    for (int i = 0; i < kConnections; ++i) {
      int fd = co_await api.socket();
      co_await api.connect(fd, SockAddr{1, 80});
      co_await api.write_all(fd, msg);
      co_await api.read_exact(fd, msg);
      co_await api.close(fd);
    }
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();

  EXPECT_EQ(served, kConnections);
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(cl.node(static_cast<std::size_t>(n)).socks
                  .active_socket_count(),
              0u)
        << "node " << n;
    EXPECT_EQ(cl.node(static_cast<std::size_t>(n)).emp
                  .posted_descriptor_count(),
              0u)
        << "node " << n;
    EXPECT_EQ(cl.node(static_cast<std::size_t>(n)).emp.pending_send_count(),
              0u)
        << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// EMP NACK fast repair: a dropped early frame of a long message triggers a
// negative acknowledgment instead of waiting out the full timeout.
// ---------------------------------------------------------------------------

TEST(EmpNack, GapTriggersNegativeAck) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  // Drop the 2nd data frame once: frames 3.. create a gap > 2*ack_window.
  cl.network().host_link(0).set_drop_policy(
      net::StarNetwork::kHostSide, net::drop_nth_policy({2}));

  auto data = std::vector<std::uint8_t>(1480 * 40, 0x77);
  std::vector<std::uint8_t> buf(data.size());
  bool delivered = false;
  sim::Time delivered_at = 0;

  auto receiver = [&]() -> Task<void> {
    auto& ep = cl.node(1).emp;
    auto h = co_await ep.post_recv(emp::NodeId{0}, 5, buf);
    auto r = co_await ep.wait_recv(h);
    delivered = r.bytes == data.size();
    delivered_at = eng.now();
  };
  auto sender = [&]() -> Task<void> {
    auto& ep = cl.node(0).emp;
    co_await eng.delay(10'000);
    auto h = co_await ep.post_send(1, 5, data);
    co_await ep.wait_send_acked(h);
  };
  eng.spawn(receiver());
  eng.spawn(sender());
  eng.run();

  EXPECT_TRUE(delivered);
  EXPECT_EQ(buf, data);
  EXPECT_GT(eng.metrics().snapshot().at("h1/emp/nacks_tx"), 0);
  // The NACK repaired the hole well before the 10 ms retransmit timeout:
  // delivery completes within ~2 ms of simulated time.  (eng.now() itself
  // runs on to the send's timeout event, which fires as a no-op.)
  EXPECT_LT(delivered_at, 5'000'000u);
}

// ---------------------------------------------------------------------------
// TCP under random loss, both directions, with small buffers.
// ---------------------------------------------------------------------------

class TcpLoss : public ::testing::TestWithParam<double> {};

TEST_P(TcpLoss, StreamSurvives) {
  Engine eng(99);
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  cl.network().host_link(0).set_drop_policy(
      net::StarNetwork::kHostSide,
      net::random_drop_policy(eng.rng(), GetParam()));
  cl.network().host_link(1).set_drop_policy(
      net::StarNetwork::kHostSide,
      net::random_drop_policy(eng.rng(), GetParam()));
  sim::Rng rng(5);
  auto data = random_payload(rng, 150'000);
  std::vector<std::uint8_t> received;

  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).tcp;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 1);
    int cs = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(8192);
    for (;;) {
      std::size_t n = co_await api.read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).tcp;
    co_await eng.delay(1000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, 80});
    co_await api.write_all(s, data);
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_EQ(received, data);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLoss,
                         ::testing::Values(0.005, 0.02, 0.05));

}  // namespace
}  // namespace ulsocks
