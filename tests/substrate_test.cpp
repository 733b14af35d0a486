// Tests for the sockets-over-EMP substrate: connection management, stream
// and datagram semantics, credit flow control, rendezvous, delayed acks,
// the unexpected-queue option, resource reclamation and select().
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "sim/engine.hpp"
#include "sockets/config.hpp"
#include "sockets/control.hpp"
#include "sockets/substrate.hpp"

namespace ulsocks::sockets {
namespace {

using apps::Cluster;
using os::SockAddr;
using os::SockErr;
using os::SocketError;
using sim::Engine;
using sim::Task;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 11);
  }
  return v;
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

/// This process's resident set size in KiB, or -1 where /proc has none.
long resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

/// Whether the kernel backs anonymous memory with huge pages unasked.
bool transparent_huge_pages_always() {
  std::ifstream mode("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(mode, line);
  return line.find("[always]") != std::string::npos;
}

TEST(ControlWire, CtrlRoundTrip) {
  CtrlMsg m;
  m.type = CtrlType::kRendReq;
  m.a = 123456;
  m.b = 77;
  m.c = 0xdeadbeef;
  auto bytes = encode_ctrl(m);
  EXPECT_EQ(bytes.size(), kCtrlBytes);
  auto d = decode_ctrl(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, CtrlType::kRendReq);
  EXPECT_EQ(d->a, 123456u);
  EXPECT_EQ(d->b, 77u);
  EXPECT_EQ(d->c, 0xdeadbeefu);
}

TEST(ControlWire, ConnRequestRoundTrip) {
  ConnRequest r;
  r.client_node = 3;
  r.client_port = 40001;
  r.data_tag = 19;
  r.ctrl_tag = 20;
  r.rend_tag = 21;
  r.credits = 32;
  r.buffer_bytes = 65536;
  auto bytes = encode_conn_request(r);
  auto d = decode_conn_request(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, r);
}

TEST(ControlWire, DataHeaderRoundTrip) {
  DataHeader h;
  h.piggyback_credits = 513;
  h.msg_no = 7;
  std::uint8_t buf[4];
  encode_data_header(h, buf);
  auto d = decode_data_header(buf);
  EXPECT_EQ(d.piggyback_credits, 513);
  EXPECT_EQ(d.msg_no, 7);
}

// Golden bytes for the three substrate formats: little-endian fields at
// fixed offsets.  A codec change that moves any byte fails here.
TEST(ControlWire, CtrlBytesArePinned) {
  CtrlMsg m;
  m.type = CtrlType::kRendReq;
  m.a = 0x01020304;
  m.b = 0x05060708;
  m.c = 0xdeadbeef;
  const auto bytes = encode_ctrl(m);
  const std::vector<std::uint8_t> golden{
      0x03, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
      0x08, 0x07, 0x06, 0x05, 0xef, 0xbe, 0xad, 0xde};
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), golden);
}

TEST(ControlWire, ConnRequestBytesArePinned) {
  ConnRequest r;
  r.client_node = 3;
  r.client_port = 40001;
  r.data_tag = 0x13;
  r.ctrl_tag = 0x14;
  r.rend_tag = 0x15;
  r.srv_data_tag = 0x4000;
  r.srv_ctrl_tag = 0x4001;
  r.srv_rend_tag = 0x4002;
  r.credits = 32;
  r.buffer_bytes = 0x00010203;
  const auto bytes = encode_conn_request(r);
  const std::vector<std::uint8_t> golden{
      0x03, 0x00, 0x41, 0x9c, 0x13, 0x00, 0x14, 0x00, 0x15, 0x00, 0x00, 0x40,
      0x01, 0x40, 0x02, 0x40, 0x20, 0x00, 0x00, 0x00, 0x03, 0x02, 0x01, 0x00};
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), golden);
}

TEST(ControlWire, DataHeaderBytesArePinned) {
  DataHeader h;
  h.piggyback_credits = 0x0201;
  h.msg_no = 0x1234;
  std::uint8_t buf[kDataHeaderBytes] = {};
  encode_data_header(h, buf);
  const std::vector<std::uint8_t> golden{0x01, 0x02, 0x34, 0x12};
  EXPECT_EQ(std::vector<std::uint8_t>(std::begin(buf), std::end(buf)),
            golden);
}

TEST(Config, PresetsMatchPaperLabels) {
  auto ds = preset("ds").cfg;
  EXPECT_FALSE(ds.delayed_acks);
  EXPECT_FALSE(ds.unexpected_queue_acks);
  EXPECT_EQ(ds.ctrl_descriptors(), ds.credits);  // the "2N" layout
  auto da = preset("ds_da").cfg;
  EXPECT_TRUE(da.delayed_acks);
  EXPECT_EQ(da.ctrl_descriptors(), 2u);
  EXPECT_EQ(da.ack_every(), 16u);  // half of 32 credits
  auto uq = preset("ds_da_uq").cfg;
  EXPECT_EQ(uq.ctrl_descriptors(), 0u);
  auto dg = preset("dg").cfg;
  EXPECT_FALSE(dg.data_streaming);
}

// A SubstratePair parameter.  Its name is both the test-name suffix and
// what gtest prints for GetParam(), so the ctest names hold no raw struct
// bytes (SubstrateConfig's padding differs between builds).
struct NamedConfig {
  const char* name;
  SubstrateConfig cfg;
  friend void PrintTo(const NamedConfig& c, std::ostream* os) {
    *os << c.name;
  }
};

class SubstratePair : public ::testing::TestWithParam<NamedConfig> {
 protected:
  SubstratePair() : cluster_(eng_, sim::calibrated_cost_model(), 2,
                             GetParam().cfg) {}

  EmpSocketStack& stack(int i) { return cluster_.node(static_cast<std::size_t>(i)).socks; }

  Engine eng_;
  Cluster cluster_;
};

// The core end-to-end property, run under every paper configuration (DS,
// DS_DA, DS_DA_UQ, DG, rendezvous): connect, exchange patterned data both
// ways, close, and leak nothing.
TEST_P(SubstratePair, ConnectTransferClose) {
  const auto data = pattern(10'000, 5);
  std::vector<std::uint8_t> received;
  SockAddr peer{};
  bool server_saw_eof = false;

  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 4);
    int cs = co_await stack(1).accept(ls, &peer);
    // Big enough for one whole message: under datagram semantics a short
    // buffer would (correctly) truncate.
    std::vector<std::uint8_t> buf(10'000);
    for (;;) {
      std::size_t n = co_await stack(1).read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    server_saw_eof = true;
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    co_await stack(0).write_all(s, data);
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();

  EXPECT_TRUE(server_saw_eof);
  EXPECT_EQ(received, data);
  EXPECT_EQ(peer.node, 0);  // §5.1: the client's identity is preserved
  // §5.3: all descriptors reclaimed, active socket tables empty.
  EXPECT_EQ(stack(0).active_socket_count(), 0u);
  EXPECT_EQ(stack(1).active_socket_count(), 0u);
  EXPECT_EQ(cluster_.node(0).emp.posted_descriptor_count(), 0u);
  EXPECT_EQ(cluster_.node(1).emp.posted_descriptor_count(), 0u);
}

SubstrateConfig rendezvous_cfg() {
  SubstrateConfig c = preset("ds_da_uq").cfg;
  c.flow = FlowControl::kRendezvous;
  return c;
}

SubstrateConfig small_credit_cfg() {
  SubstrateConfig c = preset("ds_da_uq").cfg;
  c.credits = 2;
  c.buffer_bytes = 1024;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, SubstratePair,
    ::testing::Values(NamedConfig{"ds", preset("ds").cfg},
                      NamedConfig{"ds_da", preset("ds_da").cfg},
                      NamedConfig{"ds_da_uq", preset("ds_da_uq").cfg},
                      NamedConfig{"dg", preset("dg").cfg},
                      NamedConfig{"rendezvous", rendezvous_cfg()},
                      NamedConfig{"small_credit", small_credit_cfg()}),
    [](const ::testing::TestParamInfo<NamedConfig>& info) {
      return std::string(info.param.name);
    });

class SubstrateTest : public ::testing::Test {
 protected:
  SubstrateTest() : cluster_(eng_, sim::calibrated_cost_model(), 2) {}
  EmpSocketStack& stack(int i) { return cluster_.node(static_cast<std::size_t>(i)).socks; }
  Engine eng_;
  Cluster cluster_;
};

TEST_F(SubstrateTest, StreamSemanticsAcrossMessageBoundaries) {
  // The paper's data-streaming option: 10 bytes written at once can be read
  // as two sets of 5 bytes.
  bool done = false;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    std::vector<std::uint8_t> a(5), b(5);
    co_await stack(1).read_exact(cs, a);
    co_await stack(1).read_exact(cs, b);
    auto expect = pattern(10, 1);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), expect.begin()));
    EXPECT_TRUE(std::equal(b.begin(), b.end(), expect.begin() + 5));
    done = true;
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    co_await stack(0).write_all(s, pattern(10, 1));
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(done);
}

TEST_F(SubstrateTest, DatagramPreservesMessageBoundaries) {
  // Datagram sockets: one message per read, remainder truncated.
  int reads = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    co_await stack(1).set_option(ls, os::SockOpt::kDatagram, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    std::vector<std::uint8_t> buf(100);
    // Two 40-byte messages: each read returns exactly one.
    std::size_t n1 = co_await stack(1).read(cs, buf);
    EXPECT_EQ(n1, 40u);
    std::size_t n2 = co_await stack(1).read(cs, buf);
    EXPECT_EQ(n2, 40u);
    reads = 2;
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).set_option(s, os::SockOpt::kDatagram, 1);
    co_await stack(0).connect(s, SockAddr{1, 80});
    std::size_t n = co_await stack(0).write(s, pattern(40, 1));
    EXPECT_EQ(n, 40u);
    n = co_await stack(0).write(s, pattern(40, 2));
    EXPECT_EQ(n, 40u);
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_EQ(reads, 2);
}

TEST_F(SubstrateTest, DatagramLargeMessageUsesZeroCopyRendezvous) {
  // DG writes above the temporary-buffer size switch to rendezvous (§6.2).
  const auto big = pattern(300'000, 3);
  std::vector<std::uint8_t> rx(300'000);
  bool ok = false;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    co_await stack(1).set_option(ls, os::SockOpt::kDatagram, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    std::size_t n = co_await stack(1).read(cs, rx);
    EXPECT_EQ(n, big.size());
    ok = rx == big;
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).set_option(s, os::SockOpt::kDatagram, 1);
    co_await stack(0).connect(s, SockAddr{1, 80});
    std::size_t n = co_await stack(0).write(s, big);
    EXPECT_EQ(n, big.size());
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(eng_.metrics().snapshot().at("h0/sockets/rendezvous_messages_tx"),
            1);
}

TEST_F(SubstrateTest, ConnectRefusedWithoutListener) {
  bool refused = false;
  auto client = [&]() -> Task<void> {
    int s = co_await stack(0).socket();
    try {
      co_await stack(0).connect(s, SockAddr{1, 4242});
    } catch (const SocketError& e) {
      refused = e.code() == SockErr::kRefused;
    }
  };
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(refused);
  EXPECT_EQ(stack(0).active_socket_count(), 0u);
}

TEST_F(SubstrateTest, ConnectionTimeIsOneMessageExchange) {
  // §7.4: substrate connection setup is one message exchange plus the
  // descriptor posting on each side (which is why the paper drops to 4
  // credits for the web server); with 4 credits it lands far below TCP's
  // 200-250 us kernel-mediated handshake.
  auto measure = [&](std::uint32_t credits) {
    SubstrateConfig cfg = preset("ds_da_uq").cfg;
    cfg.credits = credits;
    Engine eng;
    Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
    sim::Time t0 = 0, t1 = 0;
    auto server = [&]() -> Task<void> {
      auto& st = cl.node(1).socks;
      int ls = co_await st.socket();
      co_await st.bind(ls, SockAddr{1, 80});
      co_await st.listen(ls, 1);
      // Two connections: the second measures steady state (buffers pooled
      // and pinned, translation cache warm).
      for (int i = 0; i < 2; ++i) {
        int cs = co_await st.accept(ls, nullptr);
        co_await st.close(cs);
      }
    };
    auto client = [&]() -> Task<void> {
      auto& st = cl.node(0).socks;
      co_await eng.delay(10'000);
      int warm = co_await st.socket();
      co_await st.connect(warm, SockAddr{1, 80});
      co_await st.close(warm);
      co_await eng.delay(1'000'000);
      int s = co_await st.socket();
      t0 = eng.now();
      co_await st.connect(s, SockAddr{1, 80});
      t1 = eng.now();
    };
    eng.spawn(server());
    eng.spawn(client());
    eng.run_until(50'000'000);
    return sim::to_us(t1 - t0);
  };
  double us4 = measure(4);
  double us32 = measure(32);
  EXPECT_GT(us4, 30.0);
  EXPECT_LT(us4, 160.0);   // well under TCP's ~230 us
  EXPECT_GT(us32, us4);    // §7.4: descriptor posting cost grows with N
}

TEST_F(SubstrateTest, CreditExhaustionBlocksWriterUntilReaderDrains) {
  // With N credits, at most N eager messages can be outstanding; the
  // writer must block on the (N+1)th until the reader consumes one.
  SubstrateConfig cfg = preset("ds_da_uq").cfg;
  cfg.credits = 4;
  cfg.buffer_bytes = 1024;
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);

  sim::Time writer_blocked_until = 0;
  auto server = [&]() -> Task<void> {
    auto& st = cl.node(1).socks;
    int ls = co_await st.socket();
    co_await st.bind(ls, SockAddr{1, 80});
    co_await st.listen(ls, 1);
    int cs = co_await st.accept(ls, nullptr);
    // Do not read for 5 ms: the writer exhausts its 4 credits.
    co_await eng.delay(5'000'000);
    std::vector<std::uint8_t> buf(1024);
    for (int i = 0; i < 6; ++i) {
      co_await st.read_exact(cs, buf);
    }
    co_await st.close(cs);
    co_await st.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& st = cl.node(0).socks;
    co_await eng.delay(1000);
    int s = co_await st.socket();
    co_await st.connect(s, SockAddr{1, 80});
    auto chunk = pattern(1024);
    for (int i = 0; i < 6; ++i) {
      co_await st.write_all(s, chunk);
    }
    writer_blocked_until = eng.now();
    co_await st.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  // The writer cannot have finished before the reader started draining.
  EXPECT_GT(writer_blocked_until, 5'000'000u);
}

TEST_F(SubstrateTest, RendezvousMutualWriteDeadlocks) {
  // Figure 7: with the rendezvous scheme, write()-then-read() on both
  // sides deadlocks.  The substrate faithfully reproduces this hazard —
  // avoiding it is the application's responsibility.
  SubstrateConfig cfg = preset("ds_da_uq").cfg;
  cfg.flow = FlowControl::kRendezvous;
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);

  int completions = 0;
  auto side = [&](int me, bool listener) -> Task<void> {
    auto& st = cl.node(static_cast<std::size_t>(me)).socks;
    int fd;
    if (listener) {
      int ls = co_await st.socket();
      co_await st.bind(ls, SockAddr{1, 80});
      co_await st.listen(ls, 1);
      fd = co_await st.accept(ls, nullptr);
    } else {
      co_await eng.delay(1000);
      fd = co_await st.socket();
      co_await st.connect(fd, SockAddr{1, 80});
    }
    auto data = pattern(1000);
    co_await st.write_all(fd, data);  // blocks awaiting the grant...
    std::vector<std::uint8_t> buf(1000);
    co_await st.read_exact(fd, buf);  // ...which only a read would give
    ++completions;
  };
  eng.spawn(side(1, true));
  eng.spawn(side(0, false));
  eng.run_until(2'000'000'000);  // 2 simulated seconds
  EXPECT_EQ(completions, 0);  // both sides are deadlocked, as in the paper
}

TEST_F(SubstrateTest, RendezvousSocketsPrePostNoEagerDataSlots) {
  // A rendezvous read posts the user buffer for each message (§5.2), so
  // a rendezvous connection pre-posts none of the N eager data slots the
  // NIC would walk on every frame: once connected, the server holds only
  // its listener's two backlog descriptors and the client none.  Eager
  // credits post all N = 32 on each end.
  for (const FlowControl flow :
       {FlowControl::kRendezvous, FlowControl::kEagerCredits}) {
    SubstrateConfig cfg = preset("ds_da_uq").cfg;
    cfg.flow = flow;
    Engine eng;
    Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
    std::size_t client_posted = 0;
    std::size_t server_posted = 0;
    bool server_saw_eof = false;

    auto server = [&]() -> Task<void> {
      auto& st = cl.node(1).socks;
      int ls = co_await st.socket();
      co_await st.bind(ls, SockAddr{1, 80});
      co_await st.listen(ls, 2);
      int cs = co_await st.accept(ls, nullptr);
      std::vector<std::uint8_t> buf(64);
      server_saw_eof = co_await st.read(cs, buf) == 0;
      co_await st.close(cs);
      co_await st.close(ls);
    };
    auto client = [&]() -> Task<void> {
      auto& st = cl.node(0).socks;
      co_await eng.delay(1000);
      int s = co_await st.socket();
      co_await st.connect(s, SockAddr{1, 80});
      co_await eng.delay(1'000'000);  // both ends connected and idle
      client_posted = cl.node(0).emp.posted_descriptor_count();
      server_posted = cl.node(1).emp.posted_descriptor_count();
      co_await st.close(s);
    };
    eng.spawn(server());
    eng.spawn(client());
    eng.run();

    const bool rendezvous = flow == FlowControl::kRendezvous;
    EXPECT_EQ(client_posted, rendezvous ? 0u : 32u);
    EXPECT_EQ(server_posted, rendezvous ? 2u : 34u);
    EXPECT_TRUE(server_saw_eof);
    EXPECT_EQ(cl.node(0).emp.posted_descriptor_count(), 0u);
    EXPECT_EQ(cl.node(1).emp.posted_descriptor_count(), 0u);
  }
}

TEST_F(SubstrateTest, EagerCreditsSurviveMutualWritesWithinCredits) {
  // Same pattern as above but with eager flow control: up to N
  // outstanding writes per direction are absorbed by the 2N descriptors
  // (§6.1), so the exchange completes.
  int completions = 0;
  auto side = [&](int me, bool listener) -> Task<void> {
    auto& st = stack(me);
    int fd;
    if (listener) {
      int ls = co_await st.socket();
      co_await st.bind(ls, SockAddr{1, 80});
      co_await st.listen(ls, 1);
      fd = co_await st.accept(ls, nullptr);
    } else {
      co_await eng_.delay(1000);
      fd = co_await st.socket();
      co_await st.connect(fd, SockAddr{1, 80});
    }
    auto data = pattern(30'000);
    co_await st.write_all(fd, data);
    std::vector<std::uint8_t> buf(30'000);
    co_await st.read_exact(fd, buf);
    EXPECT_EQ(buf, data);
    ++completions;
  };
  eng_.spawn(side(1, true));
  eng_.spawn(side(0, false));
  eng_.run();
  EXPECT_EQ(completions, 2);
}

TEST_F(SubstrateTest, BacklogLimitsSimultaneousConnections) {
  // With backlog 2 and no accept, the third connect cannot complete until
  // the server starts accepting.
  int accepted = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 2);
    co_await eng_.delay(30'000'000);  // 30 ms before accepting
    for (int i = 0; i < 3; ++i) {
      int cs = co_await stack(1).accept(ls, nullptr);
      (void)cs;
      ++accepted;
    }
  };
  std::vector<sim::Time> connected(3);
  auto client = [&](int idx) -> Task<void> {
    co_await eng_.delay(1000 + idx);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    connected[static_cast<std::size_t>(idx)] = eng_.now();
  };
  eng_.spawn(server());
  for (int i = 0; i < 3; ++i) eng_.spawn(client(i));
  eng_.run_until(200'000'000);
  EXPECT_EQ(accepted, 3);
  // The first two requests are absorbed by the two pre-posted backlog
  // descriptors, so those connects complete immediately; the third finds
  // the backlog full, is dropped, and only gets through via EMP
  // retransmission once accept() reposts a descriptor after 30 ms.
  EXPECT_LT(connected[0], 30'000'000u);
  EXPECT_LT(connected[1], 30'000'000u);
  EXPECT_GT(connected[2], 30'000'000u);
  const auto snap = eng_.metrics().snapshot();
  EXPECT_GT(snap.at("h1/emp/unmatched_drops"), 0);
  EXPECT_GT(snap.at("h0/emp/retransmitted_frames"), 0);
}

TEST_F(SubstrateTest, OverlappingAcceptPassesAcceptOneRequestOnce) {
  // Two accept_many() passes start at the same instant over a backlog
  // holding one connection request.  The first parks in the descriptor
  // repost inside the accept; the second must skip the request the first
  // is consuming.  Accepting it twice builds a ghost child with the live
  // connection's peer and tags.
  int ls = -1;
  std::vector<int> accepted;
  auto listener = [&]() -> Task<void> {
    ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 4);
  };
  auto pass = [&]() -> Task<void> {
    co_await eng_.delay(1'000'000);  // the request arrived long before
    (void)co_await stack(1).accept_many(ls, 1, accepted);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    co_await eng_.delay(2'000'000);
    co_await stack(0).close(s);
  };
  auto teardown = [&]() -> Task<void> {
    co_await eng_.delay(4'000'000);
    for (int cs : accepted) co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  eng_.spawn(listener());
  eng_.spawn(pass());
  eng_.spawn(pass());
  eng_.spawn(client());
  eng_.spawn(teardown());
  eng_.run();

  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(eng_.metrics().snapshot().at("h1/sockets/connections_accepted"),
            1);
  EXPECT_EQ(stack(0).active_socket_count(), 0u);
  EXPECT_EQ(stack(1).active_socket_count(), 0u);
  EXPECT_EQ(cluster_.node(1).emp.posted_descriptor_count(), 0u);
}

TEST_F(SubstrateTest, ShortConnectionRequestIsDropped) {
  // A message shorter than a connection request lands in the backlog
  // descriptor that the first accept reposted.  It is malformed and must be
  // dropped; decoding the whole slot would complete it with the previous
  // request's bytes and build a phantom child with that connection's tags.
  bool runt_landed = false;
  std::size_t accepted = 0;
  std::size_t server_sockets = 0;
  std::vector<std::uint8_t> echo(4);
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    while (!runt_landed) co_await eng_.delay(100'000);
    std::vector<int> fds;
    accepted = co_await stack(1).accept_many(ls, 4, fds);
    server_sockets = stack(1).active_socket_count();
    std::vector<std::uint8_t> buf(4);
    co_await stack(1).read_exact(cs, buf);
    co_await stack(1).write_all(cs, buf);
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    // 10 bytes straight to the listener's connection tag (0x8000 | port).
    // Its EMP ack means the backlog descriptor holds it.
    std::vector<std::uint8_t> runt(10, 0x5a);
    auto h = co_await cluster_.node(0).emp.post_send(1, 0x8000 | 80, runt);
    co_await cluster_.node(0).emp.wait_send_acked(h);
    runt_landed = true;
    co_await stack(0).write_all(s, pattern(4));
    co_await stack(0).read_exact(s, echo);
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();

  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(server_sockets, 2u);  // the listener and the first connection
  EXPECT_EQ(echo, pattern(4));
  EXPECT_EQ(eng_.metrics().snapshot().at("h1/sockets/connections_accepted"),
            1);
}

TEST_F(SubstrateTest, RegisteredBuffersCommitOnlyWhatIsWritten) {
  // Each default connection reserves a receive arena and a send-staging
  // ring of `credits` 64 KiB slots per side.  Allocating them writes
  // nothing, and a 4-byte echo is delivered as NIC slices, so 16 open
  // connections must leave most of those pages uncommitted.
  if (kAddressSanitizer) {
    GTEST_SKIP() << "AddressSanitizer's allocator writes every block it "
                    "hands out";
  }
  if (transparent_huge_pages_always()) {
    GTEST_SKIP() << "transparent huge pages set to always: a first write "
                    "may commit a whole 2 MiB page";
  }
  const long before_kib = resident_kib();
  if (before_kib < 0) GTEST_SKIP() << "no VmRSS in /proc/self/status";

  constexpr int kConns = 16;
  long open_kib = -1;
  int echoed = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, kConns);
    std::vector<int> conns;
    for (int i = 0; i < kConns; ++i) {
      conns.push_back(co_await stack(1).accept(ls, nullptr));
    }
    std::vector<std::uint8_t> buf(4);
    for (int cs : conns) {
      co_await stack(1).read_exact(cs, buf);
      co_await stack(1).write_all(cs, buf);
    }
    for (int cs : conns) {
      std::size_t n = co_await stack(1).read(cs, buf);
      EXPECT_EQ(n, 0u);  // the client's close
      co_await stack(1).close(cs);
    }
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    std::vector<int> conns;
    for (int i = 0; i < kConns; ++i) {
      int s = co_await stack(0).socket();
      co_await stack(0).connect(s, SockAddr{1, 80});
      conns.push_back(s);
    }
    for (int s : conns) {
      co_await stack(0).write_all(s, pattern(4, static_cast<std::uint8_t>(s)));
      std::vector<std::uint8_t> echo(4);
      co_await stack(0).read_exact(s, echo);
      if (echo == pattern(4, static_cast<std::uint8_t>(s))) ++echoed;
    }
    open_kib = resident_kib();
    for (int s : conns) co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();

  ASSERT_EQ(echoed, kConns);
  const SubstrateConfig cfg;
  const std::size_t ring_bytes =
      std::size_t{cfg.credits} * (cfg.buffer_bytes + kDataHeaderBytes);
  // Both sides of every connection hold one arena and one staging ring.
  const std::size_t reserved = std::size_t{2} * kConns * 2 * ring_bytes;
  const std::size_t grown =
      static_cast<std::size_t>(std::max(0L, open_kib - before_kib)) * 1024;
  EXPECT_LT(grown, reserved / 4)
      << "resident set grew by " << grown << " bytes for " << reserved
      << " bytes of registered buffers";
}

TEST_F(SubstrateTest, BlockedAcceptThrowsWhenListenerCloses) {
  bool threw = false;
  int ls = -1;
  auto acceptor = [&]() -> Task<void> {
    ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 2);
    try {
      (void)co_await stack(1).accept(ls, nullptr);  // no client ever comes
    } catch (const SocketError& e) {
      threw = e.code() == SockErr::kInvalid;
    }
  };
  auto closer = [&]() -> Task<void> {
    co_await eng_.delay(1'000'000);
    co_await stack(1).close(ls);
  };
  eng_.spawn(acceptor());
  eng_.spawn(closer());
  eng_.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(stack(1).active_socket_count(), 0u);
}

TEST_F(SubstrateTest, SelectWakesOnReadable) {
  std::vector<int> ready_fds;
  auto server = [&]() -> Task<void> {
    auto& node = cluster_.node(1);
    os::Process proc(node.host);
    int ls = co_await proc.socket(node.socks);
    co_await proc.bind(ls, SockAddr{1, 80});
    co_await proc.listen(ls, 1);
    int cs = co_await proc.accept(ls);
    // select() on the connection: data arrives 1 ms later.
    // Note: GCC 12 miscompiles braced temporaries passed by value into a
    // coroutine ("array used as initializer"); use a named vector.
    std::vector<int> watch{cs};
    ready_fds = co_await proc.select(watch);
    std::vector<std::uint8_t> buf(16);
    std::size_t n = co_await proc.read(cs, buf);
    EXPECT_EQ(n, 16u);
    co_await proc.close(cs);
    co_await proc.close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    co_await eng_.delay(1'000'000);
    co_await stack(0).write_all(s, pattern(16));
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  ASSERT_EQ(ready_fds.size(), 1u);
}

TEST_F(SubstrateTest, ManySequentialConnectionsDoNotLeak) {
  // A close() storm: every connection's descriptors and tags must be
  // reclaimed (§5.3).
  constexpr int kConns = 25;
  int served = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 4);
    for (int i = 0; i < kConns; ++i) {
      int cs = co_await stack(1).accept(ls, nullptr);
      std::vector<std::uint8_t> buf(64);
      std::size_t n = co_await stack(1).read(cs, buf);
      co_await stack(1).write_all(
          cs, std::span<const std::uint8_t>(buf).first(n));
      co_await stack(1).close(cs);
      ++served;
    }
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    for (int i = 0; i < kConns; ++i) {
      int s = co_await stack(0).socket();
      co_await stack(0).connect(s, SockAddr{1, 80});
      auto msg = pattern(64, static_cast<std::uint8_t>(i));
      co_await stack(0).write_all(s, msg);
      std::vector<std::uint8_t> echo(64);
      co_await stack(0).read_exact(s, echo);
      EXPECT_EQ(echo, msg);
      co_await stack(0).close(s);
    }
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();

  EXPECT_EQ(served, kConns);
  EXPECT_EQ(stack(0).active_socket_count(), 0u);
  EXPECT_EQ(stack(1).active_socket_count(), 0u);
  EXPECT_EQ(cluster_.node(0).emp.posted_descriptor_count(), 0u);
  EXPECT_EQ(cluster_.node(1).emp.posted_descriptor_count(), 0u);
  EXPECT_EQ(cluster_.node(0).emp.pending_send_count(), 0u);
  EXPECT_EQ(cluster_.node(1).emp.pending_send_count(), 0u);
}

// Tag recycling: the initiator hands out fresh tag triples first (5,455
// local and 5,461 remote bases), then reuses freed ones, oldest first.
// Connections past the fresh ranges can only connect over recycled
// triples, and each must echo its own bytes, never a stale neighbour's.
TEST(SubstrateTags, RecycledTagTriplesCarryIntactEchoes) {
  constexpr int kConns = 5'600;
  SubstrateConfig cfg = preset("ds_da_uq").cfg;
  cfg.credits = 1;
  cfg.buffer_bytes = 64;
  Engine eng;
  Cluster cluster(eng, sim::calibrated_cost_model(), 2, cfg);
  EmpSocketStack& client_stack = cluster.node(0).socks;
  EmpSocketStack& server_stack = cluster.node(1).socks;
  int served = 0;
  int intact = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await server_stack.socket();
    co_await server_stack.bind(ls, SockAddr{1, 80});
    co_await server_stack.listen(ls, 4);
    std::vector<std::uint8_t> buf(64);
    for (int i = 0; i < kConns; ++i) {
      int cs = co_await server_stack.accept(ls, nullptr);
      std::size_t n = co_await server_stack.read(cs, buf);
      co_await server_stack.write_all(
          cs, std::span<const std::uint8_t>(buf).first(n));
      co_await server_stack.close(cs);
      ++served;
    }
    co_await server_stack.close(ls);
  };
  auto client = [&]() -> Task<void> {
    std::vector<std::uint8_t> echo(32);
    for (int i = 0; i < kConns; ++i) {
      int s = co_await client_stack.socket();
      co_await client_stack.connect(s, SockAddr{1, 80});
      const auto msg = pattern(32, static_cast<std::uint8_t>(i));
      co_await client_stack.write_all(s, msg);
      co_await client_stack.read_exact(s, echo);
      if (echo == msg) ++intact;
      co_await client_stack.close(s);
    }
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();

  EXPECT_EQ(served, kConns);
  EXPECT_EQ(intact, kConns);
  EXPECT_EQ(client_stack.active_socket_count(), 0u);
  EXPECT_EQ(server_stack.active_socket_count(), 0u);
}

TEST_F(SubstrateTest, WriteAfterPeerCloseThrows) {
  bool threw = false;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    co_await eng_.delay(1'000'000);  // let the close notification land
    try {
      auto d = pattern(8);
      co_await stack(0).write_all(s, d);
    } catch (const SocketError& e) {
      threw = e.code() == SockErr::kClosed;
    }
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(threw);
}

TEST_F(SubstrateTest, DelayedAcksReduceExplicitAckTraffic) {
  auto run_with = [&](bool delayed) {
    SubstrateConfig cfg = preset("ds").cfg;
    cfg.delayed_acks = delayed;
    cfg.credits = 8;
    cfg.buffer_bytes = 1024;
    Engine eng;
    Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
    auto server = [&]() -> Task<void> {
      auto& st = cl.node(1).socks;
      int ls = co_await st.socket();
      co_await st.bind(ls, SockAddr{1, 80});
      co_await st.listen(ls, 1);
      int cs = co_await st.accept(ls, nullptr);
      std::vector<std::uint8_t> buf(1024);
      for (int i = 0; i < 32; ++i) co_await st.read_exact(cs, buf);
      co_await st.close(cs);
      co_await st.close(ls);
    };
    auto client = [&]() -> Task<void> {
      auto& st = cl.node(0).socks;
      co_await eng.delay(1000);
      int s = co_await st.socket();
      co_await st.connect(s, SockAddr{1, 80});
      auto chunk = pattern(1024);
      for (int i = 0; i < 32; ++i) co_await st.write_all(s, chunk);
      co_await st.close(s);
    };
    eng.spawn(server());
    eng.spawn(client());
    eng.run();
    return eng.metrics().snapshot().at("h1/sockets/credit_acks_tx");
  };
  auto acks_immediate = run_with(false);
  auto acks_delayed = run_with(true);
  EXPECT_GT(acks_immediate, 2 * acks_delayed);
}

TEST_F(SubstrateTest, PiggybackReturnsCreditsOnReverseTraffic) {
  // Request-response traffic: with piggybacking on, credits ride the
  // responses and explicit acks (mostly) disappear.
  SubstrateConfig cfg = preset("ds_da_uq").cfg;
  cfg.credits = 8;
  cfg.buffer_bytes = 1024;
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
  auto server = [&]() -> Task<void> {
    auto& st = cl.node(1).socks;
    int ls = co_await st.socket();
    co_await st.bind(ls, SockAddr{1, 80});
    co_await st.listen(ls, 1);
    int cs = co_await st.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(128);
    for (int i = 0; i < 64; ++i) {
      co_await st.read_exact(cs, buf);
      co_await st.write_all(cs, buf);
    }
    co_await st.close(cs);
    co_await st.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& st = cl.node(0).socks;
    co_await eng.delay(1000);
    int s = co_await st.socket();
    co_await st.connect(s, SockAddr{1, 80});
    std::vector<std::uint8_t> buf(128, 9);
    for (int i = 0; i < 64; ++i) {
      co_await st.write_all(s, buf);
      co_await st.read_exact(s, buf);
    }
    co_await st.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_GT(eng.metrics().snapshot().at("h1/sockets/credits_piggybacked"), 30);
}

TEST_F(SubstrateTest, LatencyBeatsKernelTcpByPaperFactor) {
  // Figure 13: ~4.2x (datagram) / ~3.4x (streaming) better latency than
  // TCP at 4 bytes.  Check the substrate side here (TCP verified in
  // tcp_test): one-way < 45 us for streaming with all enhancements.
  constexpr int kIters = 30;
  double one_way_us = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    std::vector<std::uint8_t> buf(4);
    for (int i = 0; i < kIters; ++i) {
      co_await stack(1).read_exact(cs, buf);
      co_await stack(1).write_all(cs, buf);
    }
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    std::vector<std::uint8_t> buf(4);
    sim::Time t0 = eng_.now();
    for (int i = 0; i < kIters; ++i) {
      co_await stack(0).write_all(s, buf);
      co_await stack(0).read_exact(s, buf);
    }
    one_way_us = sim::to_us(eng_.now() - t0) / (2.0 * kIters);
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_GT(one_way_us, 28.0);
  EXPECT_LT(one_way_us, 48.0);
}

TEST_F(SubstrateTest, ReliableUnderFrameLoss) {
  // The substrate inherits EMP's reliability: data survives frame loss
  // without application-visible effects.
  cluster_.network().host_link(0).set_drop_policy(
      net::StarNetwork::kHostSide,
      net::random_drop_policy(eng_.rng(), 0.03));
  cluster_.network().host_link(1).set_drop_policy(
      net::StarNetwork::kHostSide,
      net::random_drop_policy(eng_.rng(), 0.03));
  const auto data = pattern(60'000, 7);
  std::vector<std::uint8_t> received;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack(1).socket();
    co_await stack(1).bind(ls, SockAddr{1, 80});
    co_await stack(1).listen(ls, 1);
    int cs = co_await stack(1).accept(ls, nullptr);
    std::vector<std::uint8_t> buf(4096);
    for (;;) {
      std::size_t n = co_await stack(1).read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    co_await stack(1).close(cs);
    co_await stack(1).close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack(0).socket();
    co_await stack(0).connect(s, SockAddr{1, 80});
    co_await stack(0).write_all(s, data);
    co_await stack(0).close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_EQ(received, data);
}

}  // namespace
}  // namespace ulsocks::sockets
