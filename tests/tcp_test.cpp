// Tests for the kernel TCP-lite baseline: wire format, handshake, stream
// delivery, window limits, Nagle, teardown, resets and loss recovery.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "net/topology.hpp"
#include "nic/nic_device.hpp"
#include "oskernel/host.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "tcp/segment.hpp"
#include "tcp/tcp_stack.hpp"

namespace ulsocks::tcp {
namespace {

using os::SockAddr;
using os::SockErr;
using os::SocketError;
using sim::Engine;
using sim::Task;

// A forged wire payload: the header with the segment's payload appended
// inline.  Real data segments carry the payload in the frame's body; the
// receive path reads both alike.
std::vector<std::uint8_t> forge_payload(const Segment& s) {
  std::vector<std::uint8_t> out;
  encode_segment_header_into(s, out);
  out.insert(out.end(), s.payload.begin(), s.payload.end());
  return out;
}

TEST(Segment, RoundTrip) {
  Segment s;
  s.src_node = 1;
  s.dst_node = 2;
  s.src_port = 5000;
  s.dst_port = 80;
  s.seq = 0x123456789abcull;
  s.ack = 0xdeadbeefull;
  s.window = 65'000;
  s.flags = Flags{.syn = true, .ack = true};
  s.payload = {1, 2, 3, 4, 5};
  auto bytes = forge_payload(s);
  EXPECT_EQ(bytes.size(), kSegmentHeaderBytes + 5);
  auto d = decode_segment(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_port, 5000);
  EXPECT_EQ(d->seq, s.seq);
  EXPECT_EQ(d->ack, s.ack);
  EXPECT_EQ(d->window, s.window);
  EXPECT_EQ(d->flags, s.flags);
  EXPECT_EQ(d->payload, s.payload);
}

// Golden bytes: the address quad, seq/ack, window and flags little-endian
// at fixed offsets, zero-padded to the nominal 40-byte header.
TEST(Segment, HeaderBytesArePinned) {
  Segment s;
  s.src_node = 0x0102;
  s.dst_node = 0x0304;
  s.src_port = 5000;
  s.dst_port = 80;
  s.seq = 0x0102030405060708ull;
  s.ack = 0x1112131415161718ull;
  s.window = 65'000;
  s.flags = Flags{.syn = true, .ack = true, .fin = true, .rst = true};
  std::vector<std::uint8_t> bytes;
  encode_segment_header_into(s, bytes);
  std::vector<std::uint8_t> golden{
      0x02, 0x01, 0x04, 0x03, 0x88, 0x13, 0x50, 0x00,  // nodes, ports
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // ack
      0xe8, 0xfd, 0x00, 0x00, 0x0f};                   // window, flags
  golden.resize(kSegmentHeaderBytes, 0x00);
  EXPECT_EQ(bytes, golden);
}

TEST(Segment, RejectsShort) {
  EXPECT_FALSE(decode_segment(std::vector<std::uint8_t>(10)).has_value());
}

class TcpPair : public ::testing::Test {
 protected:
  TcpPair() : model_(sim::calibrated_cost_model()), net_(eng_, model_.wire, 2) {
    for (std::uint16_t i = 0; i < 2; ++i) {
      host_[i] = std::make_unique<os::Host>(eng_, model_, i);
      nic_[i] = std::make_unique<nic::NicDevice>(
          eng_, model_, net_.host_link(i), net::StarNetwork::kHostSide,
          net::MacAddress::for_host(i));
      stack_[i] = std::make_unique<TcpStack>(eng_, model_, *host_[i], *nic_[i]);
    }
  }

  static std::vector<std::uint8_t> pattern(std::size_t n,
                                           std::uint8_t seed = 1) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(seed + i * 13);
    }
    return v;
  }

  Engine eng_;
  sim::CostModel model_;
  net::StarNetwork net_;
  std::unique_ptr<os::Host> host_[2];
  std::unique_ptr<nic::NicDevice> nic_[2];
  std::unique_ptr<TcpStack> stack_[2];
};

TEST_F(TcpPair, ConnectAcceptRoundTrip) {
  bool accepted = false;
  SockAddr peer{};
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, &peer);
    accepted = true;
    co_await stack_[1]->close(cs);
    co_await stack_[1]->close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    co_await stack_[0]->close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(accepted);
  EXPECT_EQ(peer.node, 0);  // client address travels with the connection
}

TEST_F(TcpPair, ConnectionTimeIsInPaperRange) {
  // Paper: TCP connection establishment is typically 200-250 us.
  sim::Time t0 = 0, t1 = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    (void)cs;
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    t0 = eng_.now();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    t1 = eng_.now();
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  double us = sim::to_us(t1 - t0);
  EXPECT_GT(us, 150.0);
  EXPECT_LT(us, 300.0);
}

TEST_F(TcpPair, ConnectRefusedWithoutListener) {
  bool refused = false;
  auto client = [&]() -> Task<void> {
    int s = co_await stack_[0]->socket();
    try {
      co_await stack_[0]->connect(s, SockAddr{1, 9999});
    } catch (const SocketError& e) {
      refused = e.code() == SockErr::kRefused;
    }
  };
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(refused);
}

TEST_F(TcpPair, StreamDataIntegrity) {
  auto data = pattern(100'000, 7);
  std::vector<std::uint8_t> received;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    std::vector<std::uint8_t> buf(8192);
    for (;;) {
      std::size_t n = co_await stack_[1]->read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    co_await stack_[1]->close(cs);
    co_await stack_[1]->close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    co_await stack_[0]->write_all(s, data);
    co_await stack_[0]->close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_EQ(received, data);
}

TEST_F(TcpPair, StreamAllowsArbitraryReadSizes) {
  auto data = pattern(10'000, 3);
  std::vector<std::uint8_t> received;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    std::vector<std::uint8_t> buf(777);  // deliberately odd chunks
    for (;;) {
      std::size_t n = co_await stack_[1]->read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    // Writes in odd sizes too: message boundaries must not matter.
    std::size_t off = 0;
    while (off < data.size()) {
      std::size_t n = std::min<std::size_t>(333, data.size() - off);
      co_await stack_[0]->write_all(
          s, std::span<const std::uint8_t>(data).subspan(off, n));
      off += n;
    }
    co_await stack_[0]->close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_EQ(received, data);
}

TEST_F(TcpPair, BidirectionalSimultaneousWrites) {
  // Both sides write 48 KB then read 48 KB: kernel buffering must avoid
  // deadlock (the scenario the paper's Figure 7 shows deadlocking under a
  // naive rendezvous scheme).
  constexpr std::size_t kBytes = 49'152;
  int done = 0;
  auto side = [&](int me, int other_port, bool listen_side) -> Task<void> {
    int fd;
    if (listen_side) {
      int ls = co_await stack_[me]->socket();
      co_await stack_[me]->bind(ls, SockAddr{1, 80});
      co_await stack_[me]->listen(ls, 5);
      fd = co_await stack_[me]->accept(ls, nullptr);
    } else {
      co_await eng_.delay(10'000);
      fd = co_await stack_[me]->socket();
      co_await stack_[me]->connect(fd, SockAddr{1, 80});
    }
    (void)other_port;
    // write() first, read() second on BOTH sides.
    co_await stack_[me]->write_all(fd, pattern(kBytes));
    std::vector<std::uint8_t> buf(kBytes);
    co_await stack_[me]->read_exact(fd, buf);
    EXPECT_EQ(buf, pattern(kBytes));
    ++done;
  };
  eng_.spawn(side(1, 0, true));
  eng_.spawn(side(0, 80, false));
  eng_.run();
  EXPECT_EQ(done, 2);
}

TEST_F(TcpPair, ReadReturnsZeroAfterPeerClose) {
  bool got_eof = false;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    std::vector<std::uint8_t> buf(64);
    std::size_t n = co_await stack_[1]->read(cs, buf);
    EXPECT_EQ(n, 4u);
    n = co_await stack_[1]->read(cs, buf);
    got_eof = n == 0;
    co_await stack_[1]->close(cs);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    co_await stack_[0]->write_all(s, pattern(4));
    co_await stack_[0]->close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(got_eof);
}

TEST_F(TcpPair, SmallSendBufferLimitsThroughput) {
  // The paper's Figure 13 point: 16 KB kernel buffers cap TCP well below
  // what larger buffers reach.
  auto run_with_bufs = [&](int bytes_buf) {
    double mbps = 0;
    constexpr std::size_t kTotal = 4 << 20;
    auto server = [&]() -> Task<void> {
      int ls = co_await stack_[1]->socket();
      co_await stack_[1]->bind(ls, SockAddr{1, 80});
      co_await stack_[1]->listen(ls, 5);
      int cs = co_await stack_[1]->accept(ls, nullptr);
      co_await stack_[1]->set_option(cs, os::SockOpt::kRcvBuf, bytes_buf);
      std::vector<std::uint8_t> buf(65'536);
      std::size_t total = 0;
      sim::Time t0 = eng_.now();
      for (;;) {
        std::size_t n = co_await stack_[1]->read(cs, buf);
        if (n == 0) break;
        total += n;
      }
      mbps = static_cast<double>(total) * 8.0 /
             sim::to_sec(eng_.now() - t0) / 1e6;
      co_await stack_[1]->close(cs);
      co_await stack_[1]->close(ls);
    };
    auto client = [&]() -> Task<void> {
      co_await eng_.delay(10'000);
      int s = co_await stack_[0]->socket();
      co_await stack_[0]->set_option(s, os::SockOpt::kSndBuf, bytes_buf);
      co_await stack_[0]->connect(s, SockAddr{1, 80});
      auto chunk = pattern(65'536);
      for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
        co_await stack_[0]->write_all(s, chunk);
      }
      co_await stack_[0]->close(s);
    };
    eng_.spawn(server());
    eng_.spawn(client());
    eng_.run();
    return mbps;
  };

  double small = run_with_bufs(16'384);
  double big = run_with_bufs(262'144);
  EXPECT_GT(big, small * 1.3);  // tuned buffers must clearly win
  EXPECT_GT(small, 150.0);
  EXPECT_LT(small, 450.0);
  EXPECT_GT(big, 450.0);
  EXPECT_LT(big, 700.0);
}

TEST_F(TcpPair, FourByteLatencyNearPaperBaseline) {
  // Paper: ~120 us one-way for 4-byte messages over kernel TCP.
  constexpr int kIters = 20;
  double one_way_us = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    co_await stack_[1]->set_option(cs, os::SockOpt::kNoDelay, 1);
    std::vector<std::uint8_t> buf(4);
    for (int i = 0; i < kIters; ++i) {
      co_await stack_[1]->read_exact(cs, buf);
      co_await stack_[1]->write_all(cs, buf);
    }
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    co_await stack_[0]->set_option(s, os::SockOpt::kNoDelay, 1);
    std::vector<std::uint8_t> buf(4);
    sim::Time t0 = eng_.now();
    for (int i = 0; i < kIters; ++i) {
      co_await stack_[0]->write_all(s, buf);
      co_await stack_[0]->read_exact(s, buf);
    }
    one_way_us = sim::to_us(eng_.now() - t0) / (2.0 * kIters);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_GT(one_way_us, 95.0);
  EXPECT_LT(one_way_us, 145.0);
}

TEST_F(TcpPair, RecoversFromFrameLoss) {
  net_.host_link(0).set_drop_policy(net::StarNetwork::kHostSide,
                                    net::drop_nth_policy({5, 9, 14}));
  auto data = pattern(50'000, 9);
  std::vector<std::uint8_t> received;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    std::vector<std::uint8_t> buf(8192);
    for (;;) {
      std::size_t n = co_await stack_[1]->read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    co_await stack_[0]->write_all(s, data);
    co_await stack_[0]->close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_EQ(received, data);
  EXPECT_GT(eng_.metrics().snapshot().at("h0/tcp/retransmits"), 0);
}

TEST_F(TcpPair, BacklogOverflowRefusesConnection) {
  int refused = 0, connected = 0;
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 2);
    // Never accepts: the backlog fills up.
    co_await eng_.delay(100'000'000);
  };
  auto client = [&](int idx) -> Task<void> {
    co_await eng_.delay(10'000 + idx * 1'000);
    int s = co_await stack_[0]->socket();
    try {
      co_await stack_[0]->connect(s, SockAddr{1, 80});
      ++connected;
    } catch (const SocketError&) {
      ++refused;
    }
  };
  eng_.spawn(server());
  for (int i = 0; i < 5; ++i) eng_.spawn(client(i));
  eng_.run();
  EXPECT_EQ(connected, 2);
  EXPECT_EQ(refused, 3);
}

TEST_F(TcpPair, ZeroWindowProbeUnsticksStalledReceiver) {
  // Receiver stops reading; sender fills the window and must probe until
  // the reader drains.
  bool all_received = false;
  auto data = pattern(60'000, 5);
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 5);
    int cs = co_await stack_[1]->accept(ls, nullptr);
    co_await eng_.delay(50'000'000);  // stall for 50 ms, window goes to 0
    std::vector<std::uint8_t> received;
    std::vector<std::uint8_t> buf(8192);
    for (;;) {
      std::size_t n = co_await stack_[1]->read(cs, buf);
      if (n == 0) break;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    all_received = received == data;
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    int s = co_await stack_[0]->socket();
    co_await stack_[0]->connect(s, SockAddr{1, 80});
    co_await stack_[0]->write_all(s, data);
    co_await stack_[0]->close(s);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(all_received);
}

TEST_F(TcpPair, ClosedConnectionsAreGarbageCollected) {
  auto server = [&]() -> Task<void> {
    int ls = co_await stack_[1]->socket();
    co_await stack_[1]->bind(ls, SockAddr{1, 80});
    co_await stack_[1]->listen(ls, 8);
    for (int i = 0; i < 5; ++i) {
      int cs = co_await stack_[1]->accept(ls, nullptr);
      std::vector<std::uint8_t> buf(16);
      std::size_t n = co_await stack_[1]->read(cs, buf);
      (void)n;
      co_await stack_[1]->close(cs);
    }
    co_await stack_[1]->close(ls);
  };
  auto client = [&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await eng_.delay(10'000);
      int s = co_await stack_[0]->socket();
      co_await stack_[0]->connect(s, SockAddr{1, 80});
      co_await stack_[0]->write_all(s, pattern(16));
      co_await stack_[0]->close(s);
    }
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  // Give the gc linger time to pass, then drain.
  eng_.schedule_after(50'000'000, [] {});
  eng_.run();
  EXPECT_EQ(stack_[0]->live_socket_count(), 0u);
  EXPECT_EQ(stack_[1]->live_socket_count(), 0u);
}

// ---------------------------------------------------------------------------
// ByteRing: the snd_buf/rcv_buf backing store
// ---------------------------------------------------------------------------

TEST(ByteRing, FifoSemanticsWithIndexing) {
  ByteRing r;
  EXPECT_TRUE(r.empty());
  std::vector<std::uint8_t> a{1, 2, 3};
  std::vector<std::uint8_t> b{4, 5};
  r.append(a);
  r.append(b);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[4], 5);
  r.pop_front(2);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 3);
  EXPECT_EQ(r.data()[2], 5) << "live bytes must stay contiguous";
  r.pop_front(3);
  EXPECT_TRUE(r.empty());
}

TEST(ByteRing, DrainInSmallReadsNeverGoesQuadratic) {
  // The regression this guards: a front-erase that shifts the remaining
  // bytes on every pop makes draining N bytes in k-byte reads move
  // O(N^2/k) bytes total.  ByteRing's compact-when-dead>=live policy
  // bounds lifetime byte moves by lifetime bytes appended, so a 1000-read
  // drain moves each byte at most once.
  ByteRing r;
  constexpr std::size_t kReads = 1000;
  constexpr std::size_t kReadSize = 64;
  std::vector<std::uint8_t> chunk(kReadSize, 0xcd);
  for (std::size_t i = 0; i < kReads; ++i) r.append(chunk);
  ASSERT_EQ(r.appended(), kReads * kReadSize);
  for (std::size_t i = 0; i < kReads; ++i) r.pop_front(kReadSize);
  EXPECT_TRUE(r.empty());
  EXPECT_LE(r.moved(), r.appended())
      << "compaction moved more bytes than were ever appended: the "
         "quadratic front-erase blowup is back";
}

TEST(ByteRing, InterleavedAppendPopKeepsLinearMoves) {
  // Steady-state streaming shape: the window fills, acks trim the front,
  // more data lands.  Total moves must stay bounded by total appends even
  // when the ring never fully drains between rounds.
  ByteRing r;
  std::vector<std::uint8_t> chunk(1460);
  std::iota(chunk.begin(), chunk.end(), 0);
  std::size_t popped = 0;
  for (int round = 0; round < 500; ++round) {
    r.append(chunk);
    if (r.size() > 4 * 1460) {
      r.pop_front(1460);
      popped += 1460;
    }
  }
  while (!r.empty()) {
    std::size_t n = std::min<std::size_t>(97, r.size());
    r.pop_front(n);
    popped += n;
  }
  EXPECT_EQ(popped, r.appended());
  EXPECT_LE(r.moved(), r.appended());
}

// decode_segment_frame must gather identically from an all-inline frame
// and from a header+body frame (the TX path's wire form).
TEST(Segment, FrameDecodeGathersInlineAndSlicedIdentically) {
  Segment s;
  s.src_node = 1;
  s.dst_node = 2;
  s.src_port = 4242;
  s.dst_port = 80;
  s.seq = 1000;
  s.ack = 2000;
  s.window = 8192;
  s.flags = Flags{.ack = true};
  s.payload.resize(500);
  std::iota(s.payload.begin(), s.payload.end(), 0);

  net::Frame inline_frame;
  inline_frame.payload = forge_payload(s);

  net::SlicePool pool;
  net::Frame sliced_frame;
  encode_segment_header_into(s, sliced_frame.payload);
  EXPECT_EQ(sliced_frame.payload.size(), kSegmentHeaderBytes);
  sliced_frame.body = pool.copy_in(s.payload);

  EXPECT_EQ(inline_frame.payload_bytes(), sliced_frame.payload_bytes());
  auto a = decode_segment_frame(inline_frame);
  auto b = decode_segment_frame(sliced_frame);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->seq, b->seq);
  EXPECT_EQ(a->flags, b->flags);
  EXPECT_EQ(a->payload, b->payload);
  EXPECT_EQ(a->payload, s.payload);
}

}  // namespace
}  // namespace ulsocks::tcp
