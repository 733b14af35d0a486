// Tests for the host model: RAM-disk filesystem, process fd dispatch (the
// §5.4 interception analogue) and select() across heterogeneous fds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "oskernel/fs.hpp"
#include "oskernel/host.hpp"
#include "oskernel/process.hpp"
#include "sim/engine.hpp"

namespace ulsocks::os {
namespace {

using sim::Engine;
using sim::Task;

class HostTest : public ::testing::Test {
 protected:
  HostTest() : host_(eng_, sim::calibrated_cost_model(), 0) {}
  Engine eng_;
  Host host_;
};

TEST_F(HostTest, FsWriteThenReadRoundTrips) {
  std::vector<std::uint8_t> data(10'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  auto proc = [&]() -> Task<void> {
    auto f = co_await host_.fs().open("/x/y", OpenMode::kWrite);
    co_await host_.fs().write(f, data);
    co_await host_.fs().close(f);

    auto g = co_await host_.fs().open("/x/y", OpenMode::kRead);
    std::vector<std::uint8_t> buf(4096);
    std::vector<std::uint8_t> out;
    for (;;) {
      std::size_t n = co_await host_.fs().read(g, buf);
      if (n == 0) break;
      out.insert(out.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    co_await host_.fs().close(g);
    EXPECT_EQ(out, data);
  };
  eng_.spawn(proc());
  eng_.run();
}

TEST_F(HostTest, FsOpenMissingFileThrows) {
  bool threw = false;
  auto proc = [&]() -> Task<void> {
    try {
      auto f = co_await host_.fs().open("/nope", OpenMode::kRead);
      (void)f;
    } catch (const FsError&) {
      threw = true;
    }
  };
  eng_.spawn(proc());
  eng_.run();
  EXPECT_TRUE(threw);
}

TEST_F(HostTest, FsOpenForWriteTruncates) {
  host_.fs().install("/t", std::vector<std::uint8_t>(100, 1));
  auto proc = [&]() -> Task<void> {
    auto f = co_await host_.fs().open("/t", OpenMode::kWrite);
    std::vector<std::uint8_t> five(5, 2);
    co_await host_.fs().write(f, five);
    co_await host_.fs().close(f);
  };
  eng_.spawn(proc());
  eng_.run();
  EXPECT_EQ(host_.fs().size_of("/t"), 5u);
}

TEST_F(HostTest, FsReadsChargeSimulatedTime) {
  host_.fs().install("/big", std::vector<std::uint8_t>(1 << 20));
  sim::Time elapsed = 0;
  auto proc = [&]() -> Task<void> {
    sim::Time t0 = eng_.now();
    auto f = co_await host_.fs().open("/big", OpenMode::kRead);
    std::vector<std::uint8_t> buf(1 << 20);
    std::size_t n = co_await host_.fs().read(f, buf);
    EXPECT_EQ(n, buf.size());
    elapsed = eng_.now() - t0;
  };
  eng_.spawn(proc());
  eng_.run();
  // 1 MB at ~150 MB/s is ~7 ms; anything in [2, 30] ms is sane.
  EXPECT_GT(sim::to_ms(elapsed), 2.0);
  EXPECT_LT(sim::to_ms(elapsed), 30.0);
}

TEST_F(HostTest, CpuIsSerialResource) {
  // Two processes charging the CPU serialize, not overlap.
  sim::Time done_a = 0, done_b = 0;
  auto proc = [&](sim::Time& done) -> Task<void> {
    co_await host_.compute(1'000'000);  // 1 ms of compute
    done = eng_.now();
  };
  eng_.spawn(proc(done_a));
  eng_.spawn(proc(done_b));
  eng_.run();
  EXPECT_EQ(std::max(done_a, done_b), 2'000'000u);
}

TEST_F(HostTest, ProcessDispatchesFdKinds) {
  // The §5.4 scenario: the same read()/write() calls work on files and
  // sockets, routed by the fd table.
  Engine eng;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), 2);
  cl.node(0).host.fs().install("/data", {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<std::uint8_t> via_socket(8);

  auto server = [&]() -> Task<void> {
    Process proc(cl.node(1).host);
    int ls = co_await proc.socket(cl.node(1).socks);
    co_await proc.bind(ls, SockAddr{1, 9});
    co_await proc.listen(ls, 1);
    int cs = co_await proc.accept(ls);
    co_await proc.read_exact(cs, via_socket);
    co_await proc.close(cs);
    co_await proc.close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(1000);
    Process proc(cl.node(0).host);
    // Generic fd calls: file read, then socket write, same interface.
    int file = co_await proc.open("/data", OpenMode::kRead);
    int sock = co_await proc.socket(cl.node(0).socks);
    co_await proc.connect(sock, SockAddr{1, 9});
    std::vector<std::uint8_t> buf(8);
    std::size_t n = co_await proc.read(file, buf);
    EXPECT_EQ(n, 8u);
    co_await proc.write_all(sock, buf);
    co_await proc.close(sock);
    co_await proc.close(file);
    EXPECT_EQ(proc.open_fd_count(), 0u);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_EQ(via_socket, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(HostTest, BadFdThrows) {
  auto proc = [&]() -> Task<void> {
    Process p(host_);
    std::vector<std::uint8_t> buf(4);
    bool threw = false;
    try {
      std::size_t n = co_await p.read(42, buf);
      (void)n;
    } catch (const SocketError& e) {
      threw = e.code() == SockErr::kInvalid;
    }
    EXPECT_TRUE(threw);
  };
  eng_.spawn(proc());
  eng_.run();
}

TEST_F(HostTest, SelectIncludesRegularFilesImmediately) {
  host_.fs().install("/f", {1, 2, 3});
  std::vector<int> ready;
  auto proc = [&]() -> Task<void> {
    Process p(host_);
    int fd = co_await p.open("/f", OpenMode::kRead);
    std::vector<int> watch{fd};
    ready = co_await p.select(watch);
  };
  eng_.spawn(proc());
  eng_.run();
  EXPECT_EQ(ready.size(), 1u);
}

TEST(Process, SelectOnEmptySetThrows) {
  // Nothing in an empty set can become ready, so select() refuses it
  // before charging the syscall instead of polling forever.  run_until
  // bounds the run in case it does poll.
  Engine eng;
  Host host(eng, sim::calibrated_cost_model(), 0);
  bool threw = false;
  bool returned = false;
  sim::Time threw_at = 1;
  auto proc = [&]() -> Task<void> {
    Process p(host);
    try {
      (void)co_await p.select({});
      returned = true;
    } catch (const SocketError& e) {
      threw = e.code() == SockErr::kInvalid;
      threw_at = eng.now();
    }
  };
  eng.spawn(proc());
  eng.run_until(1'000'000);
  EXPECT_TRUE(threw);
  EXPECT_FALSE(returned);
  EXPECT_EQ(threw_at, 0);
}

TEST_F(HostTest, SelectAcrossBothStacks) {
  // A heterogeneous fd set (kernel TCP + substrate) must still wake when
  // either becomes readable; Process::select falls back to polling.
  Engine eng;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), 2);
  std::size_t ready_count = 0;

  auto server = [&]() -> Task<void> {
    Process proc(cl.node(1).host);
    int tls = co_await proc.socket(cl.node(1).tcp);
    co_await proc.bind(tls, SockAddr{1, 11});
    co_await proc.listen(tls, 1);
    int sls = co_await proc.socket(cl.node(1).socks);
    co_await proc.bind(sls, SockAddr{1, 12});
    co_await proc.listen(sls, 1);
    int tcp_conn = co_await proc.accept(tls);
    int sub_conn = co_await proc.accept(sls);
    // Data arrives on the substrate socket only.
    std::vector<int> watch{tcp_conn, sub_conn};
    auto ready = co_await proc.select(watch);
    ready_count = ready.size();
    EXPECT_EQ(ready[0], sub_conn);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(1000);
    Process proc(cl.node(0).host);
    int t = co_await proc.socket(cl.node(0).tcp);
    co_await proc.connect(t, SockAddr{1, 11});
    int u = co_await proc.socket(cl.node(0).socks);
    co_await proc.connect(u, SockAddr{1, 12});
    co_await eng.delay(1'000'000);
    std::vector<std::uint8_t> msg(4, 9);
    co_await proc.write_all(u, msg);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run_until(100'000'000);
  EXPECT_EQ(ready_count, 1u);
}

}  // namespace
}  // namespace ulsocks::os
