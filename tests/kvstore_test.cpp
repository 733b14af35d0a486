// Tests for the key-value store extension (the paper's §8 data-center
// future work), run over both stacks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/kvstore.hpp"
#include "sim/engine.hpp"

namespace ulsocks::apps {
namespace {

using sim::Engine;
using sim::Task;

class KvTest : public ::testing::TestWithParam<Cluster::StackKind> {
 protected:
  KvTest() : cluster_(eng_, sim::calibrated_cost_model(), 2) {}
  os::SocketApi& stack(std::size_t n) { return cluster_.stack(n, GetParam()); }
  Engine eng_;
  Cluster cluster_;
};

std::vector<std::uint8_t> value_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST_P(KvTest, SetGetDelRoundTrip) {
  bool done = false;
  auto server = [&]() -> Task<void> {
    os::Process proc(cluster_.node(0).host);
    KvServerOptions opt;
    opt.max_connections = 1;
    co_await kv_server(proc, stack(0), opt);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    os::Process proc(cluster_.node(1).host);
    KvClient kv(proc, stack(1), 0);
    co_await kv.connect();

    EXPECT_EQ(co_await kv.set("alpha", value_of("one")), KvStatus::kOk);
    EXPECT_EQ(co_await kv.set("beta", value_of("two")), KvStatus::kOk);

    auto v = co_await kv.get("alpha");
    EXPECT_TRUE(v.has_value());
    if (v) {
      EXPECT_EQ(*v, value_of("one"));
    }

    EXPECT_FALSE((co_await kv.get("gamma")).has_value());

    EXPECT_EQ(co_await kv.del("alpha"), KvStatus::kOk);
    EXPECT_FALSE((co_await kv.get("alpha")).has_value());
    EXPECT_EQ(co_await kv.del("alpha"), KvStatus::kNotFound);

    // Overwrite.
    EXPECT_EQ(co_await kv.set("beta", value_of("TWO!")), KvStatus::kOk);
    auto w = co_await kv.get("beta");
    EXPECT_TRUE(w.has_value());
    if (w) {
      EXPECT_EQ(*w, value_of("TWO!"));
    }

    co_await kv.close();
    done = true;
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(done);
}

TEST_P(KvTest, LargeValuesSurvive) {
  bool done = false;
  std::vector<std::uint8_t> big(200'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 101 + 13);
  }
  auto server = [&]() -> Task<void> {
    os::Process proc(cluster_.node(0).host);
    KvServerOptions opt;
    opt.max_connections = 1;
    co_await kv_server(proc, stack(0), opt);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    os::Process proc(cluster_.node(1).host);
    KvClient kv(proc, stack(1), 0);
    co_await kv.connect();
    EXPECT_EQ(co_await kv.set("blob", big), KvStatus::kOk);
    auto v = co_await kv.get("blob");
    EXPECT_TRUE(v.has_value());
    if (v) {
      EXPECT_EQ(*v, big);
    }
    co_await kv.close();
    done = true;
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(done);
}

TEST_P(KvTest, ManySmallOperations) {
  bool done = false;
  constexpr int kOps = 200;
  auto server = [&]() -> Task<void> {
    os::Process proc(cluster_.node(0).host);
    KvServerOptions opt;
    opt.max_connections = 1;
    co_await kv_server(proc, stack(0), opt);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    os::Process proc(cluster_.node(1).host);
    KvClient kv(proc, stack(1), 0);
    co_await kv.connect();
    for (int i = 0; i < kOps; ++i) {
      std::string key = "k" + std::to_string(i % 17);
      EXPECT_EQ(co_await kv.set(key, value_of(std::to_string(i))),
                KvStatus::kOk);
      auto v = co_await kv.get(key);
      EXPECT_TRUE(v.has_value());
      if (v) {
        EXPECT_EQ(*v, value_of(std::to_string(i)));
      }
    }
    co_await kv.close();
    done = true;
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster_.node(0).socks.active_socket_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothStacks, KvTest,
                         ::testing::Values(Cluster::StackKind::kTcp,
                                           Cluster::StackKind::kSubstrate),
                         [](const auto& info) {
                           return info.param == Cluster::StackKind::kTcp
                                      ? "KernelTcp"
                                      : "EmpSubstrate";
                         });

}  // namespace
}  // namespace ulsocks::apps
