// Tests for the correctness-tooling layer: the ULSOCKS_INVARIANT macro,
// the checker registry, the engine's always-on causality invariants, and
// end-to-end detection of deliberately corrupted protocol state.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "check/invariant.hpp"
#include "check/registry.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "sockets/control.hpp"
#include "sockets/substrate.hpp"

namespace ulsocks {
namespace {

using apps::Cluster;
using check::InvariantError;
using check::Registry;
using check::ScopedChecker;
using os::SockAddr;
using sim::Engine;
using sim::Task;

// ---------------------------------------------------------------------------
// The macro itself
// ---------------------------------------------------------------------------

TEST(Invariant, PassingConditionIsSilent) {
  EXPECT_NO_THROW(ULSOCKS_INVARIANT(1 + 1 == 2, "arithmetic works"));
}

TEST(Invariant, FailureCarriesConditionLocationAndMessage) {
  try {
    ULSOCKS_INVARIANT(2 + 2 == 5, check::msgf("checked %d values", 3));
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("check_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("checked 3 values"), std::string::npos) << what;
  }
}

TEST(Invariant, MessageIsNotEvaluatedOnSuccess) {
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return std::string("never needed");
  };
  ULSOCKS_INVARIANT(true, expensive());
  EXPECT_EQ(evaluations, 0);
}

TEST(Invariant, MsgfFormatsLikePrintf) {
  EXPECT_EQ(check::msgf("a=%d b=%s", 7, "x"), "a=7 b=x");
}

// ---------------------------------------------------------------------------
// Checker registry
// ---------------------------------------------------------------------------

TEST(CheckRegistry, RunsCheckersInRegistrationOrder) {
  Registry reg;
  std::vector<int> order;
  reg.add("first", [&] { order.push_back(1); });
  reg.add("second", [&] { order.push_back(2); });
  reg.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(CheckRegistry, ViolationNamesTheFailingChecker) {
  Registry reg;
  reg.add("emp.credits", [] {
    ULSOCKS_INVARIANT(false, "credit count corrupted");
  });
  try {
    reg.run_all();
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("emp.credits"), std::string::npos) << what;
    EXPECT_NE(what.find("credit count corrupted"), std::string::npos) << what;
  }
}

TEST(CheckRegistry, ScopedCheckerDeregistersOnDestruction) {
  Registry reg;
  {
    ScopedChecker sc(reg, "temp", [] {});
    EXPECT_EQ(reg.size(), 1u);
  }
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_NO_THROW(reg.run_all());
}

// ---------------------------------------------------------------------------
// Engine causality invariants (always on, every build type)
// ---------------------------------------------------------------------------

TEST(EngineInvariants, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule_at(100, [&eng] {
    // now() == 100 inside this event; 50 is in the past.
    eng.schedule_at(50, [] {});
  });
  try {
    eng.run();
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("schedule_at in the past"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineInvariants, SchedulingAtNowIsAllowed) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    eng.schedule_at(10, [&] { ++fired; });  // same instant: fine
  });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineInvariants, CheckIntervalSweepsRegisteredCheckers) {
  Engine eng;
  eng.set_check_interval(1);
  int sweeps = 0;
  ScopedChecker sc(eng.checks(), "counter", [&] { ++sweeps; });
  for (int i = 0; i < 5; ++i) eng.schedule_at(10 * (i + 1), [] {});
  eng.run();
  EXPECT_EQ(sweeps, 5);
}

TEST(EngineInvariants, CheckIntervalZeroDisablesSweeping) {
  Engine eng;
  eng.set_check_interval(0);
  int sweeps = 0;
  ScopedChecker sc(eng.checks(), "counter", [&] { ++sweeps; });
  eng.schedule_at(10, [] {});
  eng.run();
  EXPECT_EQ(sweeps, 0);
}

// ---------------------------------------------------------------------------
// Switch invariants
// ---------------------------------------------------------------------------

TEST(SwitchInvariants, ConnectToOutOfRangePortThrows) {
  Engine eng;
  sim::CostModel model = sim::calibrated_cost_model();
  net::EthernetSwitch sw(eng, model.wire, 2);
  net::Link link(eng, model.wire);
  EXPECT_THROW(sw.connect(5, link, net::Link::Side::kA), InvariantError);
}

// ---------------------------------------------------------------------------
// Cluster invariants: frame conservation on every cluster, serial or sharded
// ---------------------------------------------------------------------------

// A frame handed straight to a NIC, as a link that skipped its accounting
// would deliver it, is an arrival no link carried: the cluster's
// conservation checker on the fabric engine catches it within one sweep.
TEST(ClusterInvariants, NicFrameItsLinkNeverCarriedTripsConservation) {
  Engine eng;
  eng.set_check_interval(1);
  Cluster cluster(eng, sim::calibrated_cost_model(), 2);
  eng.schedule_at(1'000, [&cluster] {
    // Addressed to host 0, so host 1's MAC filter counts and drops it.
    cluster.node(1).nic.frame_arrived(net::make_frame_ptr(
        net::MacAddress::for_host(0), net::MacAddress::for_host(0),
        net::EtherType::kEmp, std::vector<std::uint8_t>(46)));
  });
  try {
    eng.run();
    FAIL() << "expected InvariantError from the conservation checker";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("net.frame_conservation"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("host 1 NIC saw 1 frames"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(eng.now(), 1'000u);
}

// A sharded cluster's checkers go with it.  A group that runs on after its
// cluster is destroyed sweeps only live state (a checker left behind would
// read the dead cluster, which ASan reports).
TEST(ClusterInvariants, ShardedClusterDestroyedBeforeItsGroupLeavesNoChecker) {
  const sim::CostModel model = sim::calibrated_cost_model();
  sim::ShardGroup group(3, net::shard_lookahead(model.wire));
  {
    Cluster cluster(group, model, 4);
    EXPECT_GT(group.shard(0).checks().size(), 0u);
  }
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group.shard(i).checks().size(), 0u) << "shard " << i;
    group.shard(i).set_check_interval(1);
    group.shard(i).schedule_at(1'000 * (i + 1), [] {});
  }
  group.run();
  EXPECT_EQ(group.events_executed(), 3u);
  EXPECT_EQ(group.now(), 3'000u);
}

// ---------------------------------------------------------------------------
// End-to-end: deliberately corrupted protocol state is caught
// ---------------------------------------------------------------------------

// A rogue peer grants credits the receiver never consumed.  The substrate's
// credit-conservation checker (§6.1: send_credits can never exceed the
// negotiated window) must catch it within one checker sweep.
TEST(ProtocolCorruption, ForgedCreditAckTripsConservationChecker) {
  Engine eng;
  eng.set_check_interval(1);
  Cluster cluster(eng, sim::calibrated_cost_model(), 2);

  auto server = [](Cluster& c) -> Task<void> {
    auto& api = c.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 9100});
    co_await api.listen(ls, 2);
    int sd = co_await api.accept(ls, nullptr);
    // Forge a credit ack far beyond anything the client could be owed.
    // The client's connect() allocates the first local tag triple, so its
    // control channel is base 16 + 1 = 17.
    sockets::CtrlMsg forged;
    forged.type = sockets::CtrlType::kCreditAck;
    forged.a = 1000;
    auto h = co_await c.node(1).emp.post_send(0, 17,
                                              sockets::encode_ctrl(forged));
    (void)h;
    (void)sd;
  };
  auto client = [](Cluster& c) -> Task<void> {
    auto& api = c.node(0).socks;
    int sd = co_await api.socket();
    co_await api.connect(sd, SockAddr{1, 9100});
    // Keep reading: the pump drains the forged ack and applies it.
    std::vector<std::uint8_t> buf(64);
    (void)co_await api.read(sd, buf);
  };
  eng.spawn(server(cluster));
  eng.spawn(client(cluster));

  try {
    eng.run();
    FAIL() << "expected InvariantError from the credit checker";
  } catch (const InvariantError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("sockets.substrate"), std::string::npos) << what;
    EXPECT_NE(what.find("credit conservation"), std::string::npos) << what;
  }
}

// The substrate's sweep walks live sockets only.  After 200 connections
// came and went on the pair, a forged credit ack on the one live
// connection must still be caught.
TEST(ProtocolCorruption, ForgedCreditAckTripsCheckerAfterConnectionChurn) {
  constexpr int kCycles = 200;
  Engine eng;
  eng.set_check_interval(1);
  Cluster cluster(eng, sim::calibrated_cost_model(), 2);

  auto server = [](Cluster& c) -> Task<void> {
    auto& api = c.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 9102});
    co_await api.listen(ls, 2);
    for (int i = 0; i < kCycles; ++i) {
      int sd = co_await api.accept(ls, nullptr);
      co_await api.close(sd);
    }
    int sd = co_await api.accept(ls, nullptr);
    (void)sd;
    // Each connect() takes the client's next fresh local tag triple from
    // base 16, so the live connection's control channel is one above base
    // 16 + 3 * kCycles.
    sockets::CtrlMsg forged;
    forged.type = sockets::CtrlType::kCreditAck;
    forged.a = 1000;
    auto h = co_await c.node(1).emp.post_send(
        0, static_cast<emp::Tag>(16 + 3 * kCycles + 1),
        sockets::encode_ctrl(forged));
    (void)h;
  };
  auto client = [](Cluster& c) -> Task<void> {
    auto& api = c.node(0).socks;
    for (int i = 0; i < kCycles; ++i) {
      int sd = co_await api.socket();
      co_await api.connect(sd, SockAddr{1, 9102});
      co_await api.close(sd);
    }
    int sd = co_await api.socket();
    co_await api.connect(sd, SockAddr{1, 9102});
    std::vector<std::uint8_t> buf(64);
    (void)co_await api.read(sd, buf);
  };
  eng.spawn(server(cluster));
  eng.spawn(client(cluster));

  try {
    eng.run();
    FAIL() << "expected InvariantError from the credit checker";
  } catch (const InvariantError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("sockets.substrate"), std::string::npos) << what;
    EXPECT_NE(what.find("credit conservation"), std::string::npos) << what;
  }
}

// A rogue peer grants a piggy-backed credit return on a data message the
// receiver never paid a credit for.  Same conservation law, different
// protocol path (§6.1 piggy-backed returns ride the data header).
TEST(ProtocolCorruption, ForgedPiggybackCreditTripsChecker) {
  Engine eng;
  eng.set_check_interval(1);
  Cluster cluster(eng, sim::calibrated_cost_model(), 2);

  auto server = [](Cluster& c) -> Task<void> {
    auto& api = c.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 9101});
    co_await api.listen(ls, 2);
    int sd = co_await api.accept(ls, nullptr);
    (void)sd;
    // Forge an eager data message to the client's data tag (base 16)
    // whose header returns 500 credits that were never spent.
    std::vector<std::uint8_t> msg(sockets::kDataHeaderBytes + 8, 0);
    sockets::DataHeader h;
    h.piggyback_credits = 500;
    sockets::encode_data_header(h, msg.data());
    auto handle = co_await c.node(1).emp.post_send(0, 16, msg);
    (void)handle;
  };
  auto client = [](Cluster& c) -> Task<void> {
    auto& api = c.node(0).socks;
    int sd = co_await api.socket();
    co_await api.connect(sd, SockAddr{1, 9101});
    std::vector<std::uint8_t> buf(64);
    (void)co_await api.read(sd, buf);
  };
  eng.spawn(server(cluster));
  eng.spawn(client(cluster));

  try {
    eng.run();
    FAIL() << "expected InvariantError from the credit checker";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("credit conservation"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ulsocks
