// Unit tests for links, the NIC's MAC pacing, the learning switch and
// topologies.
#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>
#include <vector>

#include "check/invariant.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/payload_slice.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "nic/nic_device.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace ulsocks::net {
namespace {

using sim::Engine;
using sim::Time;

sim::WireCosts test_wire() {
  sim::WireCosts w;
  w.link_bps = 1'000'000'000ull;
  w.propagation_ns = 300;
  w.switch_latency_ns = 2'200;
  return w;
}

FramePtr make_frame(std::uint32_t from, std::uint32_t to,
                    std::size_t payload_size, std::uint8_t fill = 0xab) {
  return make_frame_ptr(
      MacAddress::for_host(to), MacAddress::for_host(from), EtherType::kEmp,
      std::vector<std::uint8_t>(payload_size, fill));
}

/// Records every delivered frame with its arrival time.
struct Recorder final : FrameSink {
  std::vector<std::pair<Time, FramePtr>> frames;
  Engine* eng = nullptr;
  void frame_arrived(FramePtr f) override {
    frames.emplace_back(eng->now(), std::move(f));
  }
};

TEST(Mac, ForHostIsUniqueAndStable) {
  EXPECT_EQ(MacAddress::for_host(1), MacAddress::for_host(1));
  EXPECT_NE(MacAddress::for_host(1), MacAddress::for_host(2));
  EXPECT_FALSE(MacAddress::for_host(1).is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_EQ(MacAddress::for_host(0x01020304).to_string(),
            "02:00:01:02:03:04");
}

TEST(Frame, WireBytesIncludesOverheadAndPadding) {
  Frame small(MacAddress::for_host(1), MacAddress::for_host(2),
              EtherType::kEmp, std::vector<std::uint8_t>(4));
  // 8 preamble + 14 header + 46 padded + 4 fcs + 12 ifg = 84.
  EXPECT_EQ(small.wire_bytes(), 84u);
  Frame full(MacAddress::for_host(1), MacAddress::for_host(2), EtherType::kEmp,
             std::vector<std::uint8_t>(1500));
  EXPECT_EQ(full.wire_bytes(), 1538u);
}

TEST(Link, DeliversFrameAfterSerializationAndPropagation) {
  Engine eng;
  auto wire = test_wire();
  Link link(eng, wire);
  Recorder rx;
  rx.eng = &eng;
  link.attach(Link::Side::kB, &rx);

  auto f = make_frame(0, 1, 1500);
  std::uint64_t wire_bytes = f->wire_bytes();
  link.transmit(Link::Side::kA, std::move(f));
  eng.run();

  ASSERT_EQ(rx.frames.size(), 1u);
  Time expected = sim::serialization_ns(wire_bytes, wire.link_bps) + 300;
  EXPECT_EQ(rx.frames[0].first, expected);
  EXPECT_EQ(rx.frames[0].second->payload.size(), 1500u);
}

TEST(Link, PayloadBytesSurviveTransit) {
  Engine eng;
  Link link(eng, test_wire());
  Recorder rx;
  rx.eng = &eng;
  link.attach(Link::Side::kB, &rx);

  std::vector<std::uint8_t> body(257);
  std::iota(body.begin(), body.end(), 0);
  link.transmit(Link::Side::kA,
                make_frame_ptr(MacAddress::for_host(1),
                               MacAddress::for_host(0), EtherType::kEmp,
                               body));
  eng.run();
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].second->payload, body);
}

// The sender paces the wire: frames queued at the NIC's MAC together leave
// one serialization apart and arrive in order.
TEST(NicMac, BackToBackFramesAreSerializedFifo) {
  Engine eng;
  sim::CostModel model;
  model.wire = test_wire();
  Link link(eng, model.wire);
  Recorder rx;
  rx.eng = &eng;
  link.attach(Link::Side::kB, &rx);
  nic::NicDevice nic(eng, model, link, Link::Side::kA,
                     MacAddress::for_host(0));

  for (std::uint8_t i = 0; i < 3; ++i) {
    nic.mac_send(make_frame(0, 1, 1500, i));
  }
  eng.run();

  ASSERT_EQ(rx.frames.size(), 3u);
  sim::Duration ser = sim::serialization_ns(1538, model.wire.link_bps);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rx.frames[i].first, ser * (i + 1) + model.wire.propagation_ns);
    EXPECT_EQ(rx.frames[i].second->payload[0], i);
  }
}

TEST(Link, FullDuplexDirectionsDoNotInterfere) {
  Engine eng;
  auto wire = test_wire();
  Link link(eng, wire);
  Recorder rx_a, rx_b;
  rx_a.eng = rx_b.eng = &eng;
  link.attach(Link::Side::kA, &rx_a);
  link.attach(Link::Side::kB, &rx_b);

  link.transmit(Link::Side::kA, make_frame(0, 1, 1500));
  link.transmit(Link::Side::kB, make_frame(1, 0, 1500));
  eng.run();

  ASSERT_EQ(rx_a.frames.size(), 1u);
  ASSERT_EQ(rx_b.frames.size(), 1u);
  // Both arrive at the single-frame time: no shared-medium contention.
  EXPECT_EQ(rx_a.frames[0].first, rx_b.frames[0].first);
}

TEST(Link, DropNthPolicyDropsExactly) {
  Engine eng;
  Link link(eng, test_wire());
  Recorder rx;
  rx.eng = &eng;
  link.attach(Link::Side::kB, &rx);
  link.set_drop_policy(Link::Side::kA, drop_nth_policy({2, 4}));

  for (std::uint8_t i = 0; i < 5; ++i) {
    link.transmit(Link::Side::kA, make_frame(0, 1, 100, i));
  }
  eng.run();

  ASSERT_EQ(rx.frames.size(), 3u);
  EXPECT_EQ(rx.frames[0].second->payload[0], 0);
  EXPECT_EQ(rx.frames[1].second->payload[0], 2);
  EXPECT_EQ(rx.frames[2].second->payload[0], 4);
  EXPECT_EQ(link.frames_dropped(Link::Side::kA), 2u);
  EXPECT_EQ(link.frames_sent(Link::Side::kA), 5u);
}

TEST(Link, RandomDropPolicyIsSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Engine eng(seed);
    Link link(eng, test_wire());
    Recorder rx;
    rx.eng = &eng;
    link.attach(Link::Side::kB, &rx);
    link.set_drop_policy(Link::Side::kA,
                         random_drop_policy(eng.rng(), 0.3));
    for (int i = 0; i < 100; ++i) {
      link.transmit(Link::Side::kA, make_frame(0, 1, 64));
    }
    eng.run();
    return rx.frames.size();
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_GT(run_once(9), 40u);
  EXPECT_LT(run_once(9), 95u);
}

TEST(Link, CrossShardTransmitHandsOverTheSameFrame) {
  sim::ShardGroup group(2, shard_lookahead(test_wire()));
  Link link(group.shard(0), test_wire());
  Recorder rx;
  rx.eng = &group.shard(1);
  link.attach(Link::Side::kA, nullptr, group.shard(0));
  link.attach(Link::Side::kB, &rx, group.shard(1));

  FramePool frames;
  SlicePool slices;
  const std::vector<std::uint8_t> body(1000, 0x33);
  const std::uint8_t* sent = nullptr;
  std::uint64_t outstanding_after_transmit = 0;
  // The transmit runs as an event on the source shard, as every link
  // transmit does inside a run.
  group.shard(0).schedule_at(0, [&] {
    FramePtr f = frames.acquire();
    f->body = slices.copy_in(body);
    sent = f->body.data();
    link.transmit(Link::Side::kA, std::move(f));
    outstanding_after_transmit = frames.outstanding();
  });
  group.run();

  EXPECT_EQ(outstanding_after_transmit, 1u)
      << "the crossing frame must stay charged to its own pool";
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].second->body.data(), sent)
      << "the sink must receive the sent slice, not a copy";
  rx.frames.clear();
  EXPECT_EQ(frames.outstanding(), 0u)
      << "the frame returns to its pool on the shard that drops it";
}

// A link between engines that share no shard group has no way across:
// the transmit fails an invariant instead of dereferencing a missing group.
TEST(Link, TransmitBetweenEnginesOfNoCommonGroupThrows) {
  Engine plain;
  sim::ShardGroup one(1, shard_lookahead(test_wire()));
  sim::ShardGroup other(1, shard_lookahead(test_wire()));
  Engine* const far_sides[] = {&plain, &other.shard(0)};
  for (Engine* far : far_sides) {
    Link link(one.shard(0), test_wire());
    Recorder rx;
    rx.eng = far;
    link.attach(Link::Side::kB, &rx, *far);
    EXPECT_THROW(link.transmit(Link::Side::kA, make_frame(0, 1, 64)),
                 check::InvariantError);
    EXPECT_TRUE(rx.frames.empty());
  }
}

class SwitchTest : public ::testing::Test {
 protected:
  // Three hosts on a star.
  SwitchTest() : net_(eng_, test_wire(), 3) {
    for (int h = 0; h < 3; ++h) {
      rx_[h].eng = &eng_;
      net_.host_link(static_cast<std::size_t>(h))
          .attach(StarNetwork::kHostSide, &rx_[h]);
    }
  }

  void send(std::uint32_t from, std::uint32_t to, std::size_t size) {
    net_.host_link(from).transmit(
        Link::Side::kA == StarNetwork::kHostSide ? Link::Side::kA
                                                 : Link::Side::kB,
        make_frame(from, to, size));
  }

  Engine eng_;
  StarNetwork net_;
  Recorder rx_[3];
};

TEST_F(SwitchTest, UnknownDestinationIsFlooded) {
  send(0, 1, 100);
  eng_.run();
  // Host 1's MAC was never learned, so hosts 1 and 2 both get a copy.
  EXPECT_EQ(rx_[1].frames.size(), 1u);
  EXPECT_EQ(rx_[2].frames.size(), 1u);
  EXPECT_EQ(net_.fabric().frames_flooded(), 1u);
}

TEST_F(SwitchTest, LearnedDestinationIsUnicast) {
  send(1, 0, 64);  // teaches the switch where host 1 lives
  send(0, 1, 100);
  eng_.run();
  // After learning, the second frame goes only to host 1.
  EXPECT_EQ(rx_[1].frames.size(), 1u);
  EXPECT_EQ(rx_[2].frames.size(), 0u);
  EXPECT_EQ(net_.fabric().learned_macs(), 2u);
}

TEST_F(SwitchTest, StoreAndForwardTiming) {
  send(1, 0, 64);  // learn
  eng_.run();
  Time t0 = eng_.now();
  send(0, 1, 1500);
  eng_.run();
  ASSERT_EQ(rx_[1].frames.size(), 1u);
  auto wire = test_wire();
  sim::Duration ser = sim::serialization_ns(1538, wire.link_bps);
  Time expected = t0 + ser + wire.propagation_ns + wire.switch_latency_ns +
                  ser + wire.propagation_ns;
  EXPECT_EQ(rx_[1].frames[0].first, expected);
}

// A source address that shows up on a new port takes its table entry
// there, and the port it left forgets its learn cache: when the host moves
// back, that port learns it again.  Unicasts follow each move, whatever
// route the sender's port had memoised, and the table never grows a
// second entry for the host.
TEST_F(SwitchTest, MovedSourceIsRelearnedOnItsNewPort) {
  send(1, 0, 64);  // host 1 learned on port 1
  send(0, 1, 64);  // host 0 learned on port 0; port 0 memoises 1 -> 1
  eng_.run();
  ASSERT_EQ(net_.fabric().learned_macs(), 2u);

  auto unicast_lands_on = [this](std::size_t port) {
    const std::size_t before[3] = {rx_[0].frames.size(), rx_[1].frames.size(),
                                   rx_[2].frames.size()};
    send(0, 1, 100);
    eng_.run();
    for (std::size_t p = 1; p < 3; ++p) {
      EXPECT_EQ(rx_[p].frames.size() - before[p], p == port ? 1u : 0u)
          << "port " << p;
    }
  };
  unicast_lands_on(1);

  // Host 1's address now speaks from port 2.
  net_.host_link(2).transmit(StarNetwork::kHostSide, make_frame(1, 0, 64));
  eng_.run();
  unicast_lands_on(2);
  EXPECT_EQ(net_.fabric().learned_macs(), 2u);

  // And back to port 1, whose learn cache must not still claim host 1.
  send(1, 0, 64);
  eng_.run();
  unicast_lands_on(1);
  EXPECT_EQ(net_.fabric().learned_macs(), 2u);
  EXPECT_EQ(net_.fabric().frames_flooded(), 0u);
}

TEST_F(SwitchTest, BroadcastReachesAllOtherPorts) {
  net_.host_link(0).transmit(
      StarNetwork::kHostSide,
      make_frame_ptr(MacAddress::broadcast(), MacAddress::for_host(0),
                     EtherType::kEmp, std::vector<std::uint8_t>(10)));
  eng_.run();
  EXPECT_EQ(rx_[0].frames.size(), 0u);
  EXPECT_EQ(rx_[1].frames.size(), 1u);
  EXPECT_EQ(rx_[2].frames.size(), 1u);
}

TEST_F(SwitchTest, EgressOverloadDropsTail) {
  // Hosts 0 and 2 blast host 1 simultaneously; the egress port drains at
  // 1 Gb/s while 2 Gb/s arrives, so the port buffer must eventually drop.
  send(1, 0, 64);  // learn host 1
  eng_.run();
  const int kFrames = 400;  // 400 * 1538B ~ 615 KB >> 256 KB buffer
  // Each host sends at line rate: one frame per serialization, as its
  // MAC queue would pace them.
  const sim::Duration ser = sim::serialization_ns(1538, test_wire().link_bps);
  for (int i = 0; i < kFrames; ++i) {
    eng_.schedule_after(ser * static_cast<sim::Duration>(i), [this] {
      send(0, 1, 1500);
      send(2, 1, 1500);
    });
  }
  eng_.run();
  EXPECT_GT(net_.fabric().frames_dropped(), 0u);
  EXPECT_LT(rx_[1].frames.size(), static_cast<std::size_t>(2 * kFrames));
  EXPECT_GT(rx_[1].frames.size(), static_cast<std::size_t>(kFrames / 2));
}

// ---------------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------------

// Frames move only as FramePtr.
static_assert(!std::is_copy_constructible_v<Frame>);

TEST(FramePool, RecyclesStorageAndClearsStaleState) {
  FramePool pool;
  SlicePool slices;
  Frame* first;
  std::size_t warm_capacity;
  {
    FramePtr f = pool.acquire();
    first = f.get();
    f->dst = MacAddress::for_host(3);
    f->src = MacAddress::for_host(4);
    f->type = EtherType::kIpv4;
    f->payload.assign(1500, 0xab);
    f->body = slices.copy_in(std::vector<std::uint8_t>(64, 0xcd));
    warm_capacity = f->payload.capacity();
  }  // deleter returns the frame to the pool
  EXPECT_EQ(pool.outstanding(), 0u);

  FramePtr g = pool.acquire();
  ASSERT_EQ(g.get(), first) << "free-list acquire must reuse the storage";
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.recycled(), 1u);
  // No stale bytes may bleed into the frame's next life...
  EXPECT_EQ(g->payload.size(), 0u);
  EXPECT_EQ(g->dst, MacAddress{});
  EXPECT_EQ(g->src, MacAddress{});
  EXPECT_EQ(g->type, EtherType::kEmp);
  EXPECT_TRUE(g->body.empty());
  EXPECT_EQ(g->payload_bytes(), 0u);
  EXPECT_EQ(slices.outstanding(), 0u)
      << "acquire must drop the previous life's body";
  // ... but the payload capacity stays warm — the point of the pool.
  EXPECT_GE(g->payload.capacity(), warm_capacity);
}

TEST(FramePool, GivingAFrameBackDropsItsBody) {
  // One 64 KiB send pinned once and sliced into 1,480-byte fragments, as
  // EMP frames a message.  Once every frame is back on the pool's free
  // list, none may still hold the sender's pinned buffer.
  FramePool pool;
  SlicePool slices;
  constexpr std::size_t kFragment = 1480;
  PayloadSlice pinned =
      slices.copy_in(std::vector<std::uint8_t>(65'536, 0x3c));
  std::vector<FramePtr> frames;
  for (std::size_t i = 0; i < 44; ++i) {
    FramePtr f = pool.acquire();
    f->body = pinned.subslice(i * kFragment, kFragment);
    frames.push_back(std::move(f));
  }
  pinned = PayloadSlice{};
  EXPECT_EQ(slices.outstanding(), 1u);
  frames.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(slices.outstanding(), 0u)
      << "an idle pooled frame still holds its sender's pinned buffer";
}

TEST(FramePool, HighWaterMarkReportsPeakThroughGauge) {
  FramePool pool;
  obs::Registry reg;
  obs::Gauge& hwm = reg.gauge("h0/nic/frame_pool_hwm");
  pool.bind_hwm_gauge(hwm);

  std::vector<FramePtr> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.high_water_mark(), 3u);
  EXPECT_EQ(hwm.value(), 3);

  held.clear();
  FramePtr f = pool.acquire();  // peak was 3; one outstanding now
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(pool.high_water_mark(), 3u);
  EXPECT_EQ(hwm.value(), 3);
  EXPECT_EQ(pool.recycled(), 1u);  // served from the free list
}

TEST(FramePool, FramesSafelyOutliveTheirPool) {
  // Clusters destruct before the engine, so queued events may still hold
  // pooled frames when the pool dies; the deleter must then free normally.
  FramePtr straggler;
  {
    FramePool pool;
    straggler = pool.acquire();
    straggler->payload.assign(64, 0x5a);
  }  // pool destroyed while the frame is outstanding
  EXPECT_EQ(straggler->payload.size(), 64u);
  straggler.reset();  // must heap-free, not push to a dead pool (ASan gate)
}

TEST(FramePool, CopiesAreIndependentOfPoolMembership) {
  FramePool pool;
  FramePtr original = pool.acquire();
  original->payload.assign(100, 0x11);
  FramePtr copy = pool.acquire_copy(*original);
  EXPECT_EQ(copy->payload, original->payload);
  copy->payload[0] = 0x22;
  EXPECT_EQ(original->payload[0], 0x11);
}

// ---------------------------------------------------------------------------
// PayloadSlice / SlicePool
// ---------------------------------------------------------------------------

TEST(SlicePool, RecyclesStorageAndNeverBleedsStaleBytes) {
  SlicePool pool;
  std::size_t warm_capacity;
  {
    std::vector<std::uint8_t> big(4096, 0xee);
    PayloadSlice s = pool.copy_in(big);
    EXPECT_EQ(s.size(), 4096u);
    warm_capacity = 4096;
  }  // last ref dropped: storage returns to the pool
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.created(), 1u);

  std::vector<std::uint8_t> small{1, 2, 3};
  PayloadSlice t = pool.copy_in(small);
  EXPECT_EQ(pool.recycled(), 1u) << "second acquire must reuse the buffer";
  // The recycled buffer is filled exactly with the new bytes: no stale 0xee
  // from the previous life is reachable through the slice.
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.data()[0], 1);
  EXPECT_EQ(t.data()[2], 3);
  (void)warm_capacity;
}

TEST(SlicePool, GatherConcatenatesHeaderAndBody) {
  SlicePool pool;
  std::vector<std::uint8_t> head{0xaa, 0xbb};
  std::vector<std::uint8_t> body{1, 2, 3, 4};
  PayloadSlice s = pool.gather(head, body);
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s.data()[0], 0xaa);
  EXPECT_EQ(s.data()[1], 0xbb);
  EXPECT_EQ(s.data()[2], 1);
  EXPECT_EQ(s.data()[5], 4);
}

TEST(SlicePool, RefcountTracksCopiesAndSubslices) {
  SlicePool pool;
  std::vector<std::uint8_t> bytes(100, 0x7f);
  PayloadSlice a = pool.copy_in(bytes);
  EXPECT_EQ(a.use_count(), 1u);
  PayloadSlice b = a;                    // copy: refcount bump
  PayloadSlice c = a.subslice(10, 20);   // view: refcount bump, no copy
  EXPECT_EQ(a.use_count(), 3u);
  EXPECT_EQ(c.size(), 20u);
  EXPECT_EQ(c.data(), a.data() + 10) << "subslice views the same buffer";
  b = PayloadSlice{};
  c = PayloadSlice{};
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(pool.outstanding(), 1u) << "one buffer, many views";
}

TEST(SlicePool, HighWaterMarkReportsPeakThroughGauge) {
  SlicePool pool;
  obs::Registry reg;
  obs::Gauge& hwm = reg.gauge("h0/nic/slice_pool_hwm");
  pool.bind_hwm_gauge(hwm);

  std::vector<std::uint8_t> bytes(16);
  std::vector<PayloadSlice> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.copy_in(bytes));
  EXPECT_EQ(pool.high_water_mark(), 3u);
  EXPECT_EQ(hwm.value(), 3);

  held.clear();
  PayloadSlice s = pool.copy_in(bytes);  // peak was 3; one outstanding now
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(pool.high_water_mark(), 3u);
  EXPECT_EQ(hwm.value(), 3);
  EXPECT_GE(pool.recycled(), 1u);
}

TEST(SlicePool, SlicesSafelyOutliveTheirPool) {
  // Queued events hold frames holding slices when a Cluster destructs; the
  // release path must heap-free instead of pushing to a dead pool.
  PayloadSlice straggler;
  {
    SlicePool pool;
    std::vector<std::uint8_t> bytes(64, 0x5a);
    straggler = pool.copy_in(bytes);
  }  // pool destroyed while the slice is outstanding
  ASSERT_EQ(straggler.size(), 64u);
  EXPECT_EQ(straggler.data()[63], 0x5a);
  straggler = PayloadSlice{};  // must not touch the dead pool (ASan gate)
}

TEST(Frame, PayloadBytesAndCopyPayloadSpanInlineAndSlices) {
  SlicePool pool;
  Frame f(MacAddress::for_host(1), MacAddress::for_host(2), EtherType::kEmp,
          std::vector<std::uint8_t>{10, 11, 12});  // inline header region
  std::vector<std::uint8_t> body{20, 21, 22, 23};
  f.body = pool.copy_in(body);

  EXPECT_EQ(f.payload_bytes(), 7u);
  // Gather across the inline/body boundary at an offset, into a span that
  // ends inside the body.
  std::vector<std::uint8_t> out(4);
  EXPECT_EQ(f.copy_payload(2, out), 4u);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{12, 20, 21, 22}));
  // An offset past the inline region reads the body alone.
  std::vector<std::uint8_t> tail(2);
  EXPECT_EQ(f.copy_payload(5, tail), 2u);
  EXPECT_EQ(tail, (std::vector<std::uint8_t>{22, 23}));
}

TEST(FramePool, AcquireCopySharesSlicesInsteadOfDeepCopying) {
  FramePool frames;
  SlicePool slices;
  FramePtr original = frames.acquire();
  original->payload.assign(20, 0x42);
  std::vector<std::uint8_t> body(1000, 0x33);
  original->body = slices.copy_in(body);

  FramePtr copy = frames.acquire_copy(*original);
  EXPECT_EQ(copy->body.data(), original->body.data())
      << "flood copies must share the payload buffer, not duplicate it";
  EXPECT_EQ(original->body.use_count(), 2u);
  EXPECT_EQ(slices.outstanding(), 1u);
  EXPECT_EQ(copy->payload_bytes(), original->payload_bytes());
}

}  // namespace
}  // namespace ulsocks::net
