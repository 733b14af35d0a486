// Unit and property tests for the EMP protocol: wire format, tag matching,
// reliability under frame loss, the unexpected queue, and resource
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "emp/endpoint.hpp"
#include "emp/wire.hpp"
#include "net/topology.hpp"
#include "nic/nic_device.hpp"
#include "obs/metrics.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ulsocks::emp {
namespace {

using sim::Engine;
using sim::Task;

// A forged wire payload: the header with `fragment` appended inline.  Real
// data frames carry the fragment in the frame's body; the receive path
// reads both alike.
std::vector<std::uint8_t> forge_payload(
    const EmpHeader& h, std::span<const std::uint8_t> fragment) {
  std::vector<std::uint8_t> out;
  encode_header_into(h, out);
  out.insert(out.end(), fragment.begin(), fragment.end());
  return out;
}

TEST(Wire, HeaderRoundTripData) {
  EmpHeader h;
  h.kind = FrameKind::kData;
  h.src_node = 3;
  h.dst_node = 1;
  h.tag = 0xbeef;
  h.msg_id = 123456;
  h.frame_index = 7;
  h.total_frames = 44;
  h.msg_bytes = 65000;
  std::vector<std::uint8_t> frag(100);
  std::iota(frag.begin(), frag.end(), 0);

  auto bytes = forge_payload(h, frag);
  EXPECT_EQ(bytes.size(), kHeaderBytes + frag.size());
  auto decoded = decode_header(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(Wire, HeaderRoundTripAck) {
  EmpHeader h;
  h.kind = FrameKind::kAck;
  h.src_node = 2;
  h.dst_node = 0;
  h.msg_id = 99;
  h.ack_value = 12;
  std::vector<std::uint8_t> bytes;
  encode_header_into(h, bytes);
  EXPECT_EQ(bytes.size(), kHeaderBytes);
  auto decoded = decode_header(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, FrameKind::kAck);
  EXPECT_EQ(decoded->ack_value, 12u);
}

// Golden bytes: every field little-endian at its fixed offset.  A codec
// change that moves any byte fails here, not in a simulated digest.
TEST(Wire, DataHeaderBytesArePinned) {
  EmpHeader h;
  h.kind = FrameKind::kData;
  h.src_node = 0x0102;
  h.dst_node = 0x0304;
  h.tag = 0xbeef;
  h.msg_id = 0x0a0b0c0d;
  h.frame_index = 0x0011;
  h.total_frames = 0x0022;
  h.msg_bytes = 0x00fedcba;
  std::vector<std::uint8_t> bytes;
  encode_header_into(h, bytes);
  const std::vector<std::uint8_t> golden{
      0x01, 0x00, 0x02, 0x01, 0x04, 0x03, 0xef, 0xbe, 0x0d, 0x0c,
      0x0b, 0x0a, 0x11, 0x00, 0x22, 0x00, 0xba, 0xdc, 0xfe, 0x00};
  EXPECT_EQ(bytes, golden);
}

TEST(Wire, AckHeaderBytesArePinned) {
  EmpHeader h;
  h.kind = FrameKind::kAck;
  h.src_node = 2;
  h.dst_node = 0;
  h.tag = 0x1234;
  h.msg_id = 99;
  h.msg_bytes = 0x7777;  // not on the wire: acks carry ack_value there
  h.ack_value = 0x01020304;
  std::vector<std::uint8_t> bytes;
  encode_header_into(h, bytes);
  const std::vector<std::uint8_t> golden{
      0x02, 0x00, 0x02, 0x00, 0x00, 0x00, 0x34, 0x12, 0x63, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(bytes, golden);
}

TEST(Wire, RejectsMalformed) {
  EXPECT_FALSE(decode_header(std::vector<std::uint8_t>(5)).has_value());
  std::vector<std::uint8_t> junk(kHeaderBytes, 0xff);
  EXPECT_FALSE(decode_header(junk).has_value());  // kind 0xff invalid
}

TEST(Wire, FragmentationMath) {
  EXPECT_EQ(max_fragment_bytes(1500), 1480u);
  EXPECT_EQ(frames_for(0, 1500), 1u);
  EXPECT_EQ(frames_for(1, 1500), 1u);
  EXPECT_EQ(frames_for(1480, 1500), 1u);
  EXPECT_EQ(frames_for(1481, 1500), 2u);
  EXPECT_EQ(frames_for(65536, 1500), 45u);
}

// Fixture: two hosts on a star network with EMP endpoints.
class EmpPair : public ::testing::Test {
 protected:
  EmpPair() : model_(sim::calibrated_cost_model()), net_(eng_, model_.wire, 2) {
    for (int i = 0; i < 2; ++i) {
      cpu_[i] = std::make_unique<sim::SerialResource>(eng_);
      nic_[i] = std::make_unique<nic::NicDevice>(
          eng_, model_, net_.host_link(static_cast<std::size_t>(i)),
          net::StarNetwork::kHostSide,
          net::MacAddress::for_host(static_cast<std::uint32_t>(i)));
      ep_[i] = std::make_unique<EmpEndpoint>(eng_, model_, *nic_[i], *cpu_[i],
                                             static_cast<NodeId>(i));
    }
  }

  /// Registry counter "h<node>/emp/<name>"; a misspelled name throws.
  std::int64_t emp_counter(int node, const std::string& name) {
    return eng_.metrics().snapshot().at(
        obs::host_label(static_cast<std::uint32_t>(node), "/emp/") + name);
  }

  static std::vector<std::uint8_t> pattern(std::size_t n,
                                           std::uint8_t seed = 1) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(seed + i * 7);
    }
    return v;
  }

  Engine eng_;
  sim::CostModel model_;
  net::StarNetwork net_;
  std::unique_ptr<sim::SerialResource> cpu_[2];
  std::unique_ptr<nic::NicDevice> nic_[2];
  std::unique_ptr<EmpEndpoint> ep_[2];
};

TEST_F(EmpPair, SmallMessageDelivered) {
  auto data = pattern(4);
  std::vector<std::uint8_t> rxbuf(64, 0);
  RecvResult result{};

  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 10, rxbuf);
    result = co_await ep_[1]->wait_recv(h);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(1000);  // let the receiver pre-post
    auto h = co_await ep_[0]->post_send(1, 10, data);
    co_await ep_[0]->wait_send_acked(h);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();

  EXPECT_EQ(result.src, 0);
  EXPECT_EQ(result.tag, 10);
  EXPECT_EQ(result.bytes, 4u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), rxbuf.begin()));
  EXPECT_EQ(ep_[1]->posted_descriptor_count(), 0u);
  EXPECT_EQ(ep_[0]->pending_send_count(), 0u);
}

TEST_F(EmpPair, MultiFrameMessageReassembled) {
  auto data = pattern(10'000, 3);
  std::vector<std::uint8_t> rxbuf(10'000, 0);

  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 5, rxbuf);
    auto r = co_await ep_[1]->wait_recv(h);
    EXPECT_EQ(r.bytes, 10'000u);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    auto h = co_await ep_[0]->post_send(1, 5, data);
    co_await ep_[0]->wait_send_acked(h);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();
  EXPECT_EQ(rxbuf, data);
  // 10000 bytes / 1480 per frame = 7 frames.
  EXPECT_EQ(emp_counter(0, "data_frames_tx"), 7);
}

TEST_F(EmpPair, ZeroByteMessage) {
  std::vector<std::uint8_t> rxbuf(8, 0xcc);
  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 1, rxbuf);
    auto r = co_await ep_[1]->wait_recv(h);
    EXPECT_EQ(r.bytes, 0u);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    auto h = co_await ep_[0]->post_send(1, 1, {});
    co_await ep_[0]->wait_send_acked(h);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();
  EXPECT_EQ(rxbuf[0], 0xcc);  // untouched
}

TEST_F(EmpPair, TagMatchingSelectsCorrectDescriptor) {
  std::vector<std::uint8_t> buf_a(64), buf_b(64);
  auto msg_a = pattern(16, 11);
  auto msg_b = pattern(16, 77);

  auto receiver = [&]() -> Task<void> {
    auto ha = co_await ep_[1]->post_recv(NodeId{0}, 100, buf_a);
    auto hb = co_await ep_[1]->post_recv(NodeId{0}, 200, buf_b);
    auto rb = co_await ep_[1]->wait_recv(hb);
    auto ra = co_await ep_[1]->wait_recv(ha);
    EXPECT_EQ(ra.tag, 100);
    EXPECT_EQ(rb.tag, 200);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    // Send tag 200 first: it must land in buf_b even though buf_a was
    // posted first.
    auto h1 = co_await ep_[0]->post_send(1, 200, msg_b);
    auto h2 = co_await ep_[0]->post_send(1, 100, msg_a);
    co_await ep_[0]->wait_send_acked(h1);
    co_await ep_[0]->wait_send_acked(h2);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();
  EXPECT_TRUE(std::equal(msg_a.begin(), msg_a.end(), buf_a.begin()));
  EXPECT_TRUE(std::equal(msg_b.begin(), msg_b.end(), buf_b.begin()));
}

TEST_F(EmpPair, WildcardSourceMatchesAnySender) {
  std::vector<std::uint8_t> buf(32);
  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(std::nullopt, 9, buf);
    auto r = co_await ep_[1]->wait_recv(h);
    EXPECT_EQ(r.src, 0);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    auto h = co_await ep_[0]->post_send(1, 9, pattern(8));
    co_await ep_[0]->wait_send_acked(h);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();
}

TEST_F(EmpPair, UnmatchedMessageIsDroppedThenRetransmitted) {
  // No descriptor is posted until well after the first transmission; the
  // receiver must get the data via sender retransmission.
  auto data = pattern(100, 9);
  std::vector<std::uint8_t> buf(128);
  bool received = false;

  auto sender = [&]() -> Task<void> {
    auto h = co_await ep_[0]->post_send(1, 42, data);
    co_await ep_[0]->wait_send_acked(h);
  };
  auto receiver = [&]() -> Task<void> {
    // Wait past one retransmit timeout before posting.
    co_await eng_.delay(kRetransmitTimeout + 500'000);
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 42, buf);
    auto r = co_await ep_[1]->wait_recv(h);
    EXPECT_EQ(r.bytes, 100u);
    received = true;
  };
  eng_.spawn(sender());
  eng_.spawn(receiver());
  eng_.run();

  EXPECT_TRUE(received);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.begin()));
  EXPECT_GE(emp_counter(1, "unmatched_drops"), 1);
  EXPECT_GE(emp_counter(0, "retransmitted_frames"), 1);
}

// Nobody posts a descriptor, so the send fails after kMaxRetries + 1
// rounds of kRetransmitTimeout (510 ms simulated).
TEST_F(EmpPair, SendFailsAfterMaxRetries) {
  bool failed = false;
  sim::Time failed_at = 0;
  auto sender = [&]() -> Task<void> {
    auto h = co_await ep_[0]->post_send(1, 7, pattern(10));
    try {
      co_await ep_[0]->wait_send_acked(h);
    } catch (const EmpError&) {
      failed = true;
      failed_at = eng_.now();
    }
  };
  eng_.spawn(sender());
  eng_.run();
  EXPECT_TRUE(failed);
  EXPECT_GE(failed_at, (kMaxRetries + 1) * kRetransmitTimeout);
  EXPECT_LT(failed_at, (kMaxRetries + 2) * kRetransmitTimeout);
  EXPECT_EQ(ep_[0]->pending_send_count(), 0u);
}

class EmpLossTest : public EmpPair,
                    public ::testing::WithParamInterface<double> {};

// Property: EMP delivers every message intact, in posted-descriptor order,
// under any frame-loss rate the link throws at it.
TEST_P(EmpLossTest, ReliableUnderLoss) {
  const double loss = GetParam();
  net_.host_link(0).set_drop_policy(
      net::StarNetwork::kHostSide,
      net::random_drop_policy(eng_.rng(), loss));
  net_.host_link(1).set_drop_policy(
      net::StarNetwork::kHostSide,
      net::random_drop_policy(eng_.rng(), loss));

  constexpr int kMessages = 12;
  constexpr std::size_t kBytes = 5'000;
  std::vector<std::vector<std::uint8_t>> rx(kMessages);
  int completed = 0;

  auto receiver = [&]() -> Task<void> {
    std::vector<RecvHandle> handles;
    for (int i = 0; i < kMessages; ++i) {
      rx[static_cast<std::size_t>(i)].resize(kBytes);
      handles.push_back(co_await ep_[1]->post_recv(
          NodeId{0}, static_cast<Tag>(i), rx[static_cast<std::size_t>(i)]));
    }
    for (int i = 0; i < kMessages; ++i) {
      auto r = co_await ep_[1]->wait_recv(handles[static_cast<std::size_t>(i)]);
      EXPECT_EQ(r.bytes, kBytes);
      ++completed;
    }
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    for (int i = 0; i < kMessages; ++i) {
      auto h = co_await ep_[0]->post_send(1, static_cast<Tag>(i),
                                          pattern(kBytes,
                                                  static_cast<std::uint8_t>(i)));
      co_await ep_[0]->wait_send_acked(h);
    }
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();

  EXPECT_EQ(completed, kMessages);
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)],
              pattern(kBytes, static_cast<std::uint8_t>(i)))
        << "message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, EmpLossTest,
                         ::testing::Values(0.0, 0.01, 0.05, 0.2));

TEST_F(EmpPair, UnexpectedQueueCatchesEarlyMessage) {
  auto data = pattern(200, 5);
  std::vector<std::uint8_t> buf(256);

  auto setup = [&]() -> Task<void> {
    co_await ep_[1]->post_unexpected(4, 1024);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(50'000);
    auto h = co_await ep_[0]->post_send(1, 3, data);
    co_await ep_[0]->wait_send_acked(h);
  };
  auto receiver = [&]() -> Task<void> {
    // Post the receive long after the message arrived.
    co_await eng_.delay(500'000);
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 3, buf);
    auto r = co_await ep_[1]->wait_recv(h);
    EXPECT_EQ(r.bytes, 200u);
  };
  eng_.spawn(setup());
  eng_.spawn(sender());
  eng_.spawn(receiver());
  eng_.run();

  EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.begin()));
  EXPECT_GE(emp_counter(1, "unexpected_claims"), 1);
  EXPECT_EQ(emp_counter(1, "unmatched_drops"), 0);
  // No retransmissions needed: the unexpected queue absorbed the message.
  EXPECT_EQ(emp_counter(0, "retransmitted_frames"), 0);
  // The entry returned to the pool after delivery.
  EXPECT_EQ(ep_[1]->unexpected_free_count(), 4u);
}

TEST_F(EmpPair, UnexpectedReconciledWithDescriptorPostedWhileInFlight) {
  // The descriptor is filed between the message's first frame and its
  // completion; the ready-reconciliation path must still deliver it.
  auto data = pattern(8'000, 21);
  std::vector<std::uint8_t> buf(8'192);
  bool got = false;

  auto setup = [&]() -> Task<void> {
    co_await ep_[1]->post_unexpected(2, 16'384);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(50'000);
    auto h = co_await ep_[0]->post_send(1, 6, data);
    co_await ep_[0]->wait_send_acked(h);
  };
  auto receiver = [&]() -> Task<void> {
    // 8 KB takes ~6 frames; post mid-flight (~30 us after first frame).
    co_await eng_.delay(80'000);
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 6, buf);
    auto r = co_await ep_[1]->wait_recv(h);
    EXPECT_EQ(r.bytes, 8'000u);
    got = true;
  };
  eng_.spawn(setup());
  eng_.spawn(sender());
  eng_.spawn(receiver());
  eng_.run();
  EXPECT_TRUE(got);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.begin()));
}

// A message that finds every unexpected buffer taken recycles the oldest
// ready one, so stale control messages cannot starve live traffic.  One
// 64 B buffer and no descriptor: tag 10 lands and completes, then tag 11
// evicts it.  Only tag 11 can be claimed afterwards.
TEST_F(EmpPair, FullUnexpectedPoolEvictsOldestReadyMessage) {
  const auto first = pattern(16, 3);
  const auto second = pattern(16, 40);
  std::vector<std::uint8_t> buf(64, 0);
  std::optional<RecvResult> claimed_first;
  std::optional<RecvResult> claimed_second;

  auto setup = [&]() -> Task<void> {
    co_await ep_[1]->post_unexpected(1, 64);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(50'000);
    auto h = co_await ep_[0]->post_send(1, 10, first);
    co_await ep_[0]->wait_send_acked(h);
    h = co_await ep_[0]->post_send(1, 11, second);
    co_await ep_[0]->wait_send_acked(h);
  };
  auto receiver = [&]() -> Task<void> {
    co_await eng_.delay(1'000'000);  // both messages have landed by now
    claimed_first = co_await ep_[1]->try_claim_unexpected(NodeId{0}, 10, buf);
    claimed_second = co_await ep_[1]->try_claim_unexpected(NodeId{0}, 11, buf);
  };
  eng_.spawn(setup());
  eng_.spawn(sender());
  eng_.spawn(receiver());
  eng_.run();

  EXPECT_FALSE(claimed_first.has_value());
  ASSERT_TRUE(claimed_second.has_value());
  EXPECT_EQ(claimed_second->tag, 11);
  EXPECT_EQ(claimed_second->bytes, 16u);
  EXPECT_TRUE(std::equal(second.begin(), second.end(), buf.begin()));
  EXPECT_EQ(emp_counter(1, "unexpected_evictions"), 1);
  EXPECT_EQ(emp_counter(1, "unexpected_claims"), 2);
}

// deliver_fragment writes a fragment at frame_index x fragment size into
// the bound buffer, so a data frame whose geometry disagrees with its
// message must be dropped before it reaches host memory.  Three forged
// frames arrive at the receiving NIC: a fragment longer than its index
// allows, an index past the frame count its message size implies, and a
// self-consistent frame that disagrees with the message its first frame
// already bound (the genuine frame 1 is lost once, so the genuine message
// stays bound until the retransmit).  None may touch memory outside the
// posted span, each counts as malformed, and the genuine message still
// completes the receive with the right bytes.
TEST_F(EmpPair, ForgedFrameGeometryIsDroppedNotWritten) {
  constexpr std::size_t kGuard = 1024;
  constexpr std::uint32_t kMsg = 2000;  // two frames: 1480 + 520 bytes
  constexpr Tag kTag = 7;
  std::vector<std::uint8_t> mem(kGuard + kMsg + kGuard, 0xaa);
  const std::span<std::uint8_t> posted(mem.data() + kGuard, kMsg);
  const auto data = pattern(kMsg, 5);

  auto inject = [&](std::uint32_t msg_id, std::uint32_t msg_bytes,
                    std::uint16_t total_frames, std::uint16_t frame_index,
                    std::size_t fragment_bytes) {
    EmpHeader h;
    h.src_node = 0;
    h.dst_node = 1;
    h.tag = kTag;
    h.msg_id = msg_id;
    h.frame_index = frame_index;
    h.total_frames = total_frames;
    h.msg_bytes = msg_bytes;
    nic_[1]->frame_arrived(net::make_frame_ptr(
        net::MacAddress::for_host(1), net::MacAddress::for_host(0),
        net::EtherType::kEmp, forge_payload(h, pattern(fragment_bytes, 9))));
  };
  bool lost = false;
  net_.host_link(0).set_drop_policy(
      net::StarNetwork::kHostSide, [&lost](const net::Frame& f) {
        auto d = decode_header(f.payload);
        if (lost || !d || d->kind != FrameKind::kData ||
            d->frame_index != 1) {
          return false;
        }
        lost = true;
        return true;
      });

  RecvResult result{};
  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, kTag, posted);
    result = co_await ep_[1]->wait_recv(h);
  };
  auto forger = [&]() -> Task<void> {
    co_await eng_.delay(100'000);  // the descriptor is filed by now
    inject(900, kMsg, 2, 1, 1400);  // frame 1 of 2000 bytes holds 520
    inject(901, 64, 3, 2, 64);      // 64 bytes is one frame, not three
    co_await eng_.delay(1'000'000);  // genuine msg 1 bound, frame 1 lost
    inject(1, 4000, 3, 1, 1480);     // fits 4000 bytes, not the bound 2000
  };
  SendHandle sent;
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(200'000);
    sent = co_await ep_[0]->post_send(1, kTag, data);
  };
  eng_.spawn(receiver());
  eng_.spawn(forger());
  eng_.spawn(sender());
  eng_.run();

  auto untouched = [](auto first, auto last) {
    return std::all_of(first, last, [](std::uint8_t b) { return b == 0xaa; });
  };
  EXPECT_TRUE(untouched(mem.begin(), mem.begin() + kGuard));
  EXPECT_TRUE(untouched(mem.end() - kGuard, mem.end()));
  EXPECT_EQ(emp_counter(1, "malformed_frames"), 3);
  EXPECT_TRUE(lost);
  ASSERT_NE(sent, nullptr);
  EXPECT_TRUE(sent->acked_done);
  EXPECT_EQ(result.bytes, kMsg);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), posted.begin()));
}

// The modeled tag-match walk charges every live pre-posted descriptor up to
// and including the match (all of them when nothing matches), then the
// unexpected pool up to its first free entry that fits (all of it when none
// does).  Tombstones of unposted descriptors cost nothing.  Descriptors on
// tags 100 and 200 interleave; unposts leave tombstones, and enough of them
// force a compaction first.  First frames are injected at the receiving NIC
// one at a time, and each one's counter deltas are checked exactly.
TEST_F(EmpPair, TagWalkChargesLiveDescriptorsUpToTheMatch) {
  struct Walk {
    std::int64_t walked, walks, walk_sum, too_small, unmatched, claims,
        evictions, free_entries;
    bool operator==(const Walk&) const = default;
  };
  auto read = [&] {
    return Walk{emp_counter(1, "descriptors_walked"),
                emp_counter(1, "tag_walk_len/count"),
                emp_counter(1, "tag_walk_len/sum"),
                emp_counter(1, "too_small_drops"),
                emp_counter(1, "unmatched_drops"),
                emp_counter(1, "unexpected_claims"),
                emp_counter(1, "unexpected_evictions"),
                static_cast<std::int64_t>(ep_[1]->unexpected_free_count())};
  };
  auto delta = [](const Walk& a, const Walk& b) {
    return Walk{b.walked - a.walked,       b.walks - a.walks,
                b.walk_sum - a.walk_sum,   b.too_small - a.too_small,
                b.unmatched - a.unmatched, b.claims - a.claims,
                b.evictions - a.evictions, b.free_entries - a.free_entries};
  };
  std::uint32_t next_msg = 700;
  // Frame 0 of a fresh `bytes`-byte message from node 0 on `tag`.
  auto inject = [&](Tag tag, std::uint32_t bytes) {
    EmpHeader h;
    h.src_node = 0;
    h.dst_node = 1;
    h.tag = tag;
    h.msg_id = next_msg++;
    h.frame_index = 0;
    h.total_frames = frames_for(bytes, model_.wire.mtu);
    h.msg_bytes = bytes;
    nic_[1]->frame_arrived(net::make_frame_ptr(
        net::MacAddress::for_host(1), net::MacAddress::for_host(0),
        net::EtherType::kEmp,
        forge_payload(h, pattern(std::min<std::uint32_t>(
                               bytes, max_fragment_bytes(model_.wire.mtu))))));
  };
  struct Desc {
    std::optional<NodeId> src;
    Tag tag;
    std::size_t capacity;
    bool unpost;
  };
  // First batch: 14 descriptors, 8 unposted (the 8th unpost compacts).
  const std::vector<Desc> first = {
      {0, 100, 64, true},    {0, 200, 64, false},  {0, 100, 4096, false},
      {0, 200, 64, true},    {5, 100, 64, false},  {0, 200, 64, true},
      {0, 100, 8, false},    {0, 200, 64, true},   {0, 200, 64, true},
      {0, 200, 64, true},    {0, 100, 64, true},   {0, 200, 64, true},
      {0, 0x9001, 8, false}, {0, 200, 64, false}};
  // Second batch: a tombstone on each side of the wildcard tag-100 match.
  const std::vector<Desc> second = {{0, 200, 64, true},
                                    {std::nullopt, 100, 64, false},
                                    {0, 200, 64, true},
                                    {0, 100, 64, false}};
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<Walk> deltas;
  std::size_t live_before_frames = 0;

  auto proc = [&]() -> Task<void> {
    const std::vector<Desc>* batches[] = {&first, &second};
    for (const auto* batch : batches) {
      std::vector<RecvHandle> handles;
      for (const Desc& d : *batch) {
        bufs.emplace_back(d.capacity);
        handles.push_back(
            co_await ep_[1]->post_recv(d.src, d.tag, bufs.back()));
      }
      co_await eng_.delay(100'000);  // every descriptor is filed
      for (std::size_t i = 0; i < batch->size(); ++i) {
        if ((*batch)[i].unpost) {
          const bool removed = co_await ep_[1]->unpost_recv(handles[i]);
          EXPECT_TRUE(removed);
        }
      }
      co_await eng_.delay(100'000);
    }
    live_before_frames = ep_[1]->posted_descriptor_count();
    co_await ep_[1]->post_unexpected(2, 4096);
    co_await eng_.delay(100'000);
    // A 2,000 B message binds the 4,096 B tag-100 descriptor; its second
    // frame never comes, so the descriptor stays bound.
    inject(100, 2000);
    co_await eng_.delay(100'000);
    const std::vector<std::pair<Tag, std::uint32_t>> frames = {
        {100, 16},     // skips bound, wrong-source, too-small; matches
        {300, 2000},   // no descriptor: unexpected entry 0, stays bound
        {301, 16},     // skips bound entry 0, lands in entry 1
        {302, 16},     // pool full: evicts ready entry 1, lands there
        {0x9000, 16},  // above kUnexpectedMaxTag, no descriptor
        {0x9001, 16},  // above kUnexpectedMaxTag, only a too-small one
        {303, 5000},   // evicts entry 1, then fits nowhere in the pool
    };
    for (const auto& [tag, bytes] : frames) {
      const Walk before = read();
      inject(tag, bytes);
      co_await eng_.delay(100'000);
      deltas.push_back(delta(before, read()));
    }
  };
  eng_.spawn(proc());
  eng_.run();

  EXPECT_EQ(live_before_frames, 8u);
  // {walked, walks, walk_sum, too_small, unmatched, claims, evictions,
  //  free_entries}
  const std::vector<Walk> expected = {
      {7, 1, 7, 0, 0, 0, 0, 0},    {8, 1, 8, 0, 0, 1, 0, -1},
      {9, 1, 9, 0, 0, 1, 0, -1},   {9, 1, 9, 0, 0, 1, 1, 0},
      {7, 1, 7, 0, 1, 0, 0, 0},    {7, 1, 7, 1, 0, 0, 0, 0},
      {9, 1, 9, 0, 1, 0, 1, 1},
  };
  ASSERT_EQ(deltas.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Walk& d = deltas[i];
    EXPECT_EQ(d, expected[i])
        << "frame " << i << ": walked " << d.walked << " walks " << d.walks
        << " sum " << d.walk_sum << " too_small " << d.too_small
        << " unmatched " << d.unmatched << " claims " << d.claims
        << " evictions " << d.evictions << " free " << d.free_entries;
  }
}

TEST_F(EmpPair, UnpostRemovesDescriptor) {
  std::vector<std::uint8_t> buf(64);
  auto proc = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 5, buf);
    co_await eng_.delay(100'000);
    EXPECT_EQ(ep_[1]->posted_descriptor_count(), 1u);
    bool removed = co_await ep_[1]->unpost_recv(h);
    EXPECT_TRUE(removed);
    co_await eng_.delay(100'000);
    EXPECT_EQ(ep_[1]->posted_descriptor_count(), 0u);
  };
  eng_.spawn(proc());
  eng_.run();
}

TEST_F(EmpPair, UnpostFailsOnMatchedDescriptor) {
  std::vector<std::uint8_t> buf(64);
  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 5, buf);
    co_await eng_.delay(300'000);  // message arrives meanwhile
    bool removed = co_await ep_[1]->unpost_recv(h);
    EXPECT_FALSE(removed);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(10'000);
    auto h = co_await ep_[0]->post_send(1, 5, pattern(16));
    co_await ep_[0]->wait_send_acked(h);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();
}

TEST_F(EmpPair, TranslationCacheAvoidsRepinning) {
  std::vector<std::uint8_t> buf(64);
  auto proc = [&]() -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      auto h = co_await ep_[1]->post_recv(NodeId{0}, static_cast<Tag>(i), buf);
      bool ok = co_await ep_[1]->unpost_recv(h);
      EXPECT_TRUE(ok);
    }
  };
  eng_.spawn(proc());
  eng_.run();
  EXPECT_EQ(emp_counter(1, "pin_misses"), 1);
  EXPECT_EQ(emp_counter(1, "pin_hits"), 9);
}

// Regions 0 and 1 are touched, 1 again, then 1,023 fresh regions: the
// 1,025th distinct region evicts the least recently used one, region 0,
// while region 1, touched more recently, still hits.
TEST_F(EmpPair, TranslationCacheEvictsLeastRecentlyUsedRegion) {
  constexpr std::size_t kRegion = 64;
  std::vector<std::uint8_t> mem(kRegion * (kTranslationCacheCapacity + 1));
  std::vector<std::size_t> order{0, 1, 1};
  for (std::size_t r = 2; r <= kTranslationCacheCapacity; ++r) {
    order.push_back(r);
  }
  order.push_back(1);
  order.push_back(0);
  auto proc = [&]() -> Task<void> {
    for (const std::size_t r : order) {
      auto h = co_await ep_[1]->post_recv(
          NodeId{0}, 5, std::span(mem).subspan(r * kRegion, kRegion));
      bool ok = co_await ep_[1]->unpost_recv(h);
      EXPECT_TRUE(ok);
    }
  };
  eng_.spawn(proc());
  eng_.run();
  EXPECT_EQ(emp_counter(1, "pin_misses"), 1026);
  EXPECT_EQ(emp_counter(1, "pin_hits"), 2);
}

// The NIC's receive entry drops a frame it cannot decode and one whose
// header names another node, counting each; neither reaches the data path
// or the posted receive.
TEST_F(EmpPair, UndecodableAndMisroutedFramesAreDroppedAndCounted) {
  std::vector<std::uint8_t> buf(64, 0xaa);
  RecvHandle posted;
  auto receiver = [&]() -> Task<void> {
    posted = co_await ep_[1]->post_recv(NodeId{0}, 3, buf);
  };
  auto inject = [&](std::vector<std::uint8_t> payload) {
    nic_[1]->frame_arrived(net::make_frame_ptr(
        net::MacAddress::for_host(1), net::MacAddress::for_host(0),
        net::EtherType::kEmp, std::move(payload)));
  };
  auto forger = [&]() -> Task<void> {
    co_await eng_.delay(100'000);  // the descriptor is filed by now
    inject(std::vector<std::uint8_t>(5, 0x01));
    EmpHeader h;
    h.src_node = 0;
    h.dst_node = 2;
    h.tag = 3;
    h.msg_id = 1;
    h.frame_index = 0;
    h.total_frames = 1;
    h.msg_bytes = 16;
    inject(forge_payload(h, pattern(16)));
  };
  eng_.spawn(receiver());
  eng_.spawn(forger());
  eng_.run();

  EXPECT_EQ(emp_counter(1, "malformed_frames"), 1);
  EXPECT_EQ(emp_counter(1, "misrouted_frames"), 1);
  EXPECT_EQ(emp_counter(1, "data_frames_rx"), 0);
  ASSERT_NE(posted, nullptr);
  EXPECT_FALSE(ep_[1]->test_recv(posted));
  EXPECT_EQ(ep_[1]->posted_descriptor_count(), 1u);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](std::uint8_t b) { return b == 0xaa; }));
}

TEST_F(EmpPair, AcksFollowWindow) {
  // 10 frames with ack window 4 -> acks at 4, 8, 10 = 3 acks.
  auto data = pattern(1480 * 10);
  std::vector<std::uint8_t> buf(1480 * 10);
  auto receiver = [&]() -> Task<void> {
    auto h = co_await ep_[1]->post_recv(NodeId{0}, 2, buf);
    co_await ep_[1]->wait_recv(h);
  };
  auto sender = [&]() -> Task<void> {
    co_await eng_.delay(1000);
    auto h = co_await ep_[0]->post_send(1, 2, data);
    co_await ep_[0]->wait_send_acked(h);
  };
  eng_.spawn(receiver());
  eng_.spawn(sender());
  eng_.run();
  EXPECT_EQ(emp_counter(1, "acks_tx"), 3);
  EXPECT_EQ(emp_counter(0, "acks_rx"), 3);
}

TEST_F(EmpPair, LatencyIsCloseToPaperEmpBaseline) {
  // Calibration check: one-way 4-byte latency (half of ping-pong RTT)
  // should sit near the paper's 28 us for raw EMP.
  constexpr int kIters = 30;
  std::vector<std::uint8_t> ping(4), pong(4), b0(4), b1(4);
  sim::Time total_rtt_start = 0;
  double one_way_us = 0;

  auto server = [&]() -> Task<void> {
    for (int i = 0; i < kIters; ++i) {
      auto h = co_await ep_[1]->post_recv(NodeId{0}, 1, b1);
      co_await ep_[1]->wait_recv(h);
      auto s = co_await ep_[1]->post_send(0, 2, pong);
      co_await ep_[1]->wait_send_local(s);
    }
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(100'000);
    total_rtt_start = eng_.now();
    for (int i = 0; i < kIters; ++i) {
      auto h = co_await ep_[0]->post_recv(NodeId{1}, 2, b0);
      auto s = co_await ep_[0]->post_send(1, 1, ping);
      co_await ep_[0]->wait_recv(h);
    }
    one_way_us =
        sim::to_us(eng_.now() - total_rtt_start) / (2.0 * kIters);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();

  EXPECT_GT(one_way_us, 20.0);
  EXPECT_LT(one_way_us, 36.0);
}

}  // namespace
}  // namespace ulsocks::emp
