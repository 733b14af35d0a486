// Exhaustive fault positions: small substrate workloads rerun once per
// frame index with that frame dropped, in each of the four link directions
// of a two-host star, and once per pair of indices within one direction.
// The simulator is deterministic, so enumerating the positions covers every
// one-frame (and, for one configuration, every two-frame) loss schedule of
// these workloads instead of sampling a few.
//
// Oracles: every echo matches; both hosts end with no live socket, posted
// descriptor or pending send; and every invariant checker is swept after
// every event.  A failure prints a one-line replay: the run_case() call
// that reruns it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <exception>
#include <ostream>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sockets/config.hpp"

namespace ulsocks {
namespace {

using apps::Cluster;
using os::SockAddr;
using sim::Engine;
using sim::Task;

constexpr std::uint16_t kPort = 7300;
constexpr std::size_t kMessages = 8;
constexpr std::size_t kMessageBytes = 100;
/// Far past any recovery these workloads need (EMP resends after 10 ms).
constexpr sim::Time kDeadline = 5'000'000'000;
/// Failures reported per test before it stops enumerating.
constexpr int kMaxFailures = 10;

/// kEcho: eight 100 B request-response echoes.  kBurst: the client writes
/// all eight messages before it reads, and the server reads all eight
/// before it echoes them back in order.
enum class Workload { kEcho, kBurst };

/// A link direction of the two-host star: the frames host `host` sends to
/// the switch (`up`), or the switch sends to it.
struct Direction {
  std::size_t host;
  bool up;
};
constexpr std::array<Direction, 4> kDirections = {
    {{0, true}, {0, false}, {1, true}, {1, false}}};

std::string direction_name(std::size_t d) {
  return "h" + std::to_string(kDirections[d].host) +
         (kDirections[d].up ? " up" : " down");
}

/// One run: a workload on a preset at a credit window, losing the frames
/// at 1-based transmit ordinals `drops` in direction `direction`.
struct DropCase {
  Workload workload;
  std::string preset;
  std::uint32_t credits;
  std::size_t direction;
  std::vector<std::uint64_t> drops;

  [[nodiscard]] std::string replay() const {
    std::string s = "replay: run_case({Workload::";
    s += workload == Workload::kEcho ? "kEcho" : "kBurst";
    s += ", \"" + preset + "\", " + std::to_string(credits) + ", " +
         std::to_string(direction) + " /* " + direction_name(direction) +
         " */, {";
    for (std::size_t i = 0; i < drops.size(); ++i) {
      s += (i == 0 ? "" : ", ") + std::to_string(drops[i]);
    }
    return s + "}})";
  }
};

struct Outcome {
  std::size_t echoes_matched = 0;
  std::vector<int> server_order;  // index of each message the server read
  std::array<std::uint64_t, kDirections.size()> frames_sent{};
  std::uint64_t frames_dropped = 0;  // in the case's direction
  std::string failure;               // empty when every oracle held
};

/// Message i: its index in the first byte, then a pattern of i.
std::vector<std::uint8_t> message(std::size_t i) {
  std::vector<std::uint8_t> m(kMessageBytes);
  m[0] = static_cast<std::uint8_t>(i);
  for (std::size_t b = 1; b < m.size(); ++b) {
    m[b] = static_cast<std::uint8_t>(i * 37 + b * 11 + 5);
  }
  return m;
}

Task<void> server(os::SocketApi& api, Workload w, Outcome& out) {
  int ls = co_await api.socket();
  co_await api.bind(ls, SockAddr{1, kPort});
  co_await api.listen(ls, 1);
  int cs = co_await api.accept(ls, nullptr);
  std::vector<std::vector<std::uint8_t>> got(
      kMessages, std::vector<std::uint8_t>(kMessageBytes));
  for (auto& m : got) {
    co_await api.read_exact(cs, m);
    out.server_order.push_back(m[0]);
    if (w == Workload::kEcho) co_await api.write_all(cs, m);
  }
  if (w == Workload::kBurst) {
    for (const auto& m : got) co_await api.write_all(cs, m);
  }
  co_await api.close(cs);
  co_await api.close(ls);
}

Task<void> client(Engine& eng, os::SocketApi& api, Workload w, Outcome& out) {
  co_await eng.delay(1'000);
  int s = co_await api.socket();
  co_await api.connect(s, SockAddr{1, kPort});
  std::vector<std::uint8_t> back(kMessageBytes);
  for (std::size_t i = 0; i < kMessages; ++i) {
    co_await api.write_all(s, message(i));
    if (w == Workload::kEcho) {
      co_await api.read_exact(s, back);
      if (back == message(i)) ++out.echoes_matched;
    }
  }
  if (w == Workload::kBurst) {
    for (std::size_t i = 0; i < kMessages; ++i) {
      co_await api.read_exact(s, back);
      if (back == message(i)) ++out.echoes_matched;
    }
  }
  co_await api.close(s);
}

Outcome run_case(const DropCase& c) {
  Outcome out;
  sockets::SubstrateConfig cfg = sockets::preset(c.preset).cfg;
  cfg.credits = c.credits;
  Engine eng;
  eng.set_check_interval(1);
  Cluster cl(eng, sim::calibrated_cost_model(), 2, cfg);
  auto side = [](std::size_t d) {
    return kDirections[d].up ? net::StarNetwork::kHostSide
                             : net::Link::Side::kB;
  };
  auto link = [&cl](std::size_t d) -> net::Link& {
    return cl.network().host_link(kDirections[d].host);
  };
  if (!c.drops.empty()) {
    link(c.direction)
        .set_drop_policy(side(c.direction), net::drop_nth_policy(c.drops));
  }
  eng.spawn(server(cl.node(1).socks, c.workload, out));
  eng.spawn(client(eng, cl.node(0).socks, c.workload, out));
  try {
    eng.run_until(kDeadline);
    if (eng.has_pending()) out.failure = "still running at the deadline";
  } catch (const std::exception& e) {
    out.failure = e.what();
  }
  for (std::size_t d = 0; d < kDirections.size(); ++d) {
    out.frames_sent[d] = link(d).frames_sent(side(d));
  }
  out.frames_dropped = link(c.direction).frames_dropped(side(c.direction));
  if (!out.failure.empty()) return out;

  if (out.echoes_matched != kMessages) {
    out.failure = std::to_string(out.echoes_matched) + " of " +
                  std::to_string(kMessages) + " echoes matched; server read";
    for (int m : out.server_order) out.failure += " " + std::to_string(m);
  }
  for (std::size_t h = 0; h < 2; ++h) {
    const Cluster::Node& n = cl.node(h);
    if (n.socks.active_socket_count() != 0 ||
        n.emp.posted_descriptor_count() != 0 ||
        n.emp.pending_send_count() != 0) {
      out.failure += (out.failure.empty() ? "" : "; ") + std::string("h") +
                     std::to_string(h) + " left " +
                     std::to_string(n.socks.active_socket_count()) +
                     " sockets, " +
                     std::to_string(n.emp.posted_descriptor_count()) +
                     " posted descriptors, " +
                     std::to_string(n.emp.pending_send_count()) +
                     " pending sends";
    }
  }
  return out;
}

/// Runs `c` and reports any broken oracle, or a drop count other than
/// `expect_dropped`, with its replay.  Returns false on a failure.
bool check_case(const DropCase& c, std::uint64_t expect_dropped) {
  const Outcome o = run_case(c);
  if (o.failure.empty() && o.frames_dropped == expect_dropped) return true;
  ADD_FAILURE() << c.replay() << ": "
                << (o.failure.empty() ? "all oracles held" : o.failure)
                << "; dropped " << o.frames_dropped << " of "
                << c.drops.size();
  return false;
}

struct Config {
  Workload workload;
  const char* preset;
  std::uint32_t credits;

  /// "echo_ds_c1": the test-name suffix, and what gtest prints.
  [[nodiscard]] std::string name() const {
    return std::string(workload == Workload::kEcho ? "echo_" : "burst_") +
           preset + "_c" + std::to_string(credits);
  }
  friend void PrintTo(const Config& c, std::ostream* os) { *os << c.name(); }
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  return info.param.name();
}

/// The lossless run of `cfg`, which every oracle must pass; its
/// frames_sent bound the indices worth dropping.
Outcome lossless(const Config& cfg) {
  const DropCase c{cfg.workload, cfg.preset, cfg.credits, 0, {}};
  Outcome o = run_case(c);
  EXPECT_TRUE(o.failure.empty()) << c.replay() << ": " << o.failure;
  for (std::size_t d = 0; d < kDirections.size(); ++d) {
    EXPECT_GT(o.frames_sent[d], 0u) << direction_name(d);
  }
  return o;
}

class SingleDrops : public ::testing::TestWithParam<Config> {};

TEST_P(SingleDrops, EveryFrameInEveryDirection) {
  const Config& cfg = GetParam();
  const Outcome base = lossless(cfg);
  int failures = 0;
  int runs = 0;
  for (std::size_t d = 0; d < kDirections.size(); ++d) {
    for (std::uint64_t k = 1; k <= base.frames_sent[d]; ++k, ++runs) {
      if (!check_case({cfg.workload, cfg.preset, cfg.credits, d, {k}}, 1) &&
          ++failures == kMaxFailures) {
        return;
      }
    }
  }
  RecordProperty("runs", runs);
}

// Datagram sockets run only the request-response echo: the burst reads
// its messages out of order on `dg` (see the DG ordering entry in
// ROADMAP item 3(a)).
INSTANTIATE_TEST_SUITE_P(
    Echo, SingleDrops,
    ::testing::Values(Config{Workload::kEcho, "ds", 1},
                      Config{Workload::kEcho, "ds", 4},
                      Config{Workload::kEcho, "ds_da", 1},
                      Config{Workload::kEcho, "ds_da", 4},
                      Config{Workload::kEcho, "ds_da_uq", 1},
                      Config{Workload::kEcho, "ds_da_uq", 4},
                      Config{Workload::kEcho, "dg", 1},
                      Config{Workload::kEcho, "dg", 4}),
    config_name);

INSTANTIATE_TEST_SUITE_P(
    Burst, SingleDrops,
    ::testing::Values(Config{Workload::kBurst, "ds", 1},
                      Config{Workload::kBurst, "ds", 4},
                      Config{Workload::kBurst, "ds_da", 1},
                      Config{Workload::kBurst, "ds_da", 4},
                      Config{Workload::kBurst, "ds_da_uq", 1},
                      Config{Workload::kBurst, "ds_da_uq", 4}),
    config_name);

/// Every pair of indices within one direction of `ds_da_uq` at credits 4;
/// the parameter is the direction.
class PairDrops : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PairDrops, EveryPairWithinTheDirection) {
  const std::size_t d = GetParam();
  const Config cfg{Workload::kEcho, "ds_da_uq", 4};
  const Outcome base = lossless(cfg);
  int failures = 0;
  int runs = 0;
  for (std::uint64_t j = 1; j <= base.frames_sent[d]; ++j) {
    for (std::uint64_t k = j + 1; k <= base.frames_sent[d]; ++k, ++runs) {
      if (!check_case({cfg.workload, cfg.preset, cfg.credits, d, {j, k}}, 2) &&
          ++failures == kMaxFailures) {
        return;
      }
    }
  }
  RecordProperty("runs", runs);
}

INSTANTIATE_TEST_SUITE_P(
    EchoDsDaUqCredits4, PairDrops, ::testing::Range<std::size_t>(0, 4),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "h" + std::to_string(kDirections[info.param].host) +
             (kDirections[info.param].up ? "_up" : "_down");
    });

}  // namespace
}  // namespace ulsocks
