// Determinism self-check (ROADMAP tier-1 gate): the engine folds every
// executed event's (time, sequence) into a 64-bit digest; two runs of the
// same seeded workload must be bit-identical — same digest, same event
// count, same final time.  A divergence means something nondeterministic
// (wall clock, pointer ordering, uninitialized reads) leaked into the
// simulation and every paper-reproduction number is suspect.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/cluster.hpp"
#include "check/invariant.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sockets/config.hpp"

namespace ulsocks {
namespace {

using apps::Cluster;
using os::SockAddr;
using sim::Engine;
using sim::Task;

TEST(Digest, AdvancesAsEventsExecute) {
  Engine eng;
  std::uint64_t initial = eng.digest();
  eng.schedule_at(10, [] {});
  EXPECT_EQ(eng.digest(), initial);  // scheduling alone changes nothing
  eng.run();
  EXPECT_NE(eng.digest(), initial);
}

TEST(Digest, IdenticalEventSequencesAgree) {
  auto run = [] {
    Engine eng;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(static_cast<sim::Time>(i * 7), [] {});
    }
    eng.run();
    return eng.digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(Digest, DifferentTimingsDiverge) {
  auto run = [](sim::Time spacing) {
    Engine eng;
    for (int i = 0; i < 10; ++i) {
      eng.schedule_at(static_cast<sim::Time>(i) * spacing, [] {});
    }
    eng.run();
    return eng.digest();
  };
  EXPECT_NE(run(7), run(8));
}

struct RunSignature {
  std::uint64_t digest;
  std::uint64_t causal_digest;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t bytes_echoed;
  std::uint64_t bytes_copied;  // host/bytes_copied: the data path's copies
  friend bool operator==(const RunSignature&, const RunSignature&) = default;
};

// Workload knobs for run_echo_workload.  Defaults reproduce the original
// tier-1 workload exactly.
struct EchoOptions {
  sockets::SubstrateConfig cfg{};
  bool use_tcp = false;    // kernel TCP instead of the substrate
  bool use_view = false;   // server drains with read_view() (zero-copy)
  double loss = 0.0;       // random frame loss on both host links
};

// A full-stack workload: substrate connection setup, eager + credit flow,
// randomized message sizes drawn from the engine's seeded RNG, teardown.
// The client verifies the echoed bytes, so any stale-buffer bleed from the
// slice/frame pools shows up as a content mismatch, not just a digest one.
RunSignature run_echo_workload(std::uint64_t seed,
                               const EchoOptions& opt = {}) {
  Engine eng(seed);
  Cluster cluster(eng, sim::calibrated_cost_model(), 2, opt.cfg);
  if (opt.loss > 0) {
    for (std::size_t i = 0; i < 2; ++i) {
      cluster.network().host_link(i).set_drop_policy(
          net::StarNetwork::kHostSide,
          net::random_drop_policy(eng.rng(), opt.loss));
    }
  }
  std::uint64_t echoed = 0;

  auto pick = [&](std::size_t node) -> os::SocketApi& {
    return opt.use_tcp
               ? static_cast<os::SocketApi&>(cluster.node(node).tcp)
               : static_cast<os::SocketApi&>(cluster.node(node).socks);
  };
  auto server = [&]() -> Task<void> {
    auto& api = pick(1);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 7100});
    co_await api.listen(ls, 4);
    int sd = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(16384);
    os::RecvView view;
    for (;;) {
      std::size_t n;
      if (opt.use_view) {
        n = co_await api.read_view(sd, view, buf.size());
        // Gather the parts host-side (no simulated cost) so the echo write
        // pattern is identical whether slicing lent one part or many.
        std::size_t off = 0;
        for (const auto& part : view.parts) {
          std::memcpy(buf.data() + off, part.data(), part.size());
          off += part.size();
        }
      } else {
        n = co_await api.read(sd, buf);
      }
      if (n == 0) break;
      co_await api.write_all(sd, std::span(buf).first(n));
    }
    co_await api.close(sd);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = pick(0);
    int sd = co_await api.socket();
    co_await api.connect(sd, SockAddr{1, 7100});
    std::vector<std::uint8_t> out(16384);
    std::vector<std::uint8_t> in(16384);
    for (int i = 0; i < 25; ++i) {
      std::size_t n = eng.rng().uniform(1, 8192);
      for (std::size_t b = 0; b < n; ++b) {
        out[b] = static_cast<std::uint8_t>(eng.rng().uniform(0, 255));
      }
      co_await api.write_all(sd, std::span(out).first(n));
      co_await api.read_exact(sd, std::span(in).first(n));
      EXPECT_TRUE(std::equal(in.begin(), in.begin() + n, out.begin()))
          << "echoed bytes corrupted at iteration " << i;
      echoed += n;
    }
    co_await api.close(sd);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  return RunSignature{eng.digest(), eng.causal_digest(), eng.events_executed(),
                      eng.now(), echoed,
                      eng.metrics().counter("host/bytes_copied").value()};
}

TEST(Determinism, SameSeedSameDigestTwice) {
  RunSignature a = run_echo_workload(42);
  RunSignature b = run_echo_workload(42);
  EXPECT_EQ(a, b) << "same-seed runs diverged: digest " << a.digest << " vs "
                  << b.digest << ", events " << a.events << " vs "
                  << b.events;
  EXPECT_GT(a.bytes_echoed, 0u);
  EXPECT_GT(a.events, 1000u);  // the workload actually exercised the stack
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Different seeds draw different message sizes, so the event stream —
  // and therefore the digest — must differ.
  EXPECT_NE(run_echo_workload(1).digest, run_echo_workload(2).digest);
}

// Golden signatures of the echo workload on every paper preset, through
// read_view(), under lossy stress and over kernel TCP.  They were recorded
// while the deep-copy and heap-per-frame data paths still existed and ran
// bit-identical to the sliced, pooled one, so matching them is the A/B
// check those paths once gave.  Payload slices and frame pools are
// host-side optimizations: these literals hold the event stream, the
// simulated timing and the host copy count fixed, so a change to event
// order or timing, or a copy creeping back onto the data path, fails here.
// The values are identical in Debug, sanitizer and Release builds.
struct EchoPin {
  std::string_view name;
  EchoOptions opt;
  RunSignature sig;
};

const EchoPin& echo_pin(std::string_view name) {
  static const std::vector<EchoPin> pins = [] {
    auto with = [](const char* preset) {
      EchoOptions opt;
      opt.cfg = sockets::preset(preset).cfg;
      return opt;
    };
    EchoOptions read_view = with("ds_da_uq");
    read_view.use_view = true;
    EchoOptions lossy_stress = with("ds_da_uq");
    lossy_stress.cfg.credits = 2;
    lossy_stress.cfg.buffer_bytes = 2048;
    lossy_stress.loss = 0.01;
    EchoOptions tcp_lossy;
    tcp_lossy.use_tcp = true;
    tcp_lossy.loss = 0.005;
    return std::vector<EchoPin>{
        {"ds", with("ds"),
         {0x50346997f67ff833ull, 0x160c81a46fea3266ull, 4721, 16970635, 101293,
          407104}},
        {"ds_da", with("ds_da"),
         {0x491f6dc361c58092ull, 0x4bfd42bc5d8a1822ull, 3118, 16275023, 101293,
          405600}},
        {"ds_da_uq", with("ds_da_uq"),
         {0x240163b2c3f314c4ull, 0x539a4ded567fe7cdull, 3207, 16269356, 101293,
          405584}},
        {"dg", with("dg"),
         {0x2bffebffb7745794ull, 0x6ef645b5f5529f1full, 4975, 16483246, 101293,
          428142}},
        // Same event stream as ds_da_uq; the lent slices skip the copy-out
        // of all 101,293 echoed bytes.
        {"ds_da_uq read_view", read_view,
         {0x240163b2c3f314c4ull, 0x539a4ded567fe7cdull, 3207, 16269356, 101293,
          304291}},
        {"lossy stress", lossy_stress,
         {0xfabca3155e3ce235ull, 0x216a397bf3c3a2c4ull, 8541, 46780657, 95484,
          388444}},
        {"tcp loss 0.005", tcp_lossy,
         {0x44d8761277cebc36ull, 0xd1ba1a7eff6be7b5ull, 4051, 85277404, 100230,
          1040910}},
    };
  }();
  for (const EchoPin& pin : pins) {
    if (pin.name == name) return pin;
  }
  throw std::invalid_argument("no echo pin named " + std::string(name));
}

// Runs the echo workload with `opt` and checks every field against `pin`.
void expect_pinned(const EchoPin& pin, const EchoOptions& opt) {
  const RunSignature sig = run_echo_workload(42, opt);
  EXPECT_EQ(sig.digest, pin.sig.digest) << pin.name;
  EXPECT_EQ(sig.causal_digest, pin.sig.causal_digest) << pin.name;
  EXPECT_EQ(sig.events, pin.sig.events) << pin.name;
  EXPECT_EQ(sig.end_time, pin.sig.end_time) << pin.name;
  EXPECT_EQ(sig.bytes_echoed, pin.sig.bytes_echoed) << pin.name;
  EXPECT_EQ(sig.bytes_copied, pin.sig.bytes_copied) << pin.name;
}

void expect_pinned(const EchoPin& pin) { expect_pinned(pin, pin.opt); }

// Pooling recycles frame storage; it must never leak into simulated
// behaviour.  The full echo workload (connection setup, eager + credit
// flow, teardown) with default options — the ds_da_uq configuration —
// keeps the signature the heap-per-frame path produced.
TEST(Determinism, FramePoolingDoesNotChangeEventOrder) {
  expect_pinned(echo_pin("ds_da_uq"), EchoOptions{});
}

// The zero-copy slice data path must be a pure host-side optimization:
// the simulated event stream (digests, count, end time) matches the
// deep-copy path's on every paper preset.
TEST(Determinism, SlicingDoesNotChangeEventOrderOnAnyPreset) {
  for (const sockets::Preset& p : sockets::presets()) {
    expect_pinned(echo_pin(p.name));
  }
}

// Same invariant through the zero-copy read_view() receive API, where the
// NIC buffers are lent instead of copied into user memory.
TEST(Determinism, SlicingDoesNotChangeEventOrderWithReadView) {
  expect_pinned(echo_pin("ds_da_uq read_view"));
}

// Stress variant: tiny credits and staging buffers force fragmentation,
// credit stalls and unexpected-queue traffic, and random frame loss drives
// the NACK-repair retransmit path — all of which rebuild frames from the
// pinned slice and must stay digest-identical.
TEST(Determinism, SlicingDoesNotChangeEventOrderUnderLossyStress) {
  expect_pinned(echo_pin("lossy stress"));
}

// Kernel TCP's segment path (header inline, payload pinned into the NIC's
// slice pool) must be behaviour-neutral too, including under loss
// (retransmits pin again from the ByteRing).
TEST(Determinism, SlicingDoesNotChangeEventOrderOverTcp) {
  expect_pinned(echo_pin("tcp loss 0.005"));
}

// The point of the slices: with read_view the deep-copy path copied every
// payload byte ~5 times on the host (staging, send capture, wire encode,
// delivery, read-out), 1,013,838 bytes for this run, while the sliced path
// pins it once.  Require the >= 3x reduction with headroom.
TEST(HostCopies, SlicingCutsBytesCopiedAtLeast3x) {
  constexpr std::uint64_t kDeepCopyBytes = 1'013'838;
  const std::uint64_t sliced_bytes =
      run_echo_workload(42, echo_pin("ds_da_uq read_view").opt).bytes_copied;
  ASSERT_GT(sliced_bytes, 0u);  // control traffic still copies
  EXPECT_GE(kDeepCopyBytes, 3 * sliced_bytes)
      << "deep-copy path copied " << kDeepCopyBytes
      << " bytes, sliced copied " << sliced_bytes;
}

// ---------------------------------------------------------------------------
// Queue-order property test: the engine's two-level 4-ary heap must pop in
// exactly the strict (time, sequence) order.  The oracle is a deliberately
// naive scheduler — an unordered vector popped by linear min-scan — driven
// through the same randomized self-spawning workload and folded through the
// same digest function.  The workload reaches every kind of queue entry:
// callbacks, coroutine resumes, and completions routed through three
// SerialResources' serial streams, both `run` callbacks and `use` resumes.
// Any ordering bug in the heap, the slot arena, the near/far horizon split
// or a stream's marker shows up as a digest or count mismatch.
// ---------------------------------------------------------------------------

// The engine's digest fold (splitmix64 finalizer), replicated here so the
// test checks the published contract rather than calling back into it.
constexpr std::uint64_t ref_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
constexpr std::uint64_t kRefDigestInit = 0x243f6a8885a308d3ull;

// Deterministic generator shared (by value of its seed) between the engine
// run and the reference run: if both schedulers execute events in the same
// order, both draw the same decisions.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 11;
  }
};

// Delta distribution exercising every queue regime: same-timestamp events
// (seq tiebreak), short deltas (near heap), and deltas past the 64 us near
// window (far heap + horizon refills).  Resource costs use it too, so jobs
// of cost 0 queue behind busy ones and complete at the same instant.
sim::Duration random_delta(Lcg& rng) {
  const std::uint64_t r = rng.next();
  switch (r % 4) {
    case 0: return 0;
    case 1: return static_cast<sim::Duration>(r % 64);
    case 2: return static_cast<sim::Duration>(r % 4096);
    default: return static_cast<sim::Duration>(70'000 + r % 200'000);
  }
}

// How a child node is scheduled.
enum ChildKind : std::uint64_t {
  kCallback,    // schedule_after(delta, Spawner)
  kResume,      // schedule_resume(now + delta, fresh coroutine frame)
  kRunOnRes,    // SerialResource::run(cost, Spawner)
  kUseOnRes,    // a coroutine that awaits SerialResource::use(cost)
  kChildKinds,
};
constexpr std::size_t kResources = 3;

struct NaiveScheduler {
  struct Ev {
    sim::Time t;
    std::uint64_t seq;
    int depth;
  };
  std::vector<Ev> pending;
  sim::Time now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t digest = kRefDigestInit;
  std::uint64_t executed = 0;
  // SerialResource's rule: a job starts when the resource frees up (or now)
  // and completes `cost` later.
  std::array<sim::Time, kResources> free_at{};

  void schedule(sim::Time t, int depth) {
    pending.push_back(Ev{t, next_seq++, depth});
  }
  void run(Lcg& rng) {
    while (!pending.empty()) {
      std::size_t best = 0;  // linear min-scan: the obviously-correct pop
      for (std::size_t i = 1; i < pending.size(); ++i) {
        const Ev& a = pending[i];
        const Ev& b = pending[best];
        if (a.t < b.t || (a.t == b.t && a.seq < b.seq)) best = i;
      }
      const Ev ev = pending[best];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      now = ev.t;
      ++executed;
      digest = ref_mix64(digest ^ static_cast<std::uint64_t>(ev.t));
      digest = ref_mix64(digest ^ ev.seq);
      if (ev.depth <= 0) continue;
      const std::uint64_t kids = rng.next() % 3;
      for (std::uint64_t k = 0; k < kids; ++k) {
        const std::uint64_t kind = rng.next() % kChildKinds;
        if (kind == kCallback || kind == kResume) {
          schedule(now + random_delta(rng), ev.depth - 1);
          continue;
        }
        sim::Time& busy = free_at[rng.next() % kResources];
        busy = std::max(busy, now) + random_delta(rng);
        schedule(busy, ev.depth - 1);
      }
    }
  }
};

// Engine side of the workload: everything a node touches.  Each node's
// body mirrors NaiveScheduler's draw-for-draw.  With `stops` set it also
// fires request_stop() from inside some nodes, drawing from its own
// generator so the mirrored draws stay aligned.
struct SpawnCtx {
  Engine* eng;
  Lcg* rng;
  Lcg* stops;
  std::array<sim::SerialResource*, kResources> res;
  std::vector<Task<void>> frames{};  // owns every coroutine node
  std::array<int, kChildKinds> scheduled{};  // children per kind
  // Set by the bounded drive when it returns with an event due at now();
  // the next node to run then records whether that event came through a
  // serial stream.
  bool watch = false;
  int stream_front_returns = 0;

  void body(int depth, bool via_stream);
};

// Callback node (kCallback, kRunOnRes and the roots).
struct Spawner {
  SpawnCtx* ctx;
  int depth;
  bool via_stream = false;
  void operator()() const { ctx->body(depth, via_stream); }
};

// kResume: a lazy frame whose first resume, scheduled directly, runs it.
Task<void> resumed_node(SpawnCtx* ctx, int depth) {
  ctx->body(depth, false);
  co_return;
}

// kUseOnRes: started inline by its parent, so it charges the resource at
// the parent's instant; the stream resumes it at completion.
Task<void> charged_node(SpawnCtx* ctx, sim::SerialResource* res,
                        sim::Duration cost, int depth) {
  co_await res->use(cost);
  ctx->body(depth, true);
}

void SpawnCtx::body(int depth, bool via_stream) {
  if (watch) {
    if (via_stream) ++stream_front_returns;
    watch = false;
  }
  if (stops != nullptr && stops->next() % 8 == 0) eng->request_stop();
  if (depth <= 0) return;
  const std::uint64_t kids = rng->next() % 3;
  for (std::uint64_t k = 0; k < kids; ++k) {
    const std::uint64_t kind = rng->next() % kChildKinds;
    ++scheduled[kind];
    switch (kind) {
      case kCallback:
        eng->schedule_after(random_delta(*rng), Spawner{this, depth - 1});
        break;
      case kResume: {
        const auto h = frames.emplace_back(resumed_node(this, depth - 1))
                           .handle();
        eng->schedule_resume(eng->now() + random_delta(*rng), h);
        break;
      }
      case kRunOnRes: {
        sim::SerialResource* r = res[rng->next() % kResources];
        r->run(random_delta(*rng), Spawner{this, depth - 1, true});
        break;
      }
      default: {
        sim::SerialResource* r = res[rng->next() % kResources];
        const sim::Duration cost = random_delta(*rng);
        sim::detail::resume_chain(
            frames.emplace_back(charged_node(this, r, cost, depth - 1))
                .handle());
        break;
      }
    }
  }
}

// How the queue-order test steps the engine: one run(), or random
// run_until bounds with request_stop() fired from inside events.
// A stop returns from run() with same-instant entries still queued: lane
// entries, or a stream's front re-armed at now().
enum class Drive { kRun, kBoundedWithStops };

// Steps `ctx.eng` to completion through random bounds.  Returns how many
// times a bounded call returned with events still due at now().
int drive_bounded(SpawnCtx& ctx, Lcg& drive_rng) {
  Engine& eng = *ctx.eng;
  int mid_instant_returns = 0;
  while (eng.has_pending()) {
    eng.clear_stop();
    const std::uint64_t r = drive_rng.next();
    const sim::Time bound = eng.now() + random_delta(drive_rng);
    if (r % 2 == 0) {
      eng.run();
    } else {
      eng.run_until(bound);
    }
    if (eng.has_pending() && eng.next_event_time() == eng.now()) {
      ++mid_instant_returns;
      ctx.watch = true;
    }
  }
  return mid_instant_returns;
}

// ---------------------------------------------------------------------------
// Sharded engine (sim/shard.hpp): a ShardGroup partitions the hosts across
// engines stepped earliest-first.  The contract, from weakest to strongest
// coupling:
//   - a one-shard group is byte-identical to a plain Engine (same digest);
//   - for a fixed shard count, the schedule is pinned: per-shard digests
//     match recorded literals;
//   - across shard counts, the simulated outcome is invariant: the same
//     events fire at the same times (causal digest, event count, end time)
//     and the application sees the same bytes.  The seq-folded digest is
//     intentionally partition-dependent (each engine numbers its own
//     events), which is why causal_digest() exists.
// These workloads draw randomness from per-actor generators and seeded
// drop policies — never Engine::rng(), whose draw interleaving would
// change with the partition.
// ---------------------------------------------------------------------------

struct ShardSignature {
  std::uint64_t group_digest;
  std::uint64_t causal_digest;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t bytes_echoed;
  friend bool operator==(const ShardSignature&, const ShardSignature&) =
      default;
};

/// The partition-invariant part of a signature (drops the seq-folded
/// digest, which legitimately differs across shard counts).
struct CausalSignature {
  std::uint64_t causal_digest;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t bytes_echoed;
  friend bool operator==(const CausalSignature&, const CausalSignature&) =
      default;
};

CausalSignature causal_part(const ShardSignature& s) {
  return {s.causal_digest, s.events, s.end_time, s.bytes_echoed};
}

struct ShardEchoOptions {
  sockets::SubstrateConfig cfg{};
  bool use_tcp = false;
  double loss = 0.0;
  int rounds = 20;
  std::uint64_t seed = 42;
};

/// Loss, tiny credits and tiny staging buffers: retransmits, credit stalls
/// and unexpected-queue traffic across the shard boundary.
ShardEchoOptions lossy_stress_options() {
  ShardEchoOptions opt;
  opt.cfg = sockets::preset("ds_da_uq").cfg;
  opt.cfg.credits = 2;
  opt.cfg.buffer_bytes = 2048;
  opt.loss = 0.01;
  return opt;
}

Task<void> shard_echo_server(os::SocketApi& api) {
  int ls = co_await api.socket();
  co_await api.bind(ls, SockAddr{1, 7100});
  co_await api.listen(ls, 4);
  int sd = co_await api.accept(ls, nullptr);
  std::vector<std::uint8_t> buf(16384);
  for (;;) {
    std::size_t n = co_await api.read(sd, buf);
    if (n == 0) break;
    co_await api.write_all(sd, std::span(buf).first(n));
  }
  co_await api.close(sd);
  co_await api.close(ls);
}

Task<void> shard_echo_client(os::SocketApi& api, std::uint64_t seed,
                             int rounds, std::uint64_t* echoed) {
  Lcg rng{seed};
  int sd = co_await api.socket();
  co_await api.connect(sd, SockAddr{1, 7100});
  std::vector<std::uint8_t> out(16384);
  std::vector<std::uint8_t> in(16384);
  for (int i = 0; i < rounds; ++i) {
    const std::size_t n = 1 + rng.next() % 8192;
    for (std::size_t b = 0; b < n; ++b) {
      out[b] = static_cast<std::uint8_t>(rng.next() & 0xff);
    }
    co_await api.write_all(sd, std::span(out).first(n));
    co_await api.read_exact(sd, std::span(in).first(n));
    EXPECT_TRUE(std::equal(in.begin(), in.begin() + n, out.begin()))
        << "echoed bytes corrupted at iteration " << i;
    *echoed += n;
  }
  co_await api.close(sd);
}

os::SocketApi& shard_echo_api(Cluster& cl, std::size_t node, bool use_tcp) {
  return use_tcp ? static_cast<os::SocketApi&>(cl.node(node).tcp)
                 : static_cast<os::SocketApi&>(cl.node(node).socks);
}

void shard_echo_losses(Cluster& cl, const ShardEchoOptions& opt) {
  if (opt.loss <= 0) return;
  // Policies seeded per link, not fed from any engine's RNG: frames cross a
  // given link side in the same order under every partition, so the drop
  // decisions replay identically.
  for (std::size_t i = 0; i < 2; ++i) {
    cl.network().host_link(i).set_drop_policy(
        net::StarNetwork::kHostSide,
        net::random_drop_policy(opt.seed * 1000003 + i, opt.loss));
  }
}

ShardSignature run_plain_echo(const ShardEchoOptions& opt = {}) {
  Engine eng(opt.seed);
  Cluster cl(eng, sim::calibrated_cost_model(), 2, opt.cfg);
  shard_echo_losses(cl, opt);
  std::uint64_t echoed = 0;
  eng.spawn(shard_echo_server(shard_echo_api(cl, 1, opt.use_tcp)));
  eng.spawn(shard_echo_client(shard_echo_api(cl, 0, opt.use_tcp),
                              opt.seed ^ 0xabcdefull, opt.rounds, &echoed));
  eng.run();
  return {eng.digest(), eng.causal_digest(), eng.events_executed(), eng.now(),
          echoed};
}

ShardSignature run_echo_sharded(std::size_t shards,
                                const ShardEchoOptions& opt = {}) {
  const sim::CostModel model = sim::calibrated_cost_model();
  sim::ShardGroup group(shards, net::shard_lookahead(model.wire), opt.seed);
  Cluster cl(group, model, 2, opt.cfg);
  shard_echo_losses(cl, opt);
  std::uint64_t echoed = 0;
  cl.node_engine(1).spawn(shard_echo_server(shard_echo_api(cl, 1, opt.use_tcp)));
  cl.node_engine(0).spawn(shard_echo_client(
      shard_echo_api(cl, 0, opt.use_tcp), opt.seed ^ 0xabcdefull, opt.rounds,
      &echoed));
  group.run();
  return {group.digest(), group.causal_digest(), group.events_executed(),
          group.now(), echoed};
}

// A one-shard group must be indistinguishable from not sharding at all:
// same engine seed, same event stream, same seq-folded digest — on every
// named paper preset.
TEST(Sharding, GroupOfOneIsByteIdenticalToPlainEngine) {
  for (const sockets::Preset& p : sockets::presets()) {
    ShardEchoOptions opt;
    opt.cfg = p.cfg;
    ShardSignature plain = run_plain_echo(opt);
    ShardSignature one = run_echo_sharded(1, opt);
    EXPECT_EQ(one, plain) << "preset " << p.name << ": group-of-one digest "
                          << one.group_digest << " vs plain "
                          << plain.group_digest;
    EXPECT_GT(plain.bytes_echoed, 0u) << "preset " << p.name;
  }
}

// Across shard counts the partition changes but the simulation must not:
// same events at the same times, same bytes through the application — on
// every named preset.
TEST(Sharding, OutcomeInvariantAcrossShardCountsOnEveryPreset) {
  for (const sockets::Preset& p : sockets::presets()) {
    ShardEchoOptions opt;
    opt.cfg = p.cfg;
    CausalSignature one = causal_part(run_echo_sharded(1, opt));
    CausalSignature two = causal_part(run_echo_sharded(2, opt));
    CausalSignature four = causal_part(run_echo_sharded(4, opt));
    EXPECT_EQ(two, one) << "preset " << p.name << " diverged at 2 shards";
    EXPECT_EQ(four, one) << "preset " << p.name << " diverged at 4 shards";
    EXPECT_GT(one.bytes_echoed, 0u) << "preset " << p.name;
  }
}

// Under lossy stress (lossy_stress_options) the outcome must still be
// partition-invariant.
TEST(Sharding, LossyStressOutcomeInvariantAcrossShardCounts) {
  const ShardEchoOptions opt = lossy_stress_options();
  CausalSignature one = causal_part(run_echo_sharded(1, opt));
  CausalSignature two = causal_part(run_echo_sharded(2, opt));
  CausalSignature four = causal_part(run_echo_sharded(4, opt));
  EXPECT_EQ(two, one) << "lossy stress diverged at 2 shards";
  EXPECT_EQ(four, one) << "lossy stress diverged at 4 shards";
}

// The schedule itself, pinned to literal values: the 4-shard echo on the
// default and lossy-stress configs.  The seq-folded digest pins every
// event's position in its engine, including where each cross-shard post
// lands in its destination's numbering.  A change to which shard steps
// next, or how far, moves one of these numbers, so any edit to the step
// loop must leave them intact.
TEST(Sharding, ScheduleMatchesPinnedValues) {
  struct Pin {
    const char* name;
    ShardEchoOptions opt;
    std::uint64_t digest;
    std::uint64_t causal_digest;
  };
  const Pin pins[] = {
      {"default", {}, 0xcd0bb89f973b5c20ull, 0xa7b71b2f21421617ull},
      {"lossy stress", lossy_stress_options(), 0x347d118f7d6eea56ull,
       0x0d43f20568ae5cc4ull},
  };
  for (const Pin& pin : pins) {
    const ShardSignature sig = run_echo_sharded(4, pin.opt);
    EXPECT_EQ(sig.group_digest, pin.digest) << pin.name;
    EXPECT_EQ(sig.causal_digest, pin.causal_digest) << pin.name;
  }
}

// An event that throws surfaces from run(), whether several shards are
// busy or one runs alone, and so does a failing root coroutine.  Events run
// in time order, so when two shards fail, the earlier failure in simulated
// time is the one run() reports.
TEST(Sharding, FailureInDispatchedWindowRethrows) {
  {
    // Every shard is busy through t = 199; shard 2 throws at t = 100 and
    // shard 3 at t = 50.
    sim::ShardGroup group(4, /*lookahead=*/1'000'000);
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (sim::Time t = 0; t < 200; ++t) group.shard(i).schedule_at(t, [] {});
    }
    group.shard(2).schedule_at(100, [] {
      throw std::runtime_error("shard 2 failure");
    });
    group.shard(3).schedule_at(50, [] {
      throw std::logic_error("shard 3 failure");
    });
    try {
      group.run();
      ADD_FAILURE() << "run() returned without a failure";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "shard 3 failure");
    }
    EXPECT_EQ(group.shard(3).now(), 50u);
  }
  {
    // Shard 0 alone, one event per microsecond; the one at t = 9500 throws.
    sim::ShardGroup group(4, /*lookahead=*/1'000);
    for (sim::Time t = 0; t < 20'000; t += 1'000) {
      group.shard(0).schedule_at(t, [] {});
    }
    group.shard(0).schedule_at(9'500, [] {
      throw std::runtime_error("sole shard failure");
    });
    EXPECT_THROW(group.run(), std::runtime_error);
    EXPECT_EQ(group.shard(0).now(), 9'500u);
  }
  {
    // A root coroutine on shard 2 fails at t = 5000 while shard 1 still has
    // events queued: the engine that steps the root records its failure,
    // and run() rethrows the root's own exception.
    sim::ShardGroup group(4, /*lookahead=*/1'000);
    for (sim::Time t = 0; t < 20'000; t += 500) {
      group.shard(1).schedule_at(t, [] {});
    }
    auto thrower = [](Engine& e) -> Task<void> {
      co_await e.delay(5'000);
      throw std::logic_error("root on shard 2");
    };
    group.shard(2).spawn(thrower(group.shard(2)));
    try {
      group.run();
      ADD_FAILURE() << "run() returned without the root's failure";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "root on shard 2");
    }
    EXPECT_EQ(group.shard(2).now(), 5'000u);
  }
}

// Kernel TCP's loss recovery (retransmit timers are the long-dated far-heap
// events) must behave identically when the two endpoints live on different
// shards.
TEST(Sharding, TcpOverLossOutcomeInvariantAcrossShardCounts) {
  ShardEchoOptions opt;
  opt.use_tcp = true;
  opt.loss = 0.005;
  CausalSignature one = causal_part(run_echo_sharded(1, opt));
  CausalSignature two = causal_part(run_echo_sharded(2, opt));
  CausalSignature four = causal_part(run_echo_sharded(4, opt));
  EXPECT_EQ(two, one) << "tcp-over-loss diverged at 2 shards";
  EXPECT_EQ(four, one) << "tcp-over-loss diverged at 4 shards";
}

// Cross-shard posts run on their destination in (t, post order): a post
// takes its destination's next sequence number when it is made, and shards
// due at the same instant step in shard order, so same-time posts run in
// the order they were made and lower source shards come first.
TEST(Sharding, SameTimePostsRunInPostOrderSourcesInShardOrder) {
  sim::ShardGroup group(3, /*lookahead=*/100);
  std::vector<int> order;
  auto post = [&](std::uint32_t src, sim::Time t, int id) {
    group.post_remote(src, 0, t, [&order, id] { order.push_back(id); });
  };
  // Both source shards post at t=0, timestamps deliberately scrambled
  // relative to post order.
  group.shard(1).schedule_at(0, [&] {
    post(1, 150, 0);  // 1st post
    post(1, 120, 1);  // 2nd
  });
  group.shard(2).schedule_at(0, [&] {
    post(2, 150, 2);  // 3rd: shard 2 steps after shard 1
    post(2, 120, 3);  // 4th
    post(2, 150, 4);  // 5th
  });
  group.run();
  // t=120 first (shard 1 posted before shard 2); then t=150 in post order:
  // shard 1's, then shard 2's two.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2, 4}));
  EXPECT_EQ(group.metrics().snapshot().at("shard/remote_events"), 5);
}

// request_stop() on a shard ends the group's run as it ends Engine::run():
// after the current event, with the rest of that shard's queue left
// pending.
TEST(Sharding, StopRequestOnAShardEndsTheRun) {
  sim::ShardGroup group(2, /*lookahead=*/1'000);
  bool late_ran = false;
  group.shard(0).schedule_at(0, [&group] { group.shard(0).request_stop(); });
  group.shard(0).schedule_at(10, [&late_ran] { late_ran = true; });
  group.run();
  EXPECT_FALSE(late_ran);
  EXPECT_TRUE(group.shard(0).has_pending());
  EXPECT_EQ(group.shard(0).now(), 0u);
}

// post_remote() checks every post against its source's clock: a post at
// exactly now + lookahead is accepted, one nanosecond closer throws.
TEST(Sharding, PostCloserThanLookaheadThrows) {
  {
    sim::ShardGroup group(2, /*lookahead=*/1'000);
    bool ran = false;
    group.shard(0).schedule_at(5'000, [&] {
      group.post_remote(0, 1, 6'000, [&ran] { ran = true; });
    });
    group.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(group.shard(1).now(), 6'000u);
  }
  {
    sim::ShardGroup group(2, /*lookahead=*/1'000);
    group.shard(0).schedule_at(5'000, [&group] {
      group.post_remote(0, 1, 5'999, [] {});
    });
    try {
      group.run();
      ADD_FAILURE() << "a post closer than the lookahead was accepted";
    } catch (const check::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("violates lookahead"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(QueueOrder, RandomInterleavingsMatchNaiveReference) {
  for (const Drive drive : {Drive::kRun, Drive::kBoundedWithStops}) {
    const char* mode = drive == Drive::kRun ? "run" : "bounded+stops";
    int mid_instant_returns = 0;
    int stream_front_returns = 0;
    std::array<int, kChildKinds> scheduled{};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Engine eng;
      sim::SerialResource r0(eng), r1(eng), r2(eng);
      Lcg eng_rng{seed};
      Lcg stop_rng{seed * 31};
      Lcg drive_rng{seed * 131};
      NaiveScheduler ref;
      Lcg ref_rng{seed};
      SpawnCtx ctx{&eng, &eng_rng,
                   drive == Drive::kRun ? nullptr : &stop_rng,
                   {&r0, &r1, &r2}};

      Lcg root_rng{seed * 977};
      for (int i = 0; i < 64; ++i) {
        // Coarse root times force same-timestamp collisions.
        const sim::Time t =
            static_cast<sim::Time>((root_rng.next() % 32) * 512);
        eng.schedule_at(t, Spawner{&ctx, 4});
        ref.schedule(t, 4);
      }
      if (drive == Drive::kRun) {
        eng.run();
      } else {
        mid_instant_returns += drive_bounded(ctx, drive_rng);
      }
      ref.run(ref_rng);

      EXPECT_EQ(eng.events_executed(), ref.executed)
          << mode << " seed " << seed;
      EXPECT_EQ(eng.now(), ref.now) << mode << " seed " << seed;
      EXPECT_EQ(eng.digest(), ref.digest) << mode << " seed " << seed;
      EXPECT_GT(ref.executed, 64u) << mode << " seed " << seed;  // spawned
      stream_front_returns += ctx.stream_front_returns;
      for (std::size_t k = 0; k < kChildKinds; ++k) {
        scheduled[k] += ctx.scheduled[k];
      }
    }
    for (std::size_t k = 0; k < kChildKinds; ++k) {
      EXPECT_GT(scheduled[k], 0) << mode << ": no child of kind " << k;
    }
    if (drive == Drive::kBoundedWithStops) {
      EXPECT_GT(mid_instant_returns, 0) << "no return left events at now()";
      EXPECT_GT(stream_front_returns, 0)
          << "no return left a stream front due at now()";
    }
  }
}

}  // namespace
}  // namespace ulsocks
