// Full-duplex point-to-point link: a delay line with fault injection.
//
// A frame handed to transmit() arrives at the far side's sink after its
// serialization plus propagation.  The link keeps no wire queue: its
// senders (the NIC's MAC queue, the switch's egress queues) already hand it
// one frame per serialization time.  Each side is attached to an engine.
// When both sides share one engine the arrival is scheduled locally; when
// they are shards of one sim::ShardGroup (Engine::shard_group()), the same
// frame is posted into the far side's engine through
// ShardGroup::post_remote() instead.  No frame arrives sooner than a
// minimum frame's serialization plus propagation (shard_lookahead()), the
// lookahead post_remote() enforces (see sim/shard.hpp).  Every shard runs
// on one thread, so the frame crosses by move and returns to its own NIC's
// pool on whichever shard drops it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/frame.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ulsocks::net {

/// Decides whether a given frame is lost on the wire.  Stateless frames in,
/// verdicts out; installed per link direction by tests and fault benches.
using DropPolicy = std::function<bool(const Frame&)>;

/// Drop every frame whose (per-direction) transmit ordinal is in `ordinals`.
[[nodiscard]] DropPolicy drop_nth_policy(std::vector<std::uint64_t> ordinals);

/// Drop frames independently with probability `p` drawn from `rng`.  The
/// reference must outlive the policy and is safe only for single-engine
/// runs: draws are interleave-dependent when the rng is shared.
[[nodiscard]] DropPolicy random_drop_policy(sim::Rng& rng, double p);

/// Drop frames independently with probability `p` from a private generator
/// seeded with `seed`.  Each policy instance owns its stream, so the draw
/// sequence per link direction is a pure function of that direction's
/// traffic — identical between serial and sharded runs.
[[nodiscard]] DropPolicy random_drop_policy(std::uint64_t seed, double p);

/// Minimum simulated latency of any frame crossing a link with these wire
/// costs: serialization of a minimum Ethernet frame plus propagation.
/// This is the free lookahead a ShardGroup built over such links gets.
[[nodiscard]] sim::Duration shard_lookahead(const sim::WireCosts& wire);

class Link {
 public:
  enum class Side : std::uint8_t { kA = 0, kB = 1 };

  Link(sim::Engine& eng, const sim::WireCosts& wire)
      : bps_(wire.link_bps), propagation_ns_(wire.propagation_ns) {
    end_[0].eng = &eng;
    end_[1].eng = &eng;
  }

  void attach(Side side, FrameSink* sink) {
    end_[static_cast<int>(side)].sink = sink;
  }

  /// Attach a sink together with the engine its side runs on.  A transmit
  /// between sides on different engines goes through their shard group's
  /// post_remote().
  void attach(Side side, FrameSink* sink, sim::Engine& eng) {
    Endpoint& e = end_[static_cast<int>(side)];
    e.sink = sink;
    e.eng = &eng;
  }

  /// Install a drop policy on the direction *transmitting from* `side`.
  void set_drop_policy(Side side, DropPolicy policy) {
    end_[static_cast<int>(side)].drop = std::move(policy);
  }

  /// Time to serialize `frame` onto the wire at line rate.
  [[nodiscard]] sim::Duration serialization_time(const Frame& frame) const {
    return sim::serialization_ns(frame.wire_bytes(), bps_);
  }

  /// Put `frame` on the wire from `side` now: unless this direction's drop
  /// policy takes it, it arrives at the far sink after serialization plus
  /// propagation.  The sender paces its frames one serialization apart.
  /// Pre: the two sides share an engine or a shard group (an always-on
  /// invariant).
  void transmit(Side side, FramePtr frame);

  [[nodiscard]] std::uint64_t frames_sent(Side side) const {
    return end_[static_cast<int>(side)].sent;
  }
  [[nodiscard]] std::uint64_t frames_dropped(Side side) const {
    return end_[static_cast<int>(side)].dropped;
  }

 private:
  struct Endpoint {
    FrameSink* sink = nullptr;   // receiver of frames sent *to* this side
    sim::Engine* eng = nullptr;  // engine this side's component runs on
    DropPolicy drop;             // applied to frames sent *from* this side
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
  };

  std::uint64_t bps_;
  sim::Duration propagation_ns_;
  Endpoint end_[2];
};

}  // namespace ulsocks::net
