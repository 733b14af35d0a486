// Sharded simulation: N engines stepped earliest-first on one thread.
//
// A ShardGroup owns N independent Engines.  Cross-shard interactions are
// bounded below by one lookahead `L`: no effect one shard imposes on
// another lands sooner than `L` after the source's clock (for an Ethernet
// link: serialization of a minimum wire frame plus propagation,
// net::shard_lookahead()).  post_remote() checks this on every post.
//
// run() repeats one step: take the shard whose next event is earliest
// (ties go to the lower index) and run every event it has at that instant.
// Events therefore execute in non-decreasing time across the whole group,
// so no shard's clock ever passes another's next event, and a post made at
// the source's clock `now` lands at `now + L` or later: in its
// destination's future, whatever that destination has run.  DESIGN.md §11
// has the argument and what it costs.
//
// post_remote() schedules a cross-shard event straight into its
// destination engine, which numbers it when it is posted.  Every step runs
// on the calling thread, so that numbering is a pure function of the
// workload and the partition, and a checker on any shard may read state on
// every other.  If shards ever run on threads again, posts must wait for a
// barrier again (DESIGN.md §11 "Scheduling and cost").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class ShardGroup {
 public:
  /// `lookahead` (>= 1 ns) is a lower bound on the simulated latency of
  /// every cross-shard interaction; post_remote() enforces it per post.
  /// Shard i is seeded `seed + i`, so shard 0 of a one-shard group is
  /// byte-identical to a plain `Engine(seed)`.  Each shard's engine learns
  /// its group and index here (Engine::shard_group(), shard_index()), and
  /// records spans into the group's one tracer (Engine::tracer()).
  ShardGroup(std::size_t shards, Duration lookahead, std::uint64_t seed = 1);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return engines_.size(); }
  [[nodiscard]] Engine& shard(std::size_t i) { return *engines_[i]; }

  /// Schedule `fn` at absolute time `t` on shard `dst`.  Must be called by
  /// shard `src` while it runs, with `t >= now(src) + lookahead`.
  /// Same-time posts run in post order.
  void post_remote(std::uint32_t src, std::uint32_t dst, Time t, EventFn fn);

  /// Run all shards to completion on the calling thread, earliest shard
  /// first, or until a step leaves its shard's engine stopped
  /// (Engine::request_stop()), as Engine::run() returns.  The unnamed
  /// thread budget is ignored; it stays so callers that still pass one
  /// keep compiling.  An event that throws propagates straight out of
  /// run(); since events run in time order, it is the earliest failure in
  /// simulated time.
  void run(unsigned /*threads*/ = 0);

  /// Per-shard ordered digests folded in fixed shard order.  For a
  /// one-shard group this is exactly shard 0's digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// Wrapping sum of the shards' order-insensitive digests — invariant
  /// across shard counts for the same workload (see Engine::causal_digest).
  [[nodiscard]] std::uint64_t causal_digest() const;

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Latest shard clock (the simulated end time of the run).
  [[nodiscard]] Time now() const;

  /// Group-level scheduler metrics, distinct from any shard's registry:
  /// `shard/remote_events` (cross-shard posts so far) and
  /// `shard/imbalance` (max/min per-shard executed events, permille, set
  /// at the end of every run()).
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

 private:
  Duration lookahead_;
  obs::Tracer tracer_;
  obs::Registry metrics_;
  obs::Counter& remote_events_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace ulsocks::sim
