// Conservative sharded simulation (CMB-style, per-edge lookahead distance
// matrix).
//
// A ShardGroup owns N independent Engines and runs them in bounded epochs.
// Cross-shard interactions are described by a per-(src, dst) lookahead
// matrix W: W[s][d] is a lower bound on the simulated latency of any
// effect shard s can impose on shard d over a direct edge (for an
// Ethernet link: serialization of a minimum wire frame plus that link's
// propagation delay — net::Link registers it when a cross-shard edge is
// created).  From W the group derives the shortest-path closure D, where
// D[j][i] is the minimum latency over *any* relay chain j -> ... -> i and
// D[i][i] is the minimum round trip i -> ... -> i.  Shard i's epoch bound
// is then
//
//   bound_i = min over all shards j of (T_j + D[j][i])
//
// (T_j = shard j's next event time), instead of one group-wide window
// `global_min(T_j) + W`: a shard whose only incoming edges are long-haul
// advances in strides of the long latency while tightly-coupled pairs
// stay tight, and an idle shard (T_j = infinity) constrains nobody.  The
// closure — not the raw edge matrix — is what makes per-edge bounds sound
// under a barrier; see DESIGN.md §11 for the induction and the
// reflection-path caveat (D[i][i] is exactly the term that bounds a shard
// against echoes of its own future output).
//
// post_remote() schedules a cross-shard event straight into its
// destination engine.  The induction above puts every post at or beyond
// its destination's current window bound, so the destination never runs
// it in the epoch it was posted, whichever of the two windows runs first;
// post_remote() checks this on every post.
//
// Every window runs on the calling thread, in shard order, which is what
// makes direct scheduling deterministic: the destination numbers each
// posted event when it is posted, a pure function of the workload and the
// partition.  If windows ever run on threads again, posts must wait for
// the barrier again (DESIGN.md §11 "Scheduling and cost").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class ShardGroup {
 public:
  /// Sentinel epoch bound meaning "run this shard to drain".
  static constexpr Time kNoBound = ~Time{0};
  /// Sentinel lookahead meaning "no path": the pair never interacts, so
  /// it contributes no epoch constraint.
  static constexpr Duration kUnreachable = ~Duration{0};

  /// `lookahead` is the default lower bound on the simulated latency of
  /// every cross-shard interaction; post_remote() enforces it per post.
  /// It governs every (src, dst) pair until the first
  /// register_edge_lookahead() call switches the group to
  /// registered-edges-only (see below).  Shard i is seeded `seed + i`, so
  /// shard 0 of a one-shard group is byte-identical to a plain
  /// `Engine(seed)`.
  ShardGroup(std::size_t shards, Duration lookahead, std::uint64_t seed = 1);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return engines_.size(); }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] Engine& shard(std::size_t i) { return *engines_[i]; }

  /// Index of `eng` within this group.  Pre: the engine belongs to it.
  [[nodiscard]] std::uint32_t index_of(const Engine& eng) const;

  /// Declare a direct cross-shard edge src -> dst on which every
  /// interaction is delayed by at least `w` (>= 1 ns).  Multiple
  /// registrations for one pair keep the minimum (parallel links).
  ///
  /// The first registration on a group asserts a stronger contract than
  /// the constructor default: *all* cross-shard traffic flows over
  /// registered edges.  Unregistered pairs then become kUnreachable —
  /// they constrain no epoch bound, and post_remote() on one is an
  /// invariant violation.  net::Link is the only sanctioned caller
  /// (enforced by ulsan-shard-affinity); it registers each cross-shard
  /// link's true serialization + propagation delay as the edge forms.
  void register_edge_lookahead(std::uint32_t src, std::uint32_t dst,
                               Duration w);

  /// Direct-edge lookahead currently in force for (src, dst):
  /// the registered minimum, the constructor default while no edge has
  /// been registered group-wide, or kUnreachable.
  [[nodiscard]] Duration edge_lookahead(std::uint32_t src,
                                        std::uint32_t dst) const;

  /// Shortest-path closure entry D[src][dst]: minimum latency over any
  /// relay chain src -> ... -> dst (kUnreachable if none).  For
  /// src == dst this is the minimum round trip through at least one other
  /// shard — the reflection bound.
  [[nodiscard]] Duration path_lookahead(std::uint32_t src, std::uint32_t dst);

  /// Schedule `fn` at absolute time `t` on shard `dst`.  Must be called by
  /// shard `src` during its window; `t` must honour edge_lookahead(src, dst)
  /// relative to src's clock, and during run() it must not fall inside
  /// dst's current window.  Same-time posts run in post order.
  void post_remote(std::uint32_t src, std::uint32_t dst, Time t, EventFn fn);

  /// Run all shards to completion on the calling thread: each epoch plans
  /// every bound, then steps every runnable shard's window in shard order.
  /// The unnamed thread budget is ignored; it stays so callers that still
  /// pass one keep compiling.  An event that throws propagates straight
  /// out of run(); since windows run in shard order, it is the failure of
  /// the lowest-indexed failing shard.
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

  /// Epochs executed so far, one per planned set of windows.
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

  /// Cross-shard events posted so far; each lands on its destination's
  /// queue the moment it is posted.
  [[nodiscard]] std::uint64_t remote_delivered() const noexcept {
    return delivered_;
  }

  /// Group-level scheduler metrics, distinct from any shard's registry:
  /// `shard/epoch_ns` (histogram of simulated global-clock advance per
  /// epoch), `shard/epochs`, `shard/remote_events`, `shard/imbalance`
  /// (final max/min per-shard executed events, permille).
  /// Flushed at the end of every run(); safe to snapshot when quiesced.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// Group-level checkers, swept at the barrier while all shards are
  /// quiesced — the only safe place to read state across shards.
  /// Cross-shard conservation laws register here; per-shard protocol
  /// checkers stay on their own engine's registry.
  [[nodiscard]] check::Registry& checks() noexcept { return checks_; }

  /// Introspection/testing: compute the next epoch's per-shard bounds
  /// (and the runnable set, see planned_runnable()) from the current
  /// queues without executing anything.  Empty when every queue is
  /// drained.  run() recomputes from scratch, and post_remote() checks
  /// only run()'s own windows, so interleaving this with runs is safe.
  [[nodiscard]] std::vector<Time> plan_bounds();

  /// The runnable flags of the most recent plan_bounds()/epoch: shard i
  /// executes this epoch iff its next event is below bounds[i].
  [[nodiscard]] const std::vector<std::uint8_t>& planned_runnable() const {
    return runnable_;
  }

 private:
  /// a + b with kNoBound/kUnreachable as an absorbing infinity.
  [[nodiscard]] static constexpr Time sat_add(Time a, Duration b) noexcept {
    return a >= kNoBound - b ? kNoBound : a + b;
  }

  [[nodiscard]] Duration edge(std::uint32_t src, std::uint32_t dst) const {
    return any_registered_
               ? edges_[static_cast<std::size_t>(src) * engines_.size() + dst]
               : lookahead_;
  }
  [[nodiscard]] Duration dist(std::uint32_t src, std::uint32_t dst) const {
    return dist_[static_cast<std::size_t>(src) * engines_.size() + dst];
  }

  /// Recompute the shortest-path closure from the edge matrix (lazy,
  /// on registration changes).
  void refresh_dist();

  /// Compute every shard's epoch bound and runnable flag from the current
  /// queues.  Returns false when all queues are drained.
  bool begin_epoch();
  /// Execute shard i's window up to bounds_[i] (to drain under kNoBound).
  void run_shard(std::size_t i);
  void flush_metrics();

  /// Epochs between group checker sweeps; a quiesced run() also sweeps
  /// once at its end.
  static constexpr std::uint64_t kCheckEpochInterval = 256;

  Duration lookahead_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Duration> edges_;    // direct-edge lookahead matrix W
  std::vector<Duration> dist_;     // shortest-path closure D of W
  bool any_registered_ = false;    // edges_ in force (vs. scalar default)
  bool dist_dirty_ = true;
  // Per-shard bound of the running epoch (kNoBound = drain); all kNoBound
  // outside run().
  std::vector<Time> bounds_;
  std::vector<Time> tnext_;        // per-shard next event time this epoch
  std::vector<std::uint8_t> runnable_;
  check::Registry checks_;
  obs::Registry metrics_;
  obs::Histogram* epoch_ns_hist_ = nullptr;
  Time last_gmin_ = 0;
  bool have_gmin_ = false;
  std::uint64_t epochs_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t epochs_flushed_ = 0;
  std::uint64_t delivered_flushed_ = 0;
};

}  // namespace ulsocks::sim
