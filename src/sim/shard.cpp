#include "sim/shard.hpp"

#include <algorithm>
#include <utility>

#include "check/invariant.hpp"

namespace ulsocks::sim {

ShardGroup::ShardGroup(std::size_t shards, Duration lookahead,
                       std::uint64_t seed)
    : lookahead_(lookahead) {
  ULSOCKS_INVARIANT(shards >= 1, "ShardGroup needs at least one shard");
  ULSOCKS_INVARIANT(lookahead >= 1,
                    "zero lookahead admits same-instant cross-shard "
                    "causality; epochs would never make progress");
  engines_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    engines_.push_back(std::make_unique<Engine>(seed + i));
  }
  edges_.assign(shards * shards, kUnreachable);
  dist_.assign(shards * shards, kUnreachable);
  bounds_.assign(shards, kNoBound);
  tnext_.assign(shards, kNoBound);
  runnable_.assign(shards, 0);
  // Register the scheduler instruments up front so quiesced snapshots carry
  // them (as zeros) even for runs that never cross a barrier.
  epoch_ns_hist_ = &metrics_.histogram("shard/epoch_ns");
  (void)metrics_.counter("shard/epochs");
  (void)metrics_.counter("shard/remote_events");
  (void)metrics_.gauge("shard/imbalance");
}

std::uint32_t ShardGroup::index_of(const Engine& eng) const {
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (engines_[i].get() == &eng) return static_cast<std::uint32_t>(i);
  }
  ULSOCKS_INVARIANT(false, "engine does not belong to this ShardGroup");
  return 0;  // unreachable
}

void ShardGroup::register_edge_lookahead(std::uint32_t src, std::uint32_t dst,
                                         Duration w) {
  const std::size_t n = engines_.size();
  ULSOCKS_INVARIANT(src < n && dst < n && src != dst,
                    "register_edge_lookahead: bad shard pair");
  ULSOCKS_INVARIANT(w >= 1,
                    "zero edge lookahead admits same-instant cross-shard "
                    "causality on this edge");
  if (!any_registered_) {
    // First registration flips the group from the all-pairs constructor
    // default to registered-edges-only: pairs nobody declares are
    // unreachable and constrain no bound.
    std::fill(edges_.begin(), edges_.end(), kUnreachable);
    any_registered_ = true;
    dist_dirty_ = true;
  }
  Duration& cell = edges_[static_cast<std::size_t>(src) * n + dst];
  if (w < cell) {
    cell = w;
    dist_dirty_ = true;
  }
}

Duration ShardGroup::edge_lookahead(std::uint32_t src,
                                    std::uint32_t dst) const {
  const std::size_t n = engines_.size();
  ULSOCKS_INVARIANT(src < n && dst < n, "edge_lookahead: bad shard pair");
  if (src == dst) return kUnreachable;
  return edge(src, dst);
}

Duration ShardGroup::path_lookahead(std::uint32_t src, std::uint32_t dst) {
  const std::size_t n = engines_.size();
  ULSOCKS_INVARIANT(src < n && dst < n, "path_lookahead: bad shard pair");
  if (dist_dirty_) refresh_dist();
  return dist(src, dst);
}

void ShardGroup::refresh_dist() {
  // Floyd–Warshall over the effective edge matrix, with the diagonal
  // seeded unreachable so D[i][i] converges to the minimum directed cycle
  // through i — the reflection bound.  All weights are >= 1 ns, so the
  // closure is well defined and every finite entry is positive.  n is the
  // shard count (single digits), so the cubic sweep is noise; it reruns
  // only when a registration actually changes an edge.
  const std::size_t n = engines_.size();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      dist_[s * n + d] =
          s == d ? kUnreachable
                 : (any_registered_ ? edges_[s * n + d] : lookahead_);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t s = 0; s < n; ++s) {
      const Duration sk = dist_[s * n + k];
      if (sk == kUnreachable) continue;
      for (std::size_t d = 0; d < n; ++d) {
        const Duration kd = dist_[k * n + d];
        if (kd == kUnreachable) continue;
        const Duration via =
            sk >= kUnreachable - kd ? kUnreachable : sk + kd;
        if (via < dist_[s * n + d]) dist_[s * n + d] = via;
      }
    }
  }
  dist_dirty_ = false;
}

void ShardGroup::post_remote(std::uint32_t src, std::uint32_t dst, Time t,
                             EventFn fn) {
  const std::size_t n = engines_.size();
  ULSOCKS_INVARIANT(src < n && dst < n && src != dst,
                    "post_remote: bad shard pair");
  const Duration w = edge(src, dst);
  ULSOCKS_INVARIANT(
      w != kUnreachable,
      check::msgf("post_remote on unregistered edge %u -> %u: every "
                  "cross-shard path must register_edge_lookahead first",
                  src, dst));
  // The conservative guarantee everything rests on: a cross-shard effect
  // can never land closer than this edge's lookahead ahead of its
  // source's clock.
  ULSOCKS_INVARIANT(
      t >= engines_[src]->now() + w,
      check::msgf("cross-shard post violates lookahead: t=%llu < "
                  "src_now=%llu + W[%u][%u]=%llu",
                  static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(engines_[src]->now()), src,
                  dst, static_cast<unsigned long long>(w)));
  // The induction, checked per post: nothing may land inside the window
  // its destination runs (or has run) this epoch.  A post that names the
  // wrong source shard passes the check above and fails here.
  ULSOCKS_INVARIANT(
      bounds_[dst] == kNoBound || t >= bounds_[dst],
      check::msgf("cross-shard post lands inside its destination's window: "
                  "t=%llu < bound[%u]=%llu (src=%u)",
                  static_cast<unsigned long long>(t), dst,
                  static_cast<unsigned long long>(bounds_[dst]), src));
  engines_[dst]->schedule_at(t, std::move(fn));
  ++delivered_;
}

bool ShardGroup::begin_epoch() {
  // Per-shard windows from the lookahead closure D:
  //
  //   bound_i = min over all shards j of (T_j + D[j][i])
  //
  // where T_j is shard j's next event time (infinity when drained).  The
  // j == i term uses D[i][i], the minimum round trip back to i — it is
  // what stops a shard whose peers are all idle from running past the
  // earliest possible echo of its own output.  The closure (not the raw
  // edge matrix) is essential: the classic per-pair CMB bound
  // min_{j!=i}(T_j + W[j][i]) is one-hop safe but breaks under a barrier
  // on multi-hop relays — an idle hub (the switch shard) woken by i's own
  // posts would relay frames into i's past.  Taking the min over shortest
  // *paths* folds every relay chain, and the cycle diagonal folds
  // reflection; DESIGN.md §11 has the induction.
  //
  // Soundness: every event executed this epoch on shard j has t < bound_j
  // <= T_j' for any later T_j', and every post it makes toward i carries
  // t >= now_j + W[j][i] >= T_j + D[j][i] >= bound_i — strictly beyond
  // everything i executes this epoch, whether i's window runs before or
  // after j's (post_remote() checks this per post).  Progress: all D
  // entries are >= 1, so the shard owning the global minimum always has
  // bound > T and executes at least one event.
  const std::size_t n = engines_.size();
  if (dist_dirty_) refresh_dist();
  Time gmin = kNoBound;
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<Time> t = engines_[i]->next_event_time();
    tnext_[i] = t ? *t : kNoBound;
    if (tnext_[i] < gmin) gmin = tnext_[i];
  }
  if (gmin == kNoBound) return false;
  // Simulated global-clock advance per barrier round; gmin strictly
  // increases between rounds (every executed window moves its shard's T
  // past the old gmin, and every post honours the edge lookahead).
  if (have_gmin_) epoch_ns_hist_->observe(gmin - last_gmin_);
  last_gmin_ = gmin;
  have_gmin_ = true;
  if (n == 1) {
    // No cross-shard causality exists; the single shard runs to drain.
    bounds_[0] = kNoBound;
    runnable_[0] = 1;
    return true;
  }
  for (std::size_t dst = 0; dst < n; ++dst) {
    Time b = kNoBound;
    for (std::size_t src = 0; src < n; ++src) {
      const Time via = sat_add(tnext_[src], dist_[src * n + dst]);
      if (via < b) b = via;
    }
    bounds_[dst] = b;
  }
  for (std::size_t i = 0; i < n; ++i) {
    runnable_[i] = tnext_[i] < bounds_[i] ? 1 : 0;
  }
  return true;
}

std::vector<Time> ShardGroup::plan_bounds() {
  if (!begin_epoch()) return {};
  // Hand the plan out and keep bounds_ at kNoBound: post_remote() checks
  // against the windows of a running epoch only.
  std::vector<Time> planned(engines_.size(), kNoBound);
  planned.swap(bounds_);
  return planned;
}

void ShardGroup::run_shard(std::size_t i) {
  if (bounds_[i] == kNoBound) {
    // One-shard groups and shards no reachable peer can affect: run to
    // drain.
    engines_[i]->run();
  } else {
    engines_[i]->run_before(bounds_[i]);
  }
}

void ShardGroup::run(unsigned /*threads*/) {
  while (begin_epoch()) {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (runnable_[i]) run_shard(i);
    }
    if (++epochs_ % kCheckEpochInterval == 0) checks_.run_all();
  }
  // Quiesced: every queue drained.
  std::fill(bounds_.begin(), bounds_.end(), kNoBound);
  checks_.run_all();
  flush_metrics();
}

void ShardGroup::flush_metrics() {
  metrics_.counter("shard/epochs").inc(epochs_ - epochs_flushed_);
  epochs_flushed_ = epochs_;
  metrics_.counter("shard/remote_events")
      .inc(delivered_ - delivered_flushed_);
  delivered_flushed_ = delivered_;
  // Load skew of the static placement: max/min per-shard executed events,
  // in permille (1000 = perfectly balanced).
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const auto& e : engines_) {
    lo = std::min(lo, e->events_executed());
    hi = std::max(hi, e->events_executed());
  }
  if (lo == 0) lo = 1;  // an entirely idle shard reads as maximal skew
  metrics_.gauge("shard/imbalance").set(static_cast<std::int64_t>(
      hi * 1000 / lo));
}

std::uint64_t ShardGroup::digest() const {
  std::uint64_t d = engines_[0]->digest();
  for (std::size_t i = 1; i < engines_.size(); ++i) {
    d = Engine::mix64(d ^ engines_[i]->digest());
  }
  return d;
}

std::uint64_t ShardGroup::causal_digest() const {
  std::uint64_t d = 0;
  for (const auto& e : engines_) d += e->causal_digest();
  return d;
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->events_executed();
  return n;
}

Time ShardGroup::now() const {
  Time t = 0;
  for (const auto& e : engines_) t = std::max(t, e->now());
  return t;
}

}  // namespace ulsocks::sim
