#include "sim/shard.hpp"

#include <algorithm>
#include <utility>

#include "check/invariant.hpp"

namespace ulsocks::sim {

ShardGroup::ShardGroup(std::size_t shards, Duration lookahead,
                       std::uint64_t seed)
    : lookahead_(lookahead),
      remote_events_(metrics_.counter("shard/remote_events")) {
  ULSOCKS_INVARIANT(shards >= 1, "ShardGroup needs at least one shard");
  ULSOCKS_INVARIANT(lookahead >= 1,
                    "zero lookahead admits same-instant cross-shard "
                    "causality");
  engines_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    engines_.push_back(std::make_unique<Engine>(seed + i));
    engines_.back()->group_ = this;
    engines_.back()->shard_index_ = static_cast<std::uint32_t>(i);
    engines_.back()->tracer_ = &tracer_;
  }
  // Registered up front so a snapshot taken before run() carries it too.
  (void)metrics_.gauge("shard/imbalance");
}

void ShardGroup::post_remote(std::uint32_t src, std::uint32_t dst, Time t,
                             EventFn fn) {
  const std::size_t n = engines_.size();
  ULSOCKS_INVARIANT(src < n && dst < n && src != dst,
                    "post_remote: bad shard pair");
  // The guarantee earliest-first stepping rests on: a cross-shard effect
  // never lands closer than the lookahead ahead of its source's clock.
  ULSOCKS_INVARIANT(
      t >= engines_[src]->now() + lookahead_,
      check::msgf("cross-shard post violates lookahead: t=%llu < "
                  "src_now=%llu + lookahead=%llu (%u -> %u)",
                  static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(engines_[src]->now()),
                  static_cast<unsigned long long>(lookahead_), src, dst));
  engines_[dst]->schedule_at(t, std::move(fn));
  ++remote_events_;
}

void ShardGroup::run(unsigned /*threads*/) {
  // Each step runs the earliest shard through one instant, so events run
  // in non-decreasing time across the group.  A post lands at least the
  // lookahead past its source's clock, and every other clock is at or
  // below that one, so it always lands in its destination's future.
  for (;;) {
    Engine* next = nullptr;
    Time t = 0;
    for (const auto& e : engines_) {
      const std::optional<Time> te = e->next_event_time();
      if (te && (next == nullptr || *te < t)) {
        next = e.get();
        t = *te;
      }
    }
    if (next == nullptr) break;
    next->run_until(t);
    if (next->stop_requested()) break;
  }
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
