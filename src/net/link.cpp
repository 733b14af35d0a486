#include "net/link.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "sim/shard.hpp"

namespace ulsocks::net {

DropPolicy drop_nth_policy(std::vector<std::uint64_t> ordinals) {
  // Counts frames per policy instance; ordinals are 1-based.
  auto counter = std::make_shared<std::uint64_t>(0);
  return [counter, ordinals = std::move(ordinals)](const Frame&) {
    ++*counter;
    return std::find(ordinals.begin(), ordinals.end(), *counter) !=
           ordinals.end();
  };
}

DropPolicy random_drop_policy(sim::Rng& rng, double p) {
  return [&rng, p](const Frame&) { return rng.chance(p); };
}

DropPolicy random_drop_policy(std::uint64_t seed, double p) {
  auto rng = std::make_shared<sim::Rng>(seed);
  return [rng, p](const Frame&) { return rng->chance(p); };
}

sim::Duration shard_lookahead(const sim::WireCosts& wire) {
  return sim::serialization_ns(Frame{}.wire_bytes(), wire.link_bps) +
         wire.propagation_ns;
}

void Link::transmit(Side side, FramePtr frame) {
  auto& from = end_[static_cast<int>(side)];
  auto& to = end_[1 - static_cast<int>(side)];
  ++from.sent;
  if (from.drop && from.drop(*frame)) {
    ++from.dropped;
    return;
  }

  const sim::Time arrival =
      from.eng->now() + serialization_time(*frame) + propagation_ns_;
  // EventFn is move-only, so the frame travels in the event itself.
  if (to.eng == from.eng) {
    from.eng->schedule_at(arrival,
                          [sink = to.sink, f = std::move(frame)]() mutable {
                            if (sink) sink->frame_arrived(std::move(f));
                          });
    return;
  }
  sim::ShardGroup* group = from.eng->shard_group();
  ULSOCKS_INVARIANT(group != nullptr && group == to.eng->shard_group(),
                    "link joins two engines of no common shard group");
  // Cross-shard: arrival >= now + serialization(min frame) + propagation
  // = now + shard_lookahead(wire), the bound post_remote checks.
  group->post_remote(from.eng->shard_index(), to.eng->shard_index(), arrival,
                     [sink = to.sink, f = std::move(frame)]() mutable {
                       if (sink) sink->frame_arrived(std::move(f));
                     });
}

}  // namespace ulsocks::net
