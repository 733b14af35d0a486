// ulsan fixture: same violations, suppressed with justification.
struct Frame;
struct FramePool;
struct ShardGroup;

void bad_hop(ShardGroup& group, FramePool& pool, Frame& frame) {
  // NOLINTNEXTLINE(ulsan-shard-affinity)
  group.post_remote(0, 1, 100, [&frame] { (void)frame; });
  group.post_remote(0, 1, 200, [&pool] { (void)pool; });  // NOLINT(ulsan-shard-affinity)
}
