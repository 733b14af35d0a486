// ulsan fixture: shard-affinity violations — post_remote outside the
// sanctioned cross-shard transmit path, and handle-smuggling captures.
struct Frame;
struct FramePool;
struct ShardGroup;

void bad_hop(ShardGroup& group, FramePool& pool, Frame& frame) {
  group.post_remote(0, 1, 100, [&frame] { (void)frame; });
  group.post_remote(0, 1, 200, [&pool] { (void)pool; });
}
