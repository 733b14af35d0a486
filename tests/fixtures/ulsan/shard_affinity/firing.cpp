// ulsan fixture: shard-affinity violations — post_remote outside the
// sanctioned cross-shard transmit path, handle-smuggling captures, and a
// hand-written lookahead-matrix entry outside net::Link.
struct Frame;
struct FramePool;
struct ShardGroup;

void bad_hop(ShardGroup& group, FramePool& pool, Frame& frame) {
  group.post_remote(0, 1, 100, [&frame] { (void)frame; });
  group.post_remote(0, 1, 200, [&pool] { (void)pool; });
}

void bad_edge(ShardGroup& group) {
  // Overstates the link latency "to batch harder" — exactly the unsound
  // write the rule exists to catch.
  group.register_edge_lookahead(0, 1, 1'000'000);
}
