// ulsan fixture: reference-capturing lambdas handed to every entry point
// that defers a callback through the event queue — each lambda outlives
// the enclosing frame.
struct Engine {
  enum class StreamId : unsigned {};
  template <typename F>
  void schedule_after(unsigned long delay, F&& fn);
  template <typename F>
  void schedule_at(StreamId s, unsigned long t, F&& fn);
};
struct SerialResource {
  template <typename F>
  unsigned long run(unsigned long cost, F&& done);
};
struct NicDevice {
  template <typename F>
  void fw_tx(unsigned long cost, F&& fn);
  template <typename F>
  void fw_rx(unsigned long cost, F&& fn);
  template <typename F>
  void dma_transfer(unsigned long bytes, F&& done);
};
struct ShardGroup {
  template <typename F>
  void post_remote(unsigned src, unsigned dst, unsigned long t, F&& fn);
};

void arm(Engine& eng, Engine::StreamId s, SerialResource& cpu,
         SerialResource* dma, NicDevice& nic, ShardGroup& group) {
  int hits = 0;
  eng.schedule_after(100, [&hits] { ++hits; });
  eng.schedule_at(s, 100, [&hits] { ++hits; });
  cpu.run(100, [&hits] { ++hits; });
  dma->run(100, [&] { ++hits; });
  nic.fw_tx(100, [&hits] { ++hits; });
  nic.fw_rx(100, [&hits] { ++hits; });
  nic.dma_transfer(64, [&hits] { ++hits; });
  group.post_remote(0, 1, 100, [&hits] { ++hits; });
}
