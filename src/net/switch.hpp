// Store-and-forward Ethernet switch with MAC learning (the Packet Engines
// switch of the paper's testbed).
//
// A frame is fully serialized onto the ingress link (modelled by Link)
// before the switch sees it — that is the "store".  The switch then charges
// its forwarding latency, looks up the destination in the learning table
// and queues the frame on the egress port, which drains at line rate.
// Egress queues are byte-limited and drop-tail.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "check/registry.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ulsocks::net {

class EthernetSwitch {
 public:
  EthernetSwitch(sim::Engine& eng, const sim::WireCosts& wire,
                 std::size_t port_count);

  /// Attach port `port` to `side` of `link`.  The switch becomes the sink
  /// for frames arriving at that side.
  void connect(std::size_t port, Link& link, Link::Side side);

  [[nodiscard]] std::uint64_t frames_flooded() const {
    return flooded_.value();
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return dropped_.value();
  }
  [[nodiscard]] std::size_t learned_macs() const { return table_.size(); }

  /// Cross-layer invariants: per-port byte accounting matches the queued
  /// frames and respects the drop-tail buffer bound; the learning table
  /// only names real ports.  Registered with the engine's checker
  /// registry at construction.
  void check_invariants() const;

 private:
  struct Port;

  /// FrameSink adapter: routes link deliveries to ingress(port).
  struct PortSink final : FrameSink {
    EthernetSwitch* owner = nullptr;
    std::size_t port = 0;
    void frame_arrived(FramePtr frame) override {
      owner->ingress(port, std::move(frame));
    }
  };

  struct Port {
    Link* link = nullptr;
    Link::Side side = Link::Side::kA;
    PortSink sink;
    std::deque<FramePtr> queue;
    std::uint64_t queued_bytes = 0;
    bool draining = false;
    // Hot-path caches.  A port usually fronts one host, so its source
    // address and the destination it talks to repeat frame after frame;
    // both caches skip a hash lookup per frame.  The learn cache is
    // invalidated port-locally when another port steals its source MAC
    // (the only way its table entry can change under it); the route memo
    // is stamped with the table generation, so any table write anywhere
    // invalidates it.
    MacAddress last_learned_src{};
    bool learn_valid = false;
    MacAddress memo_dst{};
    std::size_t memo_out = 0;
    std::uint64_t memo_generation = 0;  // 0 = empty (generation_ starts at 1)
  };

  void ingress(std::size_t port, FramePtr frame);
  void route(std::size_t port, FramePtr frame);
  void enqueue(std::size_t port, FramePtr frame);
  void drain(std::size_t port);

  sim::Engine& eng_;
  sim::WireCosts wire_;
  FramePool pool_;  // recycles flood copies
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<MacAddress, std::size_t> table_;
  std::uint64_t generation_ = 1;  // bumped on every learning-table write
  obs::Scope scope_;  // "net/switch" registry prefix
  obs::Counter& forwarded_;
  obs::Counter& flooded_;
  obs::Counter& dropped_;
  obs::Counter& bytes_copied_;  // engine-wide "host/bytes_copied"
  obs::Tracer& tracer_;
  std::uint32_t trk_;  // ("net", "switch") timeline track

  // Last member: deregisters before the state it inspects is torn down.
  check::ScopedChecker inv_check_;
};

}  // namespace ulsocks::net
