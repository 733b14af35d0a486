#include "net/switch.hpp"

#include "check/invariant.hpp"

namespace ulsocks::net {

EthernetSwitch::EthernetSwitch(sim::Engine& eng, const sim::WireCosts& wire,
                               std::size_t port_count)
    : eng_(eng),
      wire_(wire),
      scope_(eng.metrics(), "net/switch"),
      forwarded_(scope_.counter("frames_forwarded")),
      flooded_(scope_.counter("frames_flooded")),
      dropped_(scope_.counter("frames_dropped")),
      bytes_copied_(eng.metrics().counter("host/bytes_copied")),
      tracer_(eng.tracer()),
      trk_(eng.tracer().track("net", "switch")),
      inv_check_(eng.checks(), "net.switch",
                 [this] { check_invariants(); }) {
  pool_.bind_hwm_gauge(scope_.gauge("frame_pool_hwm"));
  ports_.reserve(port_count);
  for (std::size_t i = 0; i < port_count; ++i) {
    auto port = std::make_unique<Port>();
    port->sink.owner = this;
    port->sink.port = i;
    ports_.push_back(std::move(port));
  }
}

void EthernetSwitch::check_invariants() const {
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const Port& port = *ports_[p];
    std::uint64_t bytes = 0;
    for (const auto& f : port.queue) bytes += f->wire_bytes();
    ULSOCKS_INVARIANT(
        bytes == port.queued_bytes,
        check::msgf("port %zu queue accounting diverged: counted=%llu "
                    "recorded=%llu",
                    p, static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(port.queued_bytes)));
    ULSOCKS_INVARIANT(
        port.queued_bytes <= wire_.switch_port_buffer_bytes,
        check::msgf("port %zu egress buffer over bound: %llu > %llu", p,
                    static_cast<unsigned long long>(port.queued_bytes),
                    static_cast<unsigned long long>(
                        wire_.switch_port_buffer_bytes)));
  }
  // Order-insensitive sweep: per-entry range check only, mutates nothing.
  for (const auto& [mac, port] : table_) {  // NOLINT(ulsan-determinism)
    ULSOCKS_INVARIANT(
        port < ports_.size(),
        check::msgf("learning table names port %zu of %zu", port,
                    ports_.size()));
  }
}

void EthernetSwitch::connect(std::size_t port, Link& link, Link::Side side) {
  ULSOCKS_INVARIANT(port < ports_.size(),
                    check::msgf("connect to port %zu of %zu", port,
                                ports_.size()));
  ports_[port]->link = &link;
  ports_[port]->side = side;
  link.attach(side, &ports_[port]->sink, eng_);
}

void EthernetSwitch::ingress(std::size_t port, FramePtr frame) {
  // Learn the source address.  Skip the table write when this port's last
  // learned source is unchanged — the overwhelmingly common case, since a
  // port fronts a single host.
  Port& in = *ports_[port];
  if (!in.learn_valid || in.last_learned_src != frame->src) {
    auto [it, inserted] = table_.try_emplace(frame->src, port);
    if (!inserted && it->second != port) {
      // The MAC moved here from another port: take over its table entry
      // and invalidate the previous owner's learn cache so it re-learns.
      Port& prev = *ports_[it->second];
      if (prev.learn_valid && prev.last_learned_src == frame->src) {
        prev.learn_valid = false;
      }
      it->second = port;
      ++generation_;
    } else if (inserted) {
      ++generation_;
    }
    in.last_learned_src = frame->src;
    in.learn_valid = true;
  }

  // Store-and-forward lookup latency, then route.
  if (tracer_.enabled()) {
    tracer_.complete(trk_, eng_.now(), wire_.switch_latency_ns, "forward");
  }
  eng_.schedule_after(wire_.switch_latency_ns,
                      [this, port, f = std::move(frame)]() mutable {
                        route(port, std::move(f));
                      });
}

void EthernetSwitch::route(std::size_t port, FramePtr frame) {
  Port& in = *ports_[port];
  // Route memo: the last successfully looked-up destination from this
  // port, valid only while the learning table is unchanged.
  if (in.memo_generation == generation_ && in.memo_dst == frame->dst) {
    if (in.memo_out != port) {
      ++forwarded_;
      enqueue(in.memo_out, std::move(frame));
    }
    return;
  }
  auto it =
      frame->dst.is_broadcast() ? table_.end() : table_.find(frame->dst);
  if (it != table_.end()) {
    in.memo_dst = frame->dst;
    in.memo_out = it->second;
    in.memo_generation = generation_;
    if (it->second != port) {
      ++forwarded_;
      enqueue(it->second, std::move(frame));
    }
    // Frames "forwarded" back out the ingress port are dropped, matching
    // real switch behaviour for hosts talking to themselves.
    return;
  }
  // Unknown destination or broadcast: flood pooled copies to all other
  // ports; the original returns to its pool when `frame` dies here.  Each
  // copy duplicates only the inline header and shares the body, so a flood
  // moves header bytes, not payloads.
  ++flooded_;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p == port || ports_[p]->link == nullptr) continue;
    bytes_copied_ += frame->payload.size();
    enqueue(p, pool_.acquire_copy(*frame));
  }
}

void EthernetSwitch::enqueue(std::size_t port, FramePtr frame) {
  Port& out = *ports_[port];
  if (out.link == nullptr) return;
  std::uint64_t bytes = frame->wire_bytes();
  if (out.queued_bytes + bytes > wire_.switch_port_buffer_bytes) {
    ++dropped_;  // drop-tail on egress buffer overflow
    if (tracer_.enabled()) tracer_.instant(trk_, eng_.now(), "drop_tail");
    return;
  }
  out.queued_bytes += bytes;
  out.queue.push_back(std::move(frame));
  if (!out.draining) drain(port);
}

void EthernetSwitch::drain(std::size_t port) {
  Port& out = *ports_[port];
  if (out.queue.empty()) {
    out.draining = false;
    return;
  }
  out.draining = true;
  FramePtr frame = std::move(out.queue.front());
  out.queue.pop_front();
  out.queued_bytes -= frame->wire_bytes();
  sim::Duration ser = out.link->serialization_time(*frame);
  out.link->transmit(out.side, std::move(frame));
  eng_.schedule_after(ser, [this, port] { drain(port); });
}

}  // namespace ulsocks::net
