#include "tcp/tcp_stack.hpp"

#include <algorithm>
#include <cassert>

namespace ulsocks::tcp {

using os::SockAddr;
using os::SockErr;
using os::SocketError;

namespace {
constexpr std::uint64_t kCwndCap = 1 << 20;  // 1 MB: plenty for a LAN
}

TcpStack::Instruments::Instruments(obs::Scope scope)
    : segments_tx(scope.counter("segments_tx")),
      segments_rx(scope.counter("segments_rx")),
      bytes_tx(scope.counter("bytes_tx")),
      retransmits(scope.counter("retransmits")),
      pure_acks_tx(scope.counter("pure_acks_tx")),
      interrupts(scope.counter("interrupts")),
      rst_tx(scope.counter("rst_tx")),
      window_probes(scope.counter("window_probes")) {}

TcpStack::TcpStack(sim::Engine& eng, const sim::CostModel& model,
                   os::Host& host, nic::NicDevice& nic)
    : os::SocketApi(eng.metrics().gauge("host/recv_scratch_hwm")),
      eng_(&eng),
      model_(model),
      host_(host),
      nic_(nic),
      node_(host.id()),
      activity_(eng),
      ctr_(obs::Scope(eng.metrics(), obs::host_label(host.id(), "/tcp"))),
      bytes_copied_(&eng.metrics().counter("host/bytes_copied")),
      tracer_(eng.tracer()),
      trk_(eng.tracer().track(obs::host_label(host.id()), "tcp")) {
  nic_.set_rx_handler(net::EtherType::kIpv4,
                      [this](net::FramePtr f) { on_frame(std::move(f)); });
}

TcpStack::ConnPtr& TcpStack::conn(int sd) {
  auto it = conns_by_sd_.find(sd);
  if (it == conns_by_sd_.end()) {
    throw SocketError(SockErr::kInvalid, "bad socket descriptor");
  }
  return it->second;
}

const TcpStack::ConnPtr* TcpStack::find_conn(int sd) const {
  auto it = conns_by_sd_.find(sd);
  return it == conns_by_sd_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// SocketApi surface
// ---------------------------------------------------------------------------

sim::Task<int> TcpStack::socket() {
  co_await host_.syscall();
  auto c = std::make_shared<Conn>();
  c->snd_buf_limit = model_.tcp.default_sndbuf_bytes;
  c->rcv_buf_limit = model_.tcp.default_rcvbuf_bytes;
  int sd = next_sd_++;
  c->sd = sd;
  conns_by_sd_[sd] = std::move(c);
  co_return sd;
}

sim::Task<void> TcpStack::bind(int sd, SockAddr local) {
  co_await host_.syscall();
  auto& c = conn(sd);
  if (listeners_.count(local.port)) {
    throw SocketError(SockErr::kInUse, "port already bound");
  }
  c->local = SockAddr{node_, local.port};
  c->bound = true;
}

sim::Task<void> TcpStack::listen(int sd, int backlog) {
  co_await host_.syscall();
  auto& c = conn(sd);
  if (!c->bound) {
    throw SocketError(SockErr::kInvalid, "listen on unbound socket");
  }
  c->state = State::kListen;
  c->backlog = std::max(1, backlog);
  listeners_[c->local.port] = sd;
}

sim::Task<int> TcpStack::accept(int sd, SockAddr* peer) {
  co_await host_.syscall();
  auto listener = conn(sd);
  while (listener->accept_queue.empty() && !listener->closing) {
    co_await activity_.wait();
  }
  if (listener->accept_queue.empty()) {
    throw SocketError(SockErr::kClosed, "listener closed");
  }
  int child_sd = listener->accept_queue.front();
  listener->accept_queue.pop_front();
  auto& child = conn(child_sd);
  if (peer != nullptr) *peer = child->remote;
  co_return child_sd;
}

sim::Task<void> TcpStack::connect(int sd, SockAddr remote) {
  co_await host_.syscall();
  auto c = conn(sd);
  if (c->state != State::kClosed) {
    throw SocketError(SockErr::kInvalid, "connect on active socket");
  }
  if (!c->bound) {
    c->local = SockAddr{node_, next_ephemeral_++};
    c->bound = true;
  }
  c->remote = remote;
  by_tuple_[conn_key(c->local.port, remote.node, remote.port)] = sd;
  c->state = State::kSynSent;
  c->snd_una = 0;
  c->snd_nxt = 1;  // SYN consumes sequence 0
  emit(c, Flags{.syn = true}, 0, {});
  arm_rto(c);
  while (c->state == State::kSynSent) co_await activity_.wait();
  if (c->reset || c->state != State::kEstablished) {
    throw SocketError(SockErr::kRefused, "connection refused");
  }
}

sim::Task<std::size_t> TcpStack::read(int sd, std::span<std::uint8_t> out) {
  const sim::Time t0 = eng_->now();
  co_await host_.syscall();
  auto c = conn(sd);
  while (c->rcv_buf.empty() && !c->peer_fin && !c->reset) {
    co_await activity_.wait();
  }
  if (c->reset) throw SocketError(SockErr::kClosed, "connection reset");
  if (c->rcv_buf.empty()) co_return 0;  // orderly EOF
  std::size_t n = std::min(out.size(), c->rcv_buf.size());
  // Kernel-to-user copy: the cost the paper's substrate eliminates.
  co_await host_.copy(n);
  std::copy_n(c->rcv_buf.data(), n, out.begin());
  *bytes_copied_ += n;
  c->rcv_buf.pop_front(n);
  maybe_send_window_update(c);
  if (tracer_.enabled()) {
    tracer_.complete(trk_, t0, eng_->now() - t0, "read",
                     "\"sd\":" + std::to_string(sd) +
                         ",\"bytes\":" + std::to_string(n));
  }
  co_return n;
}

sim::Task<std::size_t> TcpStack::write(int sd,
                                       std::span<const std::uint8_t> in) {
  const sim::Time t0 = eng_->now();
  co_await host_.syscall();
  auto c = conn(sd);
  if (in.empty()) co_return 0;
  for (;;) {
    if (c->reset || c->fin_queued) {
      throw SocketError(SockErr::kClosed, "write on closed connection");
    }
    if (c->state != State::kEstablished && c->state != State::kCloseWait) {
      throw SocketError(SockErr::kInvalid, "write on non-connected socket");
    }
    if (c->snd_buf.size() < c->snd_buf_limit) break;
    co_await activity_.wait();
  }
  std::size_t space = c->snd_buf_limit - c->snd_buf.size();
  std::size_t n = std::min(space, in.size());
  // User-to-kernel copy.
  co_await host_.copy(n);
  c->snd_buf.append(in.first(n));
  *bytes_copied_ += n;
  try_output(c);
  if (tracer_.enabled()) {
    tracer_.complete(trk_, t0, eng_->now() - t0, "write",
                     "\"sd\":" + std::to_string(sd) +
                         ",\"bytes\":" + std::to_string(n));
  }
  co_return n;
}

sim::Task<void> TcpStack::close(int sd) {
  co_await host_.syscall();
  auto c = conn(sd);
  c->closing = true;
  if (c->state == State::kListen) {
    listeners_.erase(c->local.port);
    // Un-accepted children are torn down gracefully.
    while (!c->accept_queue.empty()) {
      int child_sd = c->accept_queue.front();
      c->accept_queue.pop_front();
      auto& child = conn(child_sd);
      child->closing = true;
      child->fin_queued = true;
      try_output(child);
    }
    conns_by_sd_.erase(sd);
    notify();
    co_return;
  }
  if (c->state == State::kClosed || c->state == State::kSynSent ||
      c->state == State::kDone || c->reset) {
    if (c->bound) {
      by_tuple_.erase(conn_key(c->local.port, c->remote.node,
                               c->remote.port));
    }
    conns_by_sd_.erase(sd);
    notify();
    co_return;
  }
  if (!c->fin_queued) {
    c->fin_queued = true;
    try_output(c);
  }
  maybe_schedule_gc(c);
  notify();
}

sim::Task<void> TcpStack::set_option(int sd, os::SockOpt opt, int value) {
  co_await host_.syscall();
  auto& c = conn(sd);
  switch (opt) {
    case os::SockOpt::kSndBuf:
      c->snd_buf_limit = static_cast<std::uint32_t>(std::max(value, 2048));
      break;
    case os::SockOpt::kRcvBuf:
      c->rcv_buf_limit = static_cast<std::uint32_t>(std::max(value, 2048));
      break;
    case os::SockOpt::kNoDelay:
      c->nodelay = value != 0;
      break;
    default:
      break;  // substrate-only options are ignored by the kernel stack
  }
}

bool TcpStack::readable(int sd) const {
  const ConnPtr* c = find_conn(sd);
  if (c == nullptr) return false;
  const Conn& conn = **c;
  if (conn.state == State::kListen) return !conn.accept_queue.empty();
  return !conn.rcv_buf.empty() || conn.peer_fin || conn.reset;
}

bool TcpStack::writable(int sd) const {
  const ConnPtr* c = find_conn(sd);
  if (c == nullptr) return false;
  const Conn& conn = **c;
  if (conn.reset || conn.fin_queued ||
      (conn.state != State::kEstablished && conn.state != State::kCloseWait)) {
    // write() throws immediately (kClosed / kInvalid): ready in the
    // select() sense so the caller collects the error from the call.
    return true;
  }
  return conn.snd_buf.size() < conn.snd_buf_limit;
}

// ---------------------------------------------------------------------------
// Output path
// ---------------------------------------------------------------------------

std::uint32_t TcpStack::advertised_window(const Conn& c) const {
  // Three quarters of the receive buffer is usable window: Linux 2.4
  // reserves the rest for skb overhead (tcp_adv_win_scale=2); this is what
  // makes the default 16 KB buffer the paper's 340 Mb/s bottleneck.
  std::uint64_t usable = c.rcv_buf_limit / 4 * 3;
  std::uint64_t used = c.rcv_buf.size() + c.ooo_bytes;
  return usable > used ? static_cast<std::uint32_t>(usable - used) : 0;
}

void TcpStack::emit(const ConnPtr& c, Flags flags, std::uint64_t seq,
                    std::span<const std::uint8_t> payload, bool retransmit) {
  Segment seg;
  seg.src_node = c->local.node;
  seg.dst_node = c->remote.node;
  seg.src_port = c->local.port;
  seg.dst_port = c->remote.port;
  seg.seq = seq;
  seg.ack = c->rcv_nxt;
  seg.window = advertised_window(*c);
  seg.flags = flags;

  ++ctr_.segments_tx;
  ctr_.bytes_tx += payload.size();
  if (retransmit) ++ctr_.retransmits;
  if (flags.ack && payload.empty() && !flags.syn && !flags.fin) {
    ++ctr_.pure_acks_tx;
  }
  if (flags.ack) {
    c->pending_ack_segments = 0;  // this segment carries the ack
    c->last_advertised = seg.window;
  }
  transmit(seg, payload);
}

void TcpStack::transmit(const Segment& seg,
                        std::span<const std::uint8_t> payload) {
  // The pooled frame is encoded once here and moved stage to stage: 40
  // header bytes inline, the payload pinned into the NIC's slice pool.
  std::uint64_t wire_bytes = payload.size() + kSegmentHeaderBytes;
  net::FramePtr frame = nic_.frame_pool().acquire();
  frame->dst = net::MacAddress::for_host(seg.dst_node);
  frame->src = nic_.mac();
  frame->type = net::EtherType::kIpv4;
  encode_segment_header_into(seg, frame->payload);
  if (!payload.empty()) frame->body = nic_.slice_pool().copy_in(payload);
  host_.cpu().run(
      model_.tcp.tx_segment_ns + model_.tcp.driver_tx_ns,
      [this, f = std::move(frame), wire_bytes]() mutable {
        nic_.fw_tx(model_.tcp.nic_frame_ns,
                   [this, f = std::move(f), wire_bytes]() mutable {
                     nic_.dma_transfer(wire_bytes,
                                       [this, f = std::move(f)]() mutable {
                                         nic_.mac_send(std::move(f));
                                       });
                   });
      });
}

void TcpStack::send_pure_ack(const ConnPtr& c) {
  emit(c, Flags{.ack = true}, c->snd_nxt, {});
}

void TcpStack::send_rst(const Segment& to) {
  ++ctr_.rst_tx;
  Segment seg;
  seg.src_node = node_;
  seg.dst_node = to.src_node;
  seg.src_port = to.dst_port;
  seg.dst_port = to.src_port;
  seg.seq = to.ack;
  seg.ack = to.seq + 1;
  seg.flags = Flags{.ack = true, .rst = true};
  transmit(seg, {});
}

void TcpStack::try_output(const ConnPtr& c) {
  if (c->state != State::kEstablished && c->state != State::kCloseWait &&
      c->state != State::kFinWait1 && c->state != State::kLastAck) {
    return;
  }
  std::uint64_t wnd = std::min<std::uint64_t>(c->cwnd, c->peer_window);
  for (;;) {
    std::uint64_t inflight = in_flight(*c);
    std::uint64_t sendable_data = c->snd_buf.size() > inflight
                                      ? c->snd_buf.size() - inflight
                                      : 0;
    if (sendable_data == 0) break;
    if (inflight >= wnd) break;
    std::uint64_t len =
        std::min<std::uint64_t>({sendable_data, kMss, wnd - inflight});
    // Nagle: hold sub-MSS segments while data is in flight.
    if (len < kMss && !c->nodelay && inflight > 0 && !c->fin_queued) break;
    *bytes_copied_ += len;
    emit(c, Flags{.ack = true}, c->snd_nxt,
         c->snd_buf.span().subspan(inflight, len));
    c->snd_nxt += len;
    arm_rto(c);
  }
  // FIN goes out once all data is sent.
  if (c->fin_queued && !c->fin_sent && in_flight(*c) == c->snd_buf.size()) {
    c->fin_seq = c->snd_nxt;
    emit(c, Flags{.ack = true, .fin = true}, c->snd_nxt, {});
    c->snd_nxt += 1;
    c->fin_sent = true;
    if (c->state == State::kEstablished) c->state = State::kFinWait1;
    if (c->state == State::kCloseWait) c->state = State::kLastAck;
    arm_rto(c);
  }
}

void TcpStack::maybe_send_window_update(const ConnPtr& c) {

  if (c->state != State::kEstablished && c->state != State::kFinWait1 &&
      c->state != State::kFinWait2) {
    return;
  }
  std::uint32_t adv = advertised_window(*c);
  std::uint32_t threshold =
      std::min<std::uint32_t>(2 * kMss, c->rcv_buf_limit / 4);
  if (adv > c->last_advertised && adv - c->last_advertised >= threshold) {
    send_pure_ack(c);
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpStack::arm_rto(const ConnPtr& c) {
  if (c->rto_armed) return;
  c->rto_armed = true;
  eng_->schedule_after(kRto, [this, c] {
    c->rto_armed = false;
    rto_fire(c);
  });
}

void TcpStack::rto_fire(const ConnPtr& c) {
  if (c->reset || c->state == State::kDone || c->state == State::kClosed) {
    return;
  }
  bool unacked = c->snd_nxt > c->snd_una;
  bool zero_window_blocked =
      c->peer_window == 0 && !c->snd_buf.empty() && !unacked;
  if (!unacked && !zero_window_blocked) return;  // everything acked

  // Zero-window probes do not count toward the give-up limit: a peer that
  // simply isn't reading (compute phase, slow disk) must not get reset, as
  // in real TCP's persist timer.
  if (unacked && ++c->retries > kMaxRetries) {
    fail_conn(c);
    return;
  }

  if (c->state == State::kSynSent) {
    emit(c, Flags{.syn = true}, 0, {}, /*retransmit=*/true);
  } else if (c->state == State::kSynRcvd) {
    emit(c, Flags{.syn = true, .ack = true}, 0, {}, /*retransmit=*/true);
  } else if (unacked) {
    if (c->fin_sent && c->snd_una == c->fin_seq) {
      emit(c, Flags{.ack = true, .fin = true}, c->fin_seq, {},
           /*retransmit=*/true);
    } else {
      std::uint64_t len = std::min<std::uint64_t>(
          {kMss, c->snd_buf.size(), c->snd_nxt - c->snd_una});
      if (len > 0) {
        *bytes_copied_ += len;
        emit(c, Flags{.ack = true}, c->snd_una, c->snd_buf.span().first(len),
             /*retransmit=*/true);
      }
    }
  } else {
    // Zero-window probe: push the first unsent byte past the window.
    ++ctr_.window_probes;
    emit(c, Flags{.ack = true}, c->snd_nxt,
         c->snd_buf.span().subspan(in_flight(*c), 1));
    c->snd_nxt += 1;
  }
  arm_rto(c);
}

void TcpStack::arm_delack(const ConnPtr& c) {
  if (c->delack_armed) return;
  c->delack_armed = true;
  eng_->schedule_after(kDelayedAck, [this, c] {
    c->delack_armed = false;
    if (c->pending_ack_segments > 0 && !c->reset &&
        c->state != State::kDone) {
      send_pure_ack(c);
    }
  });
}

void TcpStack::release_synrcvd(const ConnPtr& child) {
  auto lst = listeners_.find(child->local.port);
  if (lst == listeners_.end()) return;
  auto& listener = conn(lst->second);
  if (listener->synrcvd_count > 0) --listener->synrcvd_count;
}

void TcpStack::fail_conn(const ConnPtr& c) {
  if (c->state == State::kSynRcvd) release_synrcvd(c);
  c->reset = true;
  c->state = State::kDone;
  maybe_schedule_gc(c);
  notify();
}

void TcpStack::maybe_schedule_gc(const ConnPtr& c) {
  // Event-driven reclamation: schedule exactly one linger timer once the
  // application has closed AND both directions have shut down.
  if (!c->closing || c->gc_scheduled) return;
  bool done = c->state == State::kDone || c->reset ||
              (c->fin_acked && c->peer_fin);
  if (!done) return;
  c->gc_scheduled = true;
  eng_->schedule_after(kGcLinger, [this, c] {
    by_tuple_.erase(conn_key(c->local.port, c->remote.node, c->remote.port));
    conns_by_sd_.erase(c->sd);
  });
}

// ---------------------------------------------------------------------------
// Input path
// ---------------------------------------------------------------------------

void TcpStack::on_frame(net::FramePtr frame) {
  // Gather-decode handles inline and sliced payloads through one code
  // path; the gather is the modeled DMA into the kernel ring.
  auto seg = decode_segment_frame(*frame);
  if (!seg) return;
  *bytes_copied_ += seg->payload.size();
  // Stock firmware receive handling, DMA into the kernel ring, then the
  // interrupt-coalescing window.  The segment moves through the event
  // chain; the wire frame returns to its pool as soon as it is decoded.
  nic_.fw_rx(model_.tcp.nic_frame_ns, [this, s = std::move(*seg)]() mutable {
    std::uint64_t bytes = s.payload.size() + kSegmentHeaderBytes;
    nic_.dma_transfer(bytes, [this, s = std::move(s)]() mutable {
      pending_rx_.push_back(std::move(s));
      schedule_interrupt();
    });
  });
}

void TcpStack::schedule_interrupt() {
  bool fire_now =
      pending_rx_.size() >= model_.tcp.rx_coalesce_frames;
  if (irq_scheduled_ && !fire_now) return;
  sim::Duration delay = fire_now ? 0 : model_.tcp.rx_coalesce_ns;
  irq_scheduled_ = true;
  eng_->schedule_after(delay, [this] {
    if (!irq_scheduled_) return;
    irq_scheduled_ = false;
    if (pending_rx_.empty()) return;
    ++ctr_.interrupts;
    if (tracer_.enabled()) tracer_.instant(trk_, eng_->now(), "interrupt");
    host_.cpu().run(model_.tcp.interrupt_ns, [this] {
      // Softirq: process everything coalesced into this interrupt.
      std::deque<Segment> batch;
      batch.swap(pending_rx_);
      for (auto& seg : batch) {
        host_.cpu().run(model_.tcp.rx_segment_ns,
                        [this, seg = std::move(seg)]() mutable {
                          process_segment(std::move(seg));
                        });
      }
    });
  });
}

void TcpStack::process_segment(Segment seg) {
  ++ctr_.segments_rx;
  auto tup = by_tuple_.find(conn_key(seg.dst_port, seg.src_node,
                                     seg.src_port));
  if (tup == by_tuple_.end()) {
    // New connection request?
    auto lst = listeners_.find(seg.dst_port);
    if (lst != listeners_.end() && seg.flags.syn && !seg.flags.ack) {
      auto listener = conn(lst->second);
      // Embryonic (SYN_RCVD) connections count against the backlog, as in
      // real TCP.  A SYN that finds it full is dropped, as 4.4BSD and Linux
      // do: the client's SYN retransmission retries once accept() drains
      // the queue, and only a client that exhausts its retries is refused.
      std::size_t waiting =
          listener->accept_queue.size() + listener->synrcvd_count;
      if (waiting >= static_cast<std::size_t>(listener->backlog)) return;
      ++listener->synrcvd_count;
      auto child = std::make_shared<Conn>();
      child->snd_buf_limit = model_.tcp.default_sndbuf_bytes;
      child->rcv_buf_limit = model_.tcp.default_rcvbuf_bytes;
      child->local = SockAddr{node_, seg.dst_port};
      child->remote = SockAddr{seg.src_node, seg.src_port};
      child->bound = true;
      child->state = State::kSynRcvd;
      child->rcv_nxt = seg.seq + 1;
      child->snd_una = 0;
      child->snd_nxt = 1;
      int child_sd = next_sd_++;
      child->sd = child_sd;
      conns_by_sd_[child_sd] = child;
      by_tuple_[conn_key(seg.dst_port, seg.src_node, seg.src_port)] =
          child_sd;
      // Listen-queue handling beyond the three segments (paper: TCP
      // connection time is 200-250 us in total).
      host_.cpu().run(model_.tcp.accept_overhead_ns, [] {});
      emit(child, Flags{.syn = true, .ack = true}, 0, {});
      arm_rto(child);
      return;
    }
    if (!seg.flags.rst) send_rst(seg);
    return;
  }

  auto c = conn(tup->second);
  int sd = tup->second;

  if (seg.flags.rst) {
    if (c->state == State::kSynRcvd) release_synrcvd(c);
    c->reset = true;
    c->state = State::kDone;
    maybe_schedule_gc(c);
    notify();
    return;
  }

  switch (c->state) {
    case State::kSynSent:
      if (seg.flags.syn && seg.flags.ack && seg.ack == 1) {
        c->snd_una = 1;
        c->rcv_nxt = seg.seq + 1;
        c->peer_window = seg.window;
        c->state = State::kEstablished;
        send_pure_ack(c);
        notify();
      }
      return;
    case State::kSynRcvd:
      if (seg.flags.ack && seg.ack >= 1) {
        c->snd_una = 1;
        c->peer_window = seg.window;
        c->state = State::kEstablished;
        release_synrcvd(c);
        // Hand the connection to accept().
        auto lst = listeners_.find(c->local.port);
        if (lst != listeners_.end()) {
          conn(lst->second)->accept_queue.push_back(sd);
        }
        notify();
        // A piggybacked payload (rare but legal) falls through below.
        if (!seg.payload.empty() || seg.flags.fin) {
          established_input(c, seg);
        }
      }
      return;
    default:
      break;
  }

  established_input(c, seg);
}

void TcpStack::handle_ack_advance(const ConnPtr& c, const Segment& seg) {
  c->peer_window = seg.window;
  if (seg.ack <= c->snd_una) {
    // A pure window update can unblock a sender stalled on a closed
    // window: re-attempt output even though the ack did not advance.
    try_output(c);
    return;
  }
  std::uint64_t new_una = std::min(seg.ack, c->snd_nxt);
  std::uint64_t data_end = c->snd_una + c->snd_buf.size();
  std::uint64_t data_acked = std::min(new_una, data_end) - c->snd_una;
  c->snd_buf.pop_front(static_cast<std::size_t>(data_acked));
  c->snd_una = new_una;
  c->retries = 0;
  c->cwnd = std::min<std::uint64_t>(c->cwnd + kMss, kCwndCap);
  if (c->fin_sent && c->snd_una > c->fin_seq) {
    c->fin_acked = true;
    if (c->state == State::kFinWait1) c->state = State::kFinWait2;
    if (c->state == State::kLastAck) c->state = State::kDone;
    maybe_schedule_gc(c);
  }
  notify();  // writers waiting for buffer space
  try_output(c);
}

void TcpStack::established_input(const ConnPtr& c, Segment& seg) {
  if (seg.flags.ack) handle_ack_advance(c, seg);

  bool advanced = false;
  if (!seg.payload.empty()) {
    std::uint64_t seq = seg.seq;
    std::uint64_t end = seq + seg.payload.size();
    if (end <= c->rcv_nxt) {
      // Entirely duplicate: re-ack so the sender moves on.
      send_pure_ack(c);
    } else if (seq > c->rcv_nxt) {
      // Out of order: stash and send a duplicate ack for the gap.
      if (!c->ooo.count(seq)) {
        c->ooo_bytes += seg.payload.size();
        c->ooo[seq] = std::move(seg.payload);
      }
      send_pure_ack(c);
    } else {
      // In-order (possibly partially duplicate): deliver the new suffix.
      std::size_t skip = static_cast<std::size_t>(c->rcv_nxt - seq);
      c->rcv_buf.append(
          std::span<const std::uint8_t>(seg.payload).subspan(skip));
      *bytes_copied_ += seg.payload.size() - skip;
      c->rcv_nxt = end;
      advanced = true;
      // Drain any now-contiguous out-of-order segments.
      for (auto it = c->ooo.begin();
           it != c->ooo.end() && it->first <= c->rcv_nxt;) {
        std::uint64_t oseq = it->first;
        auto& data = it->second;
        if (oseq + data.size() > c->rcv_nxt) {
          std::size_t oskip = static_cast<std::size_t>(c->rcv_nxt - oseq);
          c->rcv_buf.append(
              std::span<const std::uint8_t>(data).subspan(oskip));
          *bytes_copied_ += data.size() - oskip;
          c->rcv_nxt = oseq + data.size();
        }
        c->ooo_bytes -= data.size();
        it = c->ooo.erase(it);
      }
    }
  }

  if (seg.flags.fin && seg.seq <= c->rcv_nxt && !c->peer_fin) {
    // FIN in order (any data before it has been delivered).
    if (seg.seq + seg.payload.size() == c->rcv_nxt) {
      c->peer_fin = true;
      c->rcv_nxt += 1;
      if (c->state == State::kEstablished) c->state = State::kCloseWait;
      if (c->state == State::kFinWait2 ||
          (c->state == State::kFinWait1 && c->fin_acked)) {
        c->state = State::kDone;
      }
      send_pure_ack(c);
      advanced = false;  // already acked
      maybe_schedule_gc(c);
      notify();
    }
  }

  if (advanced) {
    ++c->pending_ack_segments;
    if (c->pending_ack_segments >= 2) {
      send_pure_ack(c);
    } else {
      arm_delack(c);
    }
    notify();
  }
}

}  // namespace ulsocks::tcp
