#include "sockets/substrate.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "check/invariant.hpp"

namespace ulsocks::sockets {

using os::SockAddr;
using os::SockErr;
using os::SocketError;

namespace {
// Datagram sockets keep no staging descriptors: small messages land on the
// EMP unexpected queue (entries are this large), bigger ones rendezvous.
constexpr std::uint32_t kDgEagerLimit = 4096;

// Lend `[off, off+len)` of a slice-delivered message to the caller's view:
// spans point into the refcounted slices, and the keepalive list pins them
// past the slot's repost.
void append_view_parts(os::RecvView& view, const emp::RecvState& r,
                       std::size_t off, std::size_t len) {
  std::size_t part_start = 0;
  for (const auto& p : r.parts) {
    if (len == 0) break;
    std::size_t part_end = part_start + p.size();
    if (off < part_end && !p.empty()) {
      std::size_t from = off > part_start ? off - part_start : 0;
      std::size_t take = std::min(p.size() - from, len);
      view.parts.emplace_back(p.data() + from, take);
      view.keepalive.push_back(p);
      off += take;
      len -= take;
    }
    part_start = part_end;
  }
}
}  // namespace

EmpSocketStack::Instruments::Instruments(obs::Scope scope)
    : connections_accepted(scope.counter("connections_accepted")),
      connections_initiated(scope.counter("connections_initiated")),
      eager_messages_tx(scope.counter("eager_messages_tx")),
      rendezvous_messages_tx(scope.counter("rendezvous_messages_tx")),
      credit_acks_tx(scope.counter("credit_acks_tx")),
      credits_piggybacked(scope.counter("credits_piggybacked")),
      truncated_datagrams(scope.counter("truncated_datagrams")),
      closes_tx(scope.counter("closes_tx")),
      credit_stall_ns(scope.histogram("credit_stall_ns")) {}

EmpSocketStack::EmpSocketStack(sim::Engine& eng, const sim::CostModel& model,
                               os::Host& host, emp::EmpEndpoint& ep,
                               SubstrateConfig default_config)
    : os::SocketApi(eng.metrics().gauge("host/recv_scratch_hwm")),
      eng_(&eng),
      model_(model),
      host_(host),
      ep_(ep),
      default_cfg_(default_config),
      activity_(eng),
      ctr_(obs::Scope(eng.metrics(),
                      obs::host_label(ep.node_id(), "/sockets"))),
      bytes_copied_(&eng.metrics().counter("host/bytes_copied")),
      tracer_(eng.tracer()),
      trk_(eng.tracer().track(obs::host_label(ep.node_id()), "sockets")),
      inv_check_(eng.checks(), "sockets.substrate",
                 [this] { check_invariants(); }) {
  // Every EMP completion wakes whatever substrate call is blocked.
  ep_.set_completion_hook([this](const emp::RecvState* r) {
    if (r != nullptr) on_recv_completed(r);
    activity_.notify_all();
  });
}

void EmpSocketStack::on_recv_completed(const emp::RecvState* r) {
  auto it = posted_.find(r);
  if (it == posted_.end()) return;  // no slot waits on this descriptor
  const Posted p = it->second;
  posted_.erase(it);
  if (p.conn) {
    ++p.sock->conn_ready;
  } else {
    p.sock->arrived.push_back(p.slot);
    ++p.sock->data_ready;
  }
}

void EmpSocketStack::check_invariants() const {
  for (const Sock* s : live_) {
    if (s->state != Sock::State::kConnected || s->terminated) continue;
    const int sd = s->sd;
    // Credit conservation (§6.1): the peer only returns credits for
    // messages it consumed, so the credits we hold can never exceed the
    // window negotiated at connect time.
    ULSOCKS_INVARIANT(
        s->send_credits <= s->cfg.credits,
        check::msgf("sd=%d credit conservation violated: send_credits=%u > "
                    "credits=%u",
                    sd, s->send_credits, s->cfg.credits));
    // Consumed-but-unacknowledged messages are bounded by the window too:
    // the peer cannot have more messages outstanding than it had credits.
    ULSOCKS_INVARIANT(
        s->consumed_unacked <= s->cfg.credits,
        check::msgf("sd=%d consumed_unacked=%u > credits=%u", sd,
                    s->consumed_unacked, s->cfg.credits));
    // Descriptor-count bounds: N data descriptors and the configured
    // control-descriptor layout ("2N", §6.1) are ceilings, never exceeded.
    const std::uint32_t max_data = s->cfg.data_descriptors();
    ULSOCKS_INVARIANT(
        s->data_slots.size() <= max_data,
        check::msgf("sd=%d data descriptor bound violated: %zu > %u", sd,
                    s->data_slots.size(), max_data));
    ULSOCKS_INVARIANT(
        s->ctrl_slots.size() <= s->cfg.ctrl_descriptors(),
        check::msgf("sd=%d ctrl descriptor bound violated: %zu > %u", sd,
                    s->ctrl_slots.size(), s->cfg.ctrl_descriptors()));
    ULSOCKS_INVARIANT(
        s->cfg.credits == 0 || s->staging_next < s->cfg.credits,
        check::msgf("sd=%d staging ring index %u out of bounds (credits=%u)",
                    sd, s->staging_next, s->cfg.credits));
    // Close accounting (§5.3): the counted close message bounds how many
    // messages we may consume from the peer.
    ULSOCKS_INVARIANT(
        !s->peer_closed || s->data_msgs_consumed <= s->peer_msgs_total,
        check::msgf("sd=%d consumed %llu messages but peer sent %llu", sd,
                    static_cast<unsigned long long>(s->data_msgs_consumed),
                    static_cast<unsigned long long>(s->peer_msgs_total)));
  }
}

EmpSocketStack::SockPtr EmpSocketStack::sock(int sd) const {
  if (find_sock(sd) == nullptr) {
    throw SocketError(SockErr::kInvalid, "bad socket descriptor");
  }
  return socks_[static_cast<std::size_t>(sd) - 1];
}

const EmpSocketStack::Sock* EmpSocketStack::find_sock(int sd) const {
  if (sd <= 0 || static_cast<std::size_t>(sd) > socks_.size()) return nullptr;
  return socks_[static_cast<std::size_t>(sd) - 1].get();
}

void EmpSocketStack::add_sock(SockPtr s) {
  // Sds are handed out in increasing order and each is added as soon as it
  // is handed out, so appending keeps both arrays in sd order.
  ULSOCKS_INVARIANT(static_cast<std::size_t>(s->sd) == socks_.size() + 1,
                    "socket table out of step with sd allocation");
  live_.push_back(s.get());
  socks_.push_back(std::move(s));
}

void EmpSocketStack::drop_sock(int sd) {
  SockPtr& entry = socks_[static_cast<std::size_t>(sd) - 1];
  if (!entry) return;
  live_.erase(std::lower_bound(
      live_.begin(), live_.end(), sd,
      [](const Sock* s, int key) { return s->sd < key; }));
  entry.reset();
}

emp::RegisteredBytes EmpSocketStack::get_arena(std::size_t bytes) {
  auto& bucket = arena_pool_[bytes];
  if (!bucket.empty()) {
    auto arena = std::move(bucket.back());
    bucket.pop_back();
    return arena;
  }
  return emp::RegisteredBytes(bytes);
}

void EmpSocketStack::release_arena(emp::RegisteredBytes arena) {
  if (arena.empty()) return;
  arena_pool_[arena.size()].push_back(std::move(arena));
}

std::span<const std::uint8_t> EmpSocketStack::stage_ctrl(
    std::span<const std::uint8_t> encoded) {
  if (ctrl_staging_.capacity() < 256) ctrl_staging_.reserve(256);
  ULSOCKS_INVARIANT(encoded.size() <= ctrl_staging_.capacity(),
                    "control message exceeds the staging reservation");
  ctrl_staging_.assign(encoded.begin(), encoded.end());
  return ctrl_staging_;
}

emp::Tag EmpSocketStack::alloc_tags(TagRole role) {
  // Prefer fresh tags and recycle oldest-freed last: a late message from a
  // closed connection (a straggling Close or credit ack) must not match a
  // new connection that happens to reuse its tags.  Round-robin over the
  // ~5400 bases per role makes that window astronomically unlikely.
  if (role == TagRole::kLocal) {
    if (next_local_base_ + 3 < 0x4000) {
      emp::Tag t = next_local_base_;
      next_local_base_ = static_cast<emp::Tag>(next_local_base_ + 3);
      return t;
    }
    if (free_local_bases_.empty()) {
      // Tag exhaustion must fail loudly (a compiled-out assert here would
      // hand out colliding tags and corrupt live connections).
      throw SocketError(SockErr::kNoResources,
                        "local tag space exhausted: too many concurrent "
                        "connections");
    }
    emp::Tag t = free_local_bases_.front();
    free_local_bases_.pop_front();
    return t;
  }
  if (next_remote_base_ + 3 < 0x8000) {
    emp::Tag t = next_remote_base_;
    next_remote_base_ = static_cast<emp::Tag>(next_remote_base_ + 3);
    return t;
  }
  if (free_remote_bases_.empty()) {
    throw SocketError(SockErr::kNoResources,
                      "remote tag space exhausted: too many concurrent "
                      "connections");
  }
  emp::Tag t = free_remote_bases_.front();
  free_remote_bases_.pop_front();
  return t;
}

void EmpSocketStack::free_tags(emp::Tag base) {
  if (base >= 0x4000) {
    free_remote_bases_.push_back(base);
  } else {
    free_local_bases_.push_back(base);
  }
}

sim::Task<void> EmpSocketStack::comm_thread_penalty(const SockPtr& s) {
  if (s->cfg.flow == FlowControl::kCommThread) {
    // The polling communication thread costs ~20 us of synchronization per
    // socket operation (measured in the paper, §5.2).
    co_await host_.cpu().use(model_.host.thread_sync_ns);
  }
}

// ---------------------------------------------------------------------------
// Socket lifecycle
// ---------------------------------------------------------------------------

sim::Task<int> EmpSocketStack::socket() {
  co_await host_.cpu().use(model_.host.desc_build_ns);
  auto s = std::make_shared<Sock>();
  s->cfg = default_cfg_;
  int sd = next_sd_++;
  s->sd = sd;
  add_sock(std::move(s));
  co_return sd;
}

sim::Task<void> EmpSocketStack::bind(int sd, SockAddr local) {
  co_await host_.cpu().use(model_.host.desc_build_ns);
  auto s = sock(sd);
  if (s->state != Sock::State::kFresh) {
    throw SocketError(SockErr::kInvalid, "bind on active socket");
  }
  for (const Sock* other : live_) {
    if (other->state == Sock::State::kListening &&
        other->local.port == local.port) {
      throw SocketError(SockErr::kInUse, "port already bound");
    }
  }
  s->local = SockAddr{ep_.node_id(), local.port};
  s->state = Sock::State::kBound;
}

sim::Task<void> EmpSocketStack::listen(int sd, int backlog) {
  auto s = sock(sd);
  if (s->state != Sock::State::kBound) {
    throw SocketError(SockErr::kInvalid, "listen on unbound socket");
  }
  s->backlog = std::max(1, backlog);
  // §5.1: post one connection-request descriptor per backlog entry; a
  // request that finds them all occupied is dropped and retried by EMP's
  // reliability, bounding simultaneous un-accepted connections.
  s->arena = get_arena(static_cast<std::size_t>(s->backlog) * 64);
  for (int i = 0; i < s->backlog; ++i) {
    auto slot = std::make_shared<Slot>();
    slot->buffer = std::span(s->arena).subspan(
        static_cast<std::size_t>(i) * 64, 64);
    slot->handle = co_await ep_.post_recv(std::nullopt,
                                          listen_tag(s->local.port),
                                          slot->buffer);
    track(*s, *slot, /*conn=*/true);
    s->conn_slots.push_back(std::move(slot));
  }
  // Stock the unexpected pool before any client can race us: requests'
  // early data (sent between the initiator's connect and our accept) must
  // have somewhere to land from the very first connection.
  if (s->cfg.unexpected_queue_acks) {
    std::size_t needed = std::max<std::size_t>(2, s->cfg.credits);
    std::size_t have = ep_.unexpected_free_count();
    if (have < needed) {
      co_await ep_.post_unexpected(needed - have, 4096);
    }
  }
  s->state = Sock::State::kListening;
}

sim::Task<void> EmpSocketStack::post_connection_resources(const SockPtr& s) {
  // All temporary buffers come from one arena, registered (pinned) with a
  // single syscall on the first post; subsequent posts hit the EMP
  // translation cache.
  const std::size_t slot_bytes = s->cfg.buffer_bytes + kDataHeaderBytes;
  const bool streaming = s->cfg.data_streaming;
  std::uint32_t ndata = s->cfg.data_descriptors();
  std::uint32_t nctrl = s->cfg.ctrl_descriptors();
  s->arena = get_arena(ndata * slot_bytes + nctrl * 64);
  // One send-staging slot per credit: a write returns as soon as its send
  // is posted, and the credit bound guarantees a slot is never overwritten
  // while the NIC may still read it.
  s->send_staging = get_arena(s->cfg.credits * slot_bytes);
  if (!streaming) s->dg_staging = get_arena(kDgEagerLimit);
  // N data descriptors with temporary buffers (eager data streaming only,
  // see SubstrateConfig::data_descriptors)...
  for (std::uint32_t i = 0; i < ndata; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->buffer = std::span(s->arena).subspan(i * slot_bytes, slot_bytes);
    // Data slots ask for slice delivery: the message stays in refcounted
    // NIC slices and the arena slot is only the pinned fallback home
    // (unexpected-queue arrivals).
    slot->handle = co_await ep_.post_recv(s->peer_node, s->my_data,
                                          slot->buffer, /*want_slices=*/true);
    track(*s, *slot, /*conn=*/false);
    s->data_slots.push_back(std::move(slot));
  }
  // ... plus control descriptors ("2N", §6.1) unless acks ride the
  // unexpected queue (§6.4).
  for (std::uint32_t i = 0; i < nctrl; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->buffer = std::span(s->arena).subspan(
        ndata * slot_bytes + i * 64, 64);
    slot->handle =
        co_await ep_.post_recv(s->peer_node, s->my_ctrl, slot->buffer);
    s->ctrl_slots.push_back(std::move(slot));
  }
  if (s->cfg.unexpected_queue_acks) {
    // Entries are sized to also absorb small data messages that arrive
    // between the initiator's connect() and the acceptor's resource
    // posting (the "early data" the one-exchange connection setup allows).
    std::size_t needed = std::max<std::size_t>(2, s->cfg.credits);
    if (!streaming) needed += s->cfg.credits;  // datagrams also land here
    std::size_t have = ep_.unexpected_free_count();
    if (have < needed) {
      co_await ep_.post_unexpected(needed - have, kDgEagerLimit);
    }
  }
}

sim::Task<void> EmpSocketStack::connect(int sd, SockAddr remote) {
  const sim::Time t0 = eng_->now();
  auto s = sock(sd);
  if (s->state != Sock::State::kFresh && s->state != Sock::State::kBound) {
    throw SocketError(SockErr::kInvalid, "connect on active socket");
  }
  if (s->state == Sock::State::kFresh) {
    s->local = SockAddr{ep_.node_id(), next_ephemeral_++};
  }
  s->remote = remote;
  s->peer_node = remote.node;
  // The initiator allocates both channels (§5.1 data message exchange:
  // everything the server needs travels in the request).
  s->owns_tags = true;
  s->my_data = alloc_tags(TagRole::kLocal);
  s->my_ctrl = static_cast<emp::Tag>(s->my_data + 1);
  s->my_rend = static_cast<emp::Tag>(s->my_data + 2);
  s->peer_data = alloc_tags(TagRole::kRemote);
  s->peer_ctrl = static_cast<emp::Tag>(s->peer_data + 1);
  s->peer_rend = static_cast<emp::Tag>(s->peer_data + 2);
  s->send_credits = s->cfg.credits;
  s->state = Sock::State::kConnecting;
  co_await post_connection_resources(s);

  ConnRequest req;
  req.client_node = s->local.node;
  req.client_port = s->local.port;
  req.data_tag = s->my_data;
  req.ctrl_tag = s->my_ctrl;
  req.rend_tag = s->my_rend;
  req.srv_data_tag = s->peer_data;
  req.srv_ctrl_tag = s->peer_ctrl;
  req.srv_rend_tag = s->peer_rend;
  req.credits = s->cfg.credits;
  req.buffer_bytes = s->cfg.buffer_bytes;
  auto h = co_await ep_.post_send(remote.node, listen_tag(remote.port),
                                  stage_ctrl(encode_conn_request(req)));
  ++ctr_.connections_initiated;
  eng_->spawn(pump(s));

  // connect() completes on the EMP-level acknowledgment of the request:
  // the ack proves a pre-posted backlog descriptor absorbed it.  A full
  // backlog leaves the request unmatched until accept() reposts a
  // descriptor (EMP retranssmits meanwhile); exhausted retries mean nobody
  // is listening.
  bool refused = false;
  try {
    co_await ep_.wait_send_acked(std::move(h));
  } catch (const emp::EmpError&) {
    refused = true;
  }
  if (refused) {
    s->terminated = true;
    co_await cleanup(s);
    throw SocketError(SockErr::kRefused, "connection refused");
  }
  s->state = Sock::State::kConnected;
  if (tracer_.enabled()) {
    tracer_.complete(trk_, t0, eng_->now() - t0, "connect",
                     "\"sd\":" + std::to_string(sd));
  }
  activity_.notify_all();
}

sim::Task<int> EmpSocketStack::complete_accept(const SockPtr& listener,
                                               Slot& slot, SockAddr* peer) {
  // Head-of-backlog connection request (§5.1), decoded from the bytes that
  // arrived only: a short request is malformed, never completed with what
  // the slot held before.
  auto req =
      decode_conn_request(slot.buffer.first(slot.handle->result.bytes));
  // Recycle the descriptor so the backlog depth is maintained.  The repost
  // parks, and until it returns `handle` still tests complete: mark the
  // slot so a pass that overlaps this one does not accept the same
  // request again.
  slot.taken = true;
  --listener->conn_ready;
  slot.handle = co_await ep_.post_recv(
      std::nullopt, listen_tag(listener->local.port), slot.buffer);
  track(*listener, slot, /*conn=*/true);
  slot.taken = false;
  if (!req) co_return -1;  // malformed request: drop

  auto child = std::make_shared<Sock>();
  child->cfg = listener->cfg;
  // Connection parameters are the initiator's: it pre-posted its side
  // already and sized the request accordingly.
  child->cfg.credits = req->credits;
  child->cfg.buffer_bytes = req->buffer_bytes;
  child->local = listener->local;
  child->remote = SockAddr{req->client_node, req->client_port};
  child->peer_node = req->client_node;
  child->peer_data = req->data_tag;
  child->peer_ctrl = req->ctrl_tag;
  child->peer_rend = req->rend_tag;
  child->send_credits = req->credits;
  child->owns_tags = false;  // tags live in the initiator's space
  child->my_data = req->srv_data_tag;
  child->my_ctrl = req->srv_ctrl_tag;
  child->my_rend = req->srv_rend_tag;
  child->state = Sock::State::kConnected;
  co_await post_connection_resources(child);
  // No reply message: the initiator already completed its connect on
  // the EMP ack of the request.
  int child_sd = next_sd_++;
  child->sd = child_sd;
  add_sock(child);
  eng_->spawn(pump(child));
  ++ctr_.connections_accepted;
  if (peer != nullptr) *peer = child->remote;
  if (tracer_.enabled()) tracer_.instant(trk_, eng_->now(), "accept");
  co_return child_sd;
}

sim::Task<int> EmpSocketStack::accept(int sd, SockAddr* peer) {
  // One backlog scan for both entry points: a pass per stack wake-up.  A
  // listener closed meanwhile makes the next pass throw kInvalid.
  std::vector<int> fds;
  std::vector<SockAddr> peers;
  while (co_await accept_many(sd, 1, fds, &peers) == 0) {
    co_await activity_.wait();
  }
  if (peer != nullptr) *peer = peers.front();
  co_return fds.front();
}

sim::Task<std::size_t> EmpSocketStack::accept_many(
    int sd, std::size_t max, std::vector<int>& out,
    std::vector<os::SockAddr>* peers) {
  auto listener = sock(sd);
  if (listener->state != Sock::State::kListening) {
    throw SocketError(SockErr::kInvalid, "accept on non-listening socket");
  }
  // One pass over the pre-posted backlog descriptors, by index: the repost
  // inside complete_accept() co_awaits, and close() may clear conn_slots
  // while we are parked there.  The pass stops once no arrived request is
  // left untaken; the slots past that point would all be skipped.
  std::size_t n = 0;
  for (std::size_t i = 0; n < max && i < listener->conn_slots.size(); ++i) {
    if (listener->state != Sock::State::kListening) break;
    if (listener->conn_ready == 0) break;
    // Shared owner, not a reference into the deque: the slot stays alive
    // across complete_accept()'s suspension even if close() clears
    // conn_slots meanwhile.
    auto slot = listener->conn_slots[i];
    if (!ep_.test_recv(slot->handle) || slot->taken) continue;
    SockAddr peer{};
    int child_sd = co_await complete_accept(listener, *slot, &peer);
    if (child_sd < 0) continue;
    out.push_back(child_sd);
    if (peers != nullptr) peers->push_back(peer);
    ++n;
  }
  co_return n;
}

sim::Task<void> EmpSocketStack::close(int sd) {
  co_await host_.cpu().use(model_.host.desc_build_ns);
  auto s = sock(sd);
  if (s->state == Sock::State::kListening) {
    for (auto& slot : s->conn_slots) {
      bool ok = co_await ep_.unpost_recv(slot->handle);
      (void)ok;  // a matched-but-unaccepted request is simply dropped
    }
    // After the unposts: an accept's repost may have landed meanwhile.
    for (const auto& slot : s->conn_slots) untrack(*slot);
    s->conn_slots.clear();
    release_arena(std::move(s->arena));
    s->state = Sock::State::kClosed;
    drop_sock(sd);
    activity_.notify_all();
    co_return;
  }
  if (s->state != Sock::State::kConnected) {
    drop_sock(sd);
    activity_.notify_all();
    co_return;
  }
  if (s->local_closed) co_return;
  s->local_closed = true;
  ++ctr_.closes_tx;
  // Return any credits the peer is still owed, then notify the close
  // (§5.3: "sends back a closed message to the connected node").
  co_await maybe_send_credit_ack(s, /*force=*/true);
  CtrlMsg m;
  m.type = CtrlType::kClose;
  m.a = static_cast<std::uint32_t>(s->data_msgs_sent);
  m.b = static_cast<std::uint32_t>(s->data_msgs_sent >> 32);
  co_await send_ctrl(s, m);
  activity_.notify_all();  // the pump finishes teardown when both closed
}

sim::Task<void> EmpSocketStack::set_option(int sd, os::SockOpt opt,
                                           int value) {
  co_await host_.cpu().use(model_.host.desc_build_ns);
  auto s = sock(sd);
  // A listener's options configure the connections it will accept.
  bool configurable = s->state == Sock::State::kFresh ||
                      s->state == Sock::State::kBound ||
                      s->state == Sock::State::kListening;
  switch (opt) {
    case os::SockOpt::kDatagram:
      if (!configurable) {
        throw SocketError(SockErr::kInvalid, "mode fixed after connect");
      }
      s->cfg.data_streaming = value == 0;
      break;
    default:
      break;  // kernel-TCP options are no-ops here
  }
}

// ---------------------------------------------------------------------------
// Control channel
// ---------------------------------------------------------------------------

sim::Task<void> EmpSocketStack::send_ctrl(const SockPtr& s, CtrlMsg m) {
  auto h = co_await ep_.post_send(s->peer_node, s->peer_ctrl,
                                  stage_ctrl(encode_ctrl(m)));
  (void)h;  // EMP's reliability delivers it; no need to block
}

void EmpSocketStack::apply_ctrl(const SockPtr& s, const CtrlMsg& m) {
  switch (m.type) {
    case CtrlType::kCreditAck:
      s->send_credits += m.a;
      break;
    case CtrlType::kClose:
      // The close notification carries how many data messages the peer
      // sent; EOF is surfaced only after all of them were consumed, so a
      // close can never overtake in-flight data.
      s->peer_closed = true;
      s->peer_msgs_total =
          static_cast<std::uint64_t>(m.a) |
          (static_cast<std::uint64_t>(m.b) << 32);
      break;
    case CtrlType::kRendReq:
      s->pending_rend.push_back(m);
      break;
    case CtrlType::kRendGrant:
      s->rend_granted[m.b] = true;
      break;
  }
  activity_.notify_all();
}

sim::Task<void> EmpSocketStack::drain_ctrl(const SockPtr& s, bool& progress) {
  // The pump and a blocked read()/write() may both try to drain; the
  // guard keeps exactly one drainer across suspension points.
  if (s->ctrl_drain_busy) co_return;
  s->ctrl_drain_busy = true;
  struct Release {
    bool* flag;
    ~Release() { *flag = false; }
  } release{&s->ctrl_drain_busy};
  if (s->cfg.unexpected_queue_acks) {
    // §6.4: control messages sit on the EMP unexpected queue; claim them
    // from the library without ever posting descriptors for them.
    std::array<std::uint8_t, 64> buf{};
    for (;;) {
      auto r = co_await ep_.try_claim_unexpected(s->peer_node, s->my_ctrl,
                                                 buf);
      if (!r) break;
      if (auto m = decode_ctrl(std::span(buf).first(r->bytes))) {
        apply_ctrl(s, *m);
      }
      progress = true;
    }
    co_return;
  }
  // Pre-posted control descriptors: consume completed ones and repost.
  bool any = true;
  while (any && !s->ctrl_slots.empty()) {
    any = false;
    // The rotation below (push_back + pop_front) moves the deque element
    // while this coroutine is suspended in the awaits; the Slot object
    // itself is heap-stable, so hold the pointee, never a reference to
    // the deque slot.
    Slot* slot = s->ctrl_slots.front().get();
    if (ep_.test_recv(slot->handle)) {
      auto result = co_await ep_.wait_recv(slot->handle);
      if (auto m = decode_ctrl(
              std::span<const std::uint8_t>(slot->buffer)
                  .first(result.bytes))) {
        apply_ctrl(s, *m);
      }
      slot->handle =
          co_await ep_.post_recv(s->peer_node, s->my_ctrl, slot->buffer);
      s->ctrl_slots.push_back(std::move(s->ctrl_slots.front()));
      s->ctrl_slots.pop_front();
      progress = true;
      any = true;
    }
  }
}

DataHeader EmpSocketStack::data_header(const Slot& slot) {
  // Slice-delivered messages keep their bytes in the handle's parts; gather
  // the 4 header bytes instead of reading the (empty) slot buffer.
  if (slot.handle->sliced_delivery()) {
    std::uint8_t hdr[kDataHeaderBytes];
    slot.handle->copy_out(0, std::span<std::uint8_t>(hdr));
    return decode_data_header(hdr);
  }
  return decode_data_header(slot.buffer.data());
}

bool EmpSocketStack::parse_arrived_data_headers(const SockPtr& s) {
  // Only the slots whose descriptor completed since the last parse: the
  // completion hook lists them.  Order does not matter, since piggy-backed
  // credits add.
  if (s->arrived.empty()) return false;
  for (Slot* slot : s->arrived) {
    slot->msg_bytes = slot->handle->result.bytes;
    slot->offset = 0;
    slot->parsed = true;
    if (slot->msg_bytes >= kDataHeaderBytes) {
      DataHeader h = data_header(*slot);
      slot->msg_no = h.msg_no;
      if (h.piggyback_credits > 0) {
        s->send_credits += h.piggyback_credits;  // §6.1 piggy-backed return
      }
    }
  }
  s->arrived.clear();
  activity_.notify_all();
  return true;
}

sim::Task<void> EmpSocketStack::pump(SockPtr s) {
  while (!s->terminated) {
    bool progress = parse_arrived_data_headers(s);
    co_await drain_ctrl(s, progress);
    if (s->local_closed && s->peer_closed) {
      co_await cleanup(s);
      break;
    }
    if (!progress) co_await activity_.wait();
  }
}

sim::Task<void> EmpSocketStack::cleanup(const SockPtr& s) {
  if (s->terminated && s->my_data == 0) co_return;
  s->terminated = true;
  // Arrivals from here on belong to no slot.
  for (const auto& slot : s->data_slots) untrack(*slot);
  s->arrived.clear();
  s->data_ready = 0;
  // §5.3: EMP has no garbage collection — every descriptor must be used or
  // explicitly unposted, or the NIC leaks resources.
  for (auto& slot : s->data_slots) {
    if (!ep_.test_recv(slot->handle)) {
      bool ok = co_await ep_.unpost_recv(slot->handle);
      (void)ok;
    }
  }
  s->data_slots.clear();
  for (auto& slot : s->ctrl_slots) {
    if (!ep_.test_recv(slot->handle)) {
      bool ok = co_await ep_.unpost_recv(slot->handle);
      (void)ok;
    }
  }
  s->ctrl_slots.clear();
  // Drain messages that already reached the unexpected queue so they do
  // not linger in the pool after the tags are retired.
  if (s->cfg.unexpected_queue_acks && s->my_ctrl != 0) {
    emp::RegisteredBytes buf(kDgEagerLimit);
    for (;;) {
      auto r = co_await ep_.try_claim_unexpected(s->peer_node, s->my_ctrl,
                                                 buf);
      if (!r) break;
    }
    for (;;) {
      auto r = co_await ep_.try_claim_unexpected(s->peer_node, s->my_data,
                                                 buf);
      if (!r) break;
    }
  }
  release_arena(std::move(s->arena));
  release_arena(std::move(s->send_staging));
  release_arena(std::move(s->dg_staging));
  if (s->owns_tags && s->my_data != 0) {
    free_tags(s->my_data);
    free_tags(s->peer_data);
    s->my_data = 0;
  }
  s->state = Sock::State::kClosed;
  drop_sock(s->sd);
  activity_.notify_all();
}

sim::Task<void> EmpSocketStack::maybe_send_credit_ack(const SockPtr& s,
                                                      bool force) {
  std::uint32_t threshold = force ? 1 : s->cfg.ack_every();
  if (s->consumed_unacked >= threshold && !s->peer_closed) {
    CtrlMsg m;
    m.type = CtrlType::kCreditAck;
    m.a = s->consumed_unacked;
    s->consumed_unacked = 0;
    ++ctr_.credit_acks_tx;
    co_await send_ctrl(s, m);
  }
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

bool EmpSocketStack::holds_message(const Slot& slot, std::uint16_t msg_no) {
  // A message too short for a header has no number; it is taken where it
  // stands, as before numbering existed.
  if (slot.parsed) {
    return slot.msg_bytes < kDataHeaderBytes || slot.msg_no == msg_no;
  }
  return slot.handle->result.bytes < kDataHeaderBytes ||
         data_header(slot).msg_no == msg_no;
}

EmpSocketStack::Slot* EmpSocketStack::next_data_slot(const Sock& s) const {
  if (s.data_ready == 0) return nullptr;
  // Descriptors bind messages in post order, so without loss the next
  // message sits in the front slot.
  Slot* front = s.data_slots.front().get();
  const bool front_done = ep_.test_recv(front->handle);
  if (front_done && holds_message(*front, s.next_msg_no)) return front;
  // A lost first frame let a later message take an earlier descriptor:
  // look further back, but only if some other slot has completed.
  if (s.data_ready == (front_done ? 1u : 0u)) return nullptr;
  for (const auto& slot : s.data_slots) {
    if (ep_.test_recv(slot->handle) && holds_message(*slot, s.next_msg_no)) {
      return slot.get();
    }
  }
  return nullptr;
}

sim::Task<void> EmpSocketStack::repost_slot(const SockPtr& s, Slot& slot) {
  slot.parsed = false;
  slot.offset = 0;
  slot.msg_bytes = 0;
  slot.handle = co_await ep_.post_recv(s->peer_node, s->my_data, slot.buffer,
                                       /*want_slices=*/true);
  track(*s, slot, /*conn=*/false);
}

sim::Task<std::size_t> EmpSocketStack::read(int sd,
                                            std::span<std::uint8_t> out) {
  const sim::Time t0 = eng_->now();
  std::size_t n = co_await read_impl(sd, out, nullptr);
  if (tracer_.enabled()) {
    tracer_.complete(trk_, t0, eng_->now() - t0, "read",
                     "\"sd\":" + std::to_string(sd) +
                         ",\"bytes\":" + std::to_string(n));
  }
  co_return n;
}

sim::Task<std::size_t> EmpSocketStack::read_view(int sd, os::RecvView& view,
                                                 std::size_t max_bytes) {
  const sim::Time t0 = eng_->now();
  view.reset();
  // The scratch span doubles as the destination for every path that cannot
  // lend its buffers (datagrams, rendezvous, unexpected-queue arrivals);
  // the sliced streaming path fills `view.parts` instead and never touches
  // it.
  note_recv_scratch(os::ensure_recv_scratch(view, max_bytes));
  std::size_t n = co_await read_impl(
      sd, std::span<std::uint8_t>(view.scratch.data(), max_bytes), &view);
  if (n > 0 && view.parts.empty()) {
    view.parts.emplace_back(view.scratch.data(), n);
  }
  if (tracer_.enabled()) {
    tracer_.complete(trk_, t0, eng_->now() - t0, "read_view",
                     "\"sd\":" + std::to_string(sd) +
                         ",\"bytes\":" + std::to_string(n));
  }
  co_return n;
}

sim::Task<std::size_t> EmpSocketStack::read_impl(int sd,
                                                 std::span<std::uint8_t> out,
                                                 os::RecvView* view) {
  auto s = sock(sd);
  if (s->state != Sock::State::kConnected) {
    throw SocketError(SockErr::kInvalid, "read on non-connected socket");
  }
  co_await comm_thread_penalty(s);
  if (s->cfg.flow != FlowControl::kRendezvous && !s->cfg.data_streaming) {
    co_return co_await dg_read(s, out);
  }
  for (;;) {
    (void)parse_arrived_data_headers(s);
    bool drain_progress = false;
    co_await drain_ctrl(s, drain_progress);

    Slot* next = next_data_slot(*s);
    if (next != nullptr) {
      // Binds the pooled Slot object, not the deque element: it is
      // heap-stable under deque rotation and destroyed only at socket
      // teardown by this same task, and the loop re-fetches it on every
      // iteration.
      // NOLINTNEXTLINE(ulsan-coro-ref-across-await)
      Slot& slot = *next;
      if (!slot.parsed) {
        (void)parse_arrived_data_headers(s);
      }
      std::uint32_t payload =
          slot.msg_bytes >= kDataHeaderBytes
              ? slot.msg_bytes - static_cast<std::uint32_t>(kDataHeaderBytes)
              : 0;
      std::size_t n = std::min<std::size_t>(out.size(), payload - slot.offset);
      if (n > 0) {
        // The data-streaming copy (§6.2): temporary buffer -> user buffer.
        // The simulated copy cost is charged either way.  In view mode
        // with slice delivery the bytes are lent to the caller and no host
        // copy happens at all; otherwise copy_out gathers from wherever
        // the message landed.
        co_await host_.copy(n);
        const emp::RecvHandle& rh = slot.handle;
        if (view != nullptr && rh->sliced_delivery()) {
          append_view_parts(*view, *rh, kDataHeaderBytes + slot.offset, n);
        } else {
          rh->copy_out(kDataHeaderBytes + slot.offset, out.first(n));
          *bytes_copied_ += n;
        }
        slot.offset += static_cast<std::uint32_t>(n);
      }
      if (slot.offset >= payload) {
        // Repost at the back, so data_slots stays in EMP post order.
        auto it = std::find_if(
            s->data_slots.begin(), s->data_slots.end(),
            [&slot](const auto& p) { return p.get() == &slot; });
        ULSOCKS_INVARIANT(it != s->data_slots.end(),
                          "consumed data slot left the socket mid-read");
        auto finished = std::move(*it);
        s->data_slots.erase(it);
        --s->data_ready;
        ++s->next_msg_no;
        co_await repost_slot(s, *finished);
        s->data_slots.push_back(std::move(finished));
        ++s->consumed_unacked;
        ++s->data_msgs_consumed;
        co_await maybe_send_credit_ack(s, /*force=*/false);
      }
      co_return n;
    }
    if (!s->pending_rend.empty()) {
      co_return co_await rendezvous_read(s, out);
    }
    if (s->peer_closed && s->data_msgs_consumed >= s->peer_msgs_total) {
      co_return 0;  // orderly EOF: every sent message was consumed
    }
    if (s->local_closed) {
      throw SocketError(SockErr::kInvalid, "read after close");
    }
    co_await activity_.wait();
  }
}

sim::Task<std::size_t> EmpSocketStack::write(
    int sd, std::span<const std::uint8_t> in) {
  const sim::Time t0 = eng_->now();
  std::size_t n = co_await write_impl(sd, in);
  if (tracer_.enabled()) {
    tracer_.complete(trk_, t0, eng_->now() - t0, "write",
                     "\"sd\":" + std::to_string(sd) +
                         ",\"bytes\":" + std::to_string(n));
  }
  co_return n;
}

sim::Task<std::size_t> EmpSocketStack::write_impl(
    int sd, std::span<const std::uint8_t> in) {
  auto s = sock(sd);
  if (s->state != Sock::State::kConnected || s->local_closed) {
    throw SocketError(SockErr::kInvalid, "write on non-connected socket");
  }
  if (s->peer_closed) {
    throw SocketError(SockErr::kClosed, "peer has closed the connection");
  }
  if (in.empty()) co_return 0;
  co_await comm_thread_penalty(s);

  if (s->cfg.flow == FlowControl::kRendezvous) {
    co_return co_await rendezvous_write(s, in);
  }
  if (!s->cfg.data_streaming) {
    // Datagram mode: small messages go eagerly (they can land on the
    // unexpected queue if the reader is late); large ones rendezvous so
    // the DMA goes straight to the user buffer (§6.2).
    if (in.size() > kDgEagerLimit) {
      co_return co_await rendezvous_write(s, in);
    }
    co_return co_await dg_eager_write(s, in);
  }
  co_return co_await eager_write(s, in);
}

sim::Task<void> EmpSocketStack::acquire_credit(const SockPtr& s) {
  const sim::Time t0 = eng_->now();
  while (s->send_credits == 0) {
    if (s->peer_closed) {
      throw SocketError(SockErr::kClosed, "peer closed while awaiting credit");
    }
    bool progress = parse_arrived_data_headers(s);
    co_await drain_ctrl(s, progress);
    if (s->send_credits > 0) break;
    if (!progress) co_await activity_.wait();
  }
  --s->send_credits;
  // Time write() spent blocked on the §6.1 credit window; ~0 when the
  // reader keeps up.
  ctr_.credit_stall_ns.observe(eng_->now() - t0);
}

sim::Task<std::size_t> EmpSocketStack::eager_write(
    const SockPtr& s, std::span<const std::uint8_t> in) {
  // One credit buys one message of up to the peer's temporary-buffer size,
  // which the initiator set equal to its own (§5.1).
  co_await acquire_credit(s);

  std::size_t n = std::min<std::size_t>(in.size(), s->cfg.buffer_bytes);
  const std::size_t slot_bytes = s->cfg.buffer_bytes + kDataHeaderBytes;
  const std::uint8_t* slot =
      s->send_staging.data() + s->staging_next * slot_bytes;
  s->staging_next = (s->staging_next + 1) % s->cfg.credits;
  DataHeader h;
  if (s->cfg.unexpected_queue_acks && s->consumed_unacked > 0) {
    h.piggyback_credits =
        static_cast<std::uint16_t>(std::min<std::uint32_t>(
            s->consumed_unacked, 0xffff));
    ctr_.credits_piggybacked += h.piggyback_credits;
    s->consumed_unacked -= h.piggyback_credits;
  }

  // The stream number the reader consumes this message by.
  h.msg_no = static_cast<std::uint16_t>(s->data_msgs_sent);
  ++ctr_.eager_messages_tx;
  ++s->data_msgs_sent;
  // Zero-copy send: header and user payload are gathered straight into one
  // pinned slice by post_send_sg, and write() returns once the send is
  // posted.  The staging slot is never written; its address is what the
  // translation cache is charged for, so each credit's slot is pinned once
  // and hits the cache from then on.  The simulated time still charges
  // building the message in the registered staging area (a user-space
  // copy).
  std::uint8_t hdr[kDataHeaderBytes];
  encode_data_header(h, hdr);
  co_await host_.copy(n);
  auto handle = co_await ep_.post_send_sg(
      s->peer_node, s->peer_data,
      std::span<const std::uint8_t>(hdr, kDataHeaderBytes), in.first(n),
      slot);
  (void)handle;
  co_return n;
}

sim::Task<std::size_t> EmpSocketStack::dg_eager_write(
    const SockPtr& s, std::span<const std::uint8_t> in) {
  // Datagram eager path: no header, no staging — EMP DMAs straight out of
  // the user buffer (zero copy at the sender, §6.2).
  co_await acquire_credit(s);
  ++ctr_.eager_messages_tx;
  ++s->data_msgs_sent;
  auto handle = co_await ep_.post_send(s->peer_node, s->peer_data, in);
  co_await ep_.wait_send_local(handle);
  co_return in.size();
}

sim::Task<std::size_t> EmpSocketStack::rendezvous_write(
    const SockPtr& s, std::span<const std::uint8_t> in) {
  std::uint32_t id = s->next_rend_id++;
  CtrlMsg req;
  req.type = CtrlType::kRendReq;
  req.a = static_cast<std::uint32_t>(in.size());
  req.b = id;
  co_await send_ctrl(s, req);

  // Block until the receiver posts the descriptor and grants (§5.2): the
  // synchronization that both costs latency and risks deadlock (Figure 7).
  for (;;) {
    bool progress = false;
    co_await drain_ctrl(s, progress);
    if (s->rend_granted.count(id)) break;
    if (s->peer_closed) {
      throw SocketError(SockErr::kClosed, "peer closed during rendezvous");
    }
    if (!progress) co_await activity_.wait();
  }
  s->rend_granted.erase(id);

  ++ctr_.rendezvous_messages_tx;
  ++s->data_msgs_sent;
  // Zero copy: EMP DMAs straight out of the (pinned) user buffer.
  auto handle = co_await ep_.post_send(s->peer_node, s->peer_rend, in);
  co_await ep_.wait_send_local(handle);
  co_return in.size();
}

sim::Task<std::size_t> EmpSocketStack::dg_read(const SockPtr& s,
                                               std::span<std::uint8_t> out) {
  // Datagram receive (§6.2): message-boundary semantics and no temporary-
  // buffer copy on the fast path — when the read is pending before the
  // message arrives, the descriptor points straight at the user buffer.
  for (;;) {
    bool progress = false;
    co_await drain_ctrl(s, progress);

    // Oldest first: a datagram already waiting on the unexpected queue.
    auto claimed = co_await ep_.try_claim_unexpected(s->peer_node, s->my_data,
                                                     s->dg_staging);
    if (claimed) {
      std::size_t n = std::min<std::size_t>(out.size(), claimed->bytes);
      co_await host_.copy(n);
      std::memcpy(out.data(), s->dg_staging.data(), n);
      *bytes_copied_ += n;
      if (n < claimed->bytes) ++ctr_.truncated_datagrams;
      ++s->consumed_unacked;
      ++s->data_msgs_consumed;
      co_await maybe_send_credit_ack(s, /*force=*/false);
      co_return n;
    }
    if (!s->pending_rend.empty()) {
      co_return co_await rendezvous_read(s, out);
    }
    if (s->peer_closed && s->data_msgs_consumed >= s->peer_msgs_total) {
      co_return 0;  // orderly EOF
    }
    if (s->local_closed) {
      throw SocketError(SockErr::kInvalid, "read after close");
    }

    // Nothing waiting: post a descriptor for the next datagram.  If the
    // user buffer can hold any eager datagram, DMA goes straight into it.
    bool direct = out.size() >= kDgEagerLimit;
    std::span<std::uint8_t> target =
        direct ? out : std::span<std::uint8_t>(s->dg_staging);
    auto h = co_await ep_.post_recv(s->peer_node, s->my_data, target);
    bool matched = true;
    while (!ep_.test_recv(h)) {
      bool unpost_and_retry = false;
      if (!s->pending_rend.empty()) unpost_and_retry = true;
      if (s->peer_closed && s->data_msgs_consumed >= s->peer_msgs_total) {
        unpost_and_retry = true;
      }
      if (unpost_and_retry) {
        bool removed = co_await ep_.unpost_recv(h);
        if (removed) {
          matched = false;
          break;  // re-run the outer loop (rendezvous or EOF)
        }
        continue;  // raced with a match; consume it
      }
      bool p2 = false;
      co_await drain_ctrl(s, p2);
      if (ep_.test_recv(h)) break;
      if (!p2) co_await activity_.wait();
    }
    if (!matched) continue;
    auto result = co_await ep_.wait_recv(h);
    std::size_t n = std::min<std::size_t>(out.size(), result.bytes);
    if (!direct) {
      co_await host_.copy(n);
      std::memcpy(out.data(), s->dg_staging.data(), n);
      *bytes_copied_ += n;
    }
    if (n < result.bytes) ++ctr_.truncated_datagrams;
    ++s->consumed_unacked;
    ++s->data_msgs_consumed;
    co_await maybe_send_credit_ack(s, /*force=*/false);
    co_return n;
  }
}

sim::Task<std::size_t> EmpSocketStack::rendezvous_read(
    const SockPtr& s, std::span<std::uint8_t> out) {
  CtrlMsg req = s->pending_rend.front();
  s->pending_rend.pop_front();
  std::uint32_t bytes = req.a;

  CtrlMsg grant;
  grant.type = CtrlType::kRendGrant;
  grant.b = req.b;

  if (out.size() >= bytes) {
    // Zero copy: DMA directly into the user buffer.
    auto handle =
        co_await ep_.post_recv(s->peer_node, s->my_rend, out.first(bytes));
    co_await send_ctrl(s, grant);
    auto result = co_await ep_.wait_recv(handle);
    ++s->data_msgs_consumed;
    co_return result.bytes;
  }
  // User buffer too small: land in a pooled arena and truncate (datagram
  // semantics).  The arena — not a fresh vector — keeps the address the
  // EMP translation cache sees stable across connections.
  auto tmp = get_arena(bytes);
  auto handle = co_await ep_.post_recv(s->peer_node, s->my_rend, tmp);
  co_await send_ctrl(s, grant);
  auto result = co_await ep_.wait_recv(handle);
  std::size_t n = std::min<std::size_t>(out.size(), result.bytes);
  co_await host_.copy(n);
  std::memcpy(out.data(), tmp.data(), n);
  *bytes_copied_ += n;
  release_arena(std::move(tmp));
  ++ctr_.truncated_datagrams;
  ++s->data_msgs_consumed;
  co_return n;
}

bool EmpSocketStack::readable(int sd) const {
  const Sock* sp = find_sock(sd);
  if (sp == nullptr) return false;
  const Sock& s = *sp;
  if (s.state == Sock::State::kListening) return s.conn_ready > 0;
  if (s.state != Sock::State::kConnected) return false;
  if (!s.cfg.data_streaming &&
      ep_.has_unexpected_ready(s.peer_node, s.my_data)) {
    return true;  // a datagram is waiting on the unexpected queue
  }
  return next_data_slot(s) != nullptr || !s.pending_rend.empty() ||
         s.peer_closed;
}

bool EmpSocketStack::writable(int sd) const {
  const Sock* sp = find_sock(sd);
  if (sp == nullptr) return false;
  const Sock& s = *sp;
  if (s.state != Sock::State::kConnected || s.local_closed || s.peer_closed) {
    // write() throws immediately (kInvalid / kClosed): ready in the
    // select() sense so the caller collects the error from the call.
    return true;
  }
  if (s.cfg.flow == FlowControl::kRendezvous) {
    // Rendezvous writes are not credit-gated; the handshake itself may
    // still park transiently, which ring drivers tolerate.
    return true;
  }
  return s.send_credits > 0;
}

}  // namespace ulsocks::sockets
