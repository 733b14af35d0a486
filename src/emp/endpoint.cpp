#include "emp/endpoint.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "check/invariant.hpp"

namespace ulsocks::emp {

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

/// One message may not exceed what total_frames (16-bit) can describe.
constexpr std::uint32_t kMaxFramesPerMessage = 65'535;

/// Whether a data frame describes a fragment of its own message: an index
/// inside the message, the frame count its size implies, and exactly the
/// bytes the sender cuts at that index.  deliver_fragment writes the
/// fragment at index x fragment size, so any other shape would land
/// outside the message's buffer.
bool fragment_geometry_ok(const EmpHeader& h, std::size_t frag_len,
                          std::uint32_t mtu) {
  if (h.frame_index >= h.total_frames ||
      h.total_frames != frames_for(h.msg_bytes, mtu)) {
    return false;
  }
  const std::uint32_t frag = max_fragment_bytes(mtu);
  return frag_len == std::min(frag, h.msg_bytes - h.frame_index * frag);
}

/// Trace args of an unexpected-queue instant.
std::string uq_args(NodeId from, Tag tag, std::uint32_t bytes) {
  return "\"from\":" + std::to_string(from) + ",\"tag\":" +
         std::to_string(tag) + ",\"bytes\":" + std::to_string(bytes);
}

}  // namespace

void* map_registered(std::size_t bytes) {
  if (kAddressSanitizer) return ::operator new(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_registered(void* p, std::size_t bytes) noexcept {
  if (kAddressSanitizer) {
    ::operator delete(p);
  } else {
    ::munmap(p, bytes);
  }
}

EmpEndpoint::Instruments::Instruments(obs::Scope scope)
    : sends_posted(scope.counter("sends_posted")),
      recvs_posted(scope.counter("recvs_posted")),
      data_frames_tx(scope.counter("data_frames_tx")),
      data_frames_rx(scope.counter("data_frames_rx")),
      acks_tx(scope.counter("acks_tx")),
      acks_rx(scope.counter("acks_rx")),
      nacks_tx(scope.counter("nacks_tx")),
      retransmitted_frames(scope.counter("retransmitted_frames")),
      unmatched_drops(scope.counter("unmatched_drops")),
      too_small_drops(scope.counter("too_small_drops")),
      duplicate_frames(scope.counter("duplicate_frames")),
      stale_frames(scope.counter("stale_frames")),
      reacks(scope.counter("reacks")),
      malformed_frames(scope.counter("malformed_frames")),
      misrouted_frames(scope.counter("misrouted_frames")),
      unexpected_claims(scope.counter("unexpected_claims")),
      unexpected_evictions(scope.counter("unexpected_evictions")),
      descriptors_walked(scope.counter("descriptors_walked")),
      pin_hits(scope.counter("pin_hits")),
      pin_misses(scope.counter("pin_misses")),
      tag_walk_len(scope.histogram("tag_walk_len")),
      desc_queue_depth(scope.histogram("desc_queue_depth")) {}

EmpEndpoint::EmpEndpoint(sim::Engine& eng, const sim::CostModel& model,
                         nic::NicDevice& nic, sim::SerialResource& host_cpu,
                         NodeId self)
    : eng_(&eng),
      model_(model),
      nic_(nic),
      host_cpu_(host_cpu),
      self_(self),
      ctr_(obs::Scope(eng.metrics(), obs::host_label(self, "/emp"))),
      bytes_copied_(&eng.metrics().counter("host/bytes_copied")),
      tracer_(eng.tracer()),
      trk_lib_(tracer_.track(obs::host_label(self), "emp")),
      trk_fw_(tracer_.track(obs::host_label(self), "emp-fw")),
      inv_check_(eng.checks(), "emp.endpoint",
                 [this] { check_invariants(); }) {
  nic_.set_rx_handler(net::EtherType::kEmp,
                      [this](net::FramePtr f) { on_frame(std::move(f)); });
}

void EmpEndpoint::check_invariants() const {
  // Reliability: a send still pending has neither finished nor failed, its
  // cumulative-ACK progress never exceeds the frames that exist, and the
  // give-up counter is within its configured bound.
  // Order-insensitive sweep: asserts per-entry bounds, mutates nothing,
  // schedules nothing — hash order cannot leak into simulated state.
  for (const auto& [id, st] : pending_sends_) {  // NOLINT(ulsan-determinism)
    ULSOCKS_INVARIANT(
        !st->acked_done && !st->failed,
        check::msgf("node%u msg=%u finished send still pending", self_, id));
    ULSOCKS_INVARIANT(
        st->acked_frames <= st->total_frames,
        check::msgf("node%u msg=%u acked %u of %u frames", self_, id,
                    st->acked_frames, st->total_frames));
    ULSOCKS_INVARIANT(
        st->retries <= kMaxRetries,
        check::msgf("node%u msg=%u retries=%u > max=%u", self_, id,
                    st->retries, kMaxRetries));
  }
  // Receive bindings: every in-flight message is homed in exactly one
  // descriptor or unexpected entry, with per-frame accounting in bounds.
  // Order-insensitive sweep, as above: pure per-binding invariant checks.
  for (const auto& [key, b] : bound_) {  // NOLINT(ulsan-determinism)
    ULSOCKS_INVARIANT(
        (b.recv != nullptr) != (b.unexpected != nullptr),
        check::msgf("node%u binding %llx must have exactly one home", self_,
                    static_cast<unsigned long long>(key)));
    const Reassembly& m = b.msg();
    ULSOCKS_INVARIANT(
        m.bound, check::msgf("node%u bound map points at an unbound home",
                             self_));
    ULSOCKS_INVARIANT(
        m.frames_received <= m.total_frames &&
            m.frames_landed <= m.total_frames,
        check::msgf("node%u msg from=%u frame accounting out of bounds: "
                    "received=%u landed=%u total=%u",
                    self_, m.from, m.frames_received, m.frames_landed,
                    m.total_frames));
  }
  for (const auto* u : unexpected_ready_) {
    ULSOCKS_INVARIANT(
        u->msg.bound && u->ready,
        check::msgf("node%u unexpected-ready entry not bound+ready", self_));
  }
  // The host-side match index counts exactly the live walk list.
  ULSOCKS_INVARIANT(
      walk_.empty() || live_slots_.live_through(walk_.size() - 1) ==
                           walk_.size() - walk_tombstones_,
      check::msgf("node%u live-slot counts diverged from the walk list",
                  self_));
  ULSOCKS_INVARIANT(
      unexpected_free_.size() <= unexpected_pool_.size(),
      check::msgf("node%u %zu free unexpected entries in a pool of %zu", self_,
                  unexpected_free_.size(), unexpected_pool_.size()));
  // Translation cache: map and LRU list describe the same set, and the
  // eviction policy keeps it within capacity.
  ULSOCKS_INVARIANT(
      pin_map_.size() == pin_lru_.size(),
      check::msgf("node%u translation cache map/LRU diverged: %zu != %zu",
                  self_, pin_map_.size(), pin_lru_.size()));
  ULSOCKS_INVARIANT(
      pin_lru_.size() <= kTranslationCacheCapacity,
      check::msgf("node%u translation cache over capacity: %zu > %zu", self_,
                  pin_lru_.size(), kTranslationCacheCapacity));
  // Duplicate-suppression history is bounded and consistent.
  ULSOCKS_INVARIANT(
      completed_history_.size() == completed_order_.size() &&
          completed_history_.size() <= kCompletedHistory,
      check::msgf("node%u completed history out of bounds: map=%zu order=%zu "
                  "cap=%zu",
                  self_, completed_history_.size(), completed_order_.size(),
                  kCompletedHistory));
}

// ---------------------------------------------------------------------------
// Host-side operations
// ---------------------------------------------------------------------------

sim::Duration EmpEndpoint::pin_cost(const void* base) {
  auto it = pin_map_.find(base);
  if (it != pin_map_.end()) {
    ++ctr_.pin_hits;
    pin_lru_.splice(pin_lru_.begin(), pin_lru_, it->second);
    return model_.host.pin_cache_hit_ns;
  }
  ++ctr_.pin_misses;
  pin_lru_.push_front(base);
  pin_map_[base] = pin_lru_.begin();
  if (pin_lru_.size() > kTranslationCacheCapacity) {
    pin_map_.erase(pin_lru_.back());
    pin_lru_.pop_back();
  }
  return model_.host.syscall_ns + model_.host.pin_region_ns;
}

sim::Task<SendHandle> EmpEndpoint::post_send(
    NodeId dst, Tag tag, std::span<const std::uint8_t> data) {
  return post_send_sg(dst, tag, {}, data, data.data());
}

sim::Task<SendHandle> EmpEndpoint::post_send_sg(
    NodeId dst, Tag tag, std::span<const std::uint8_t> head,
    std::span<const std::uint8_t> body, const void* pin_base) {
  const sim::Time t0 = eng_->now();
  const std::uint32_t total_bytes =
      static_cast<std::uint32_t>(head.size() + body.size());
  sim::Duration cost = model_.host.desc_build_ns + pin_cost(pin_base) +
                       model_.nic.mailbox_post_ns;
  // Capture the payload before yielding the CPU: the caller's spans only
  // have to outlive the synchronous prefix of this call, so callers may
  // recycle one staging buffer across back-to-back sends.  This is the
  // message's one host copy: it lands in a pooled refcounted slice that
  // every frame references.
  net::PayloadSlice pinned = nic_.slice_pool().gather(head, body);
  *bytes_copied_ += total_bytes;
  co_await host_cpu_.use(cost);

  auto st = std::make_shared<SendState>(*eng_);
  st->dst = dst;
  st->tag = tag;
  st->msg_id = next_msg_id_++;
  st->pinned = std::move(pinned);
  st->total_frames = frames_for(total_bytes, model_.wire.mtu);
  ULSOCKS_INVARIANT(
      st->total_frames <= kMaxFramesPerMessage,
      check::msgf("message of %u bytes exceeds the 16-bit frame count",
                  total_bytes));
  pending_sends_[st->msg_id] = st;
  ++ctr_.sends_posted;

  nic_.fw_tx(model_.nic.fw_tx_post_ns,
             [this, st] { transmit_frames(st, 0, Emit::kFirst); });
  if (tracer_.enabled()) {
    tracer_.complete(trk_lib_, t0, eng_->now() - t0, "post_send",
                     "\"dst\":" + std::to_string(dst) +
                         ",\"bytes\":" + std::to_string(total_bytes));
  }
  co_return st;
}

sim::Task<RecvHandle> EmpEndpoint::post_recv(std::optional<NodeId> src,
                                             Tag tag,
                                             std::span<std::uint8_t> buffer,
                                             bool want_slices) {
  const sim::Time t0 = eng_->now();
  sim::Duration cost = model_.host.desc_build_ns + pin_cost(buffer.data()) +
                       model_.nic.mailbox_post_ns;
  co_await host_cpu_.use(cost);

  auto r = std::make_shared<RecvState>(*eng_);
  r->src_match = src;
  r->tag = tag;
  r->buffer = buffer.data();
  r->capacity = static_cast<std::uint32_t>(buffer.size());
  r->want_slices = want_slices;
  ++ctr_.recvs_posted;

  // File the descriptor with the NIC; it joins the tag-matching walk list
  // in post order.  Unexpected-queue messages are delivered exclusively by
  // reconcile_unexpected() — at filing time here, and at message-completion
  // time in unexpected_ready() — which always scans the walk list in post
  // order.  Claiming directly at post time would hand the message to an
  // arbitrary descriptor and break the FIFO the substrate's byte stream
  // depends on.
  nic_.fw_rx(model_.nic.fw_rx_post_ns, [this, r] {
    if (r->unposted || r->completed) return;
    r->walk_slot = walk_.size();
    walk_.push_back(r);
    live_slots_.push_live();
    by_tag_[r->tag].push_back(r.get());
    ctr_.desc_queue_depth.observe(walk_.size() - walk_tombstones_);
    reconcile_unexpected();
  });
  if (tracer_.enabled()) {
    tracer_.complete(trk_lib_, t0, eng_->now() - t0, "post_recv",
                     "\"tag\":" + std::to_string(tag) +
                         ",\"capacity\":" + std::to_string(buffer.size()));
  }
  co_return r;
}

sim::Task<void> EmpEndpoint::post_unexpected(std::size_t count,
                                             std::uint32_t bytes) {
  // Library-allocated temporary buffers carved from one registered arena:
  // one pin syscall for the batch, one descriptor build each.
  sim::Duration cost =
      static_cast<sim::Duration>(count) * model_.host.desc_build_ns +
      model_.host.syscall_ns + model_.host.pin_region_ns +
      model_.nic.mailbox_post_ns;
  co_await host_cpu_.use(cost);
  nic_.fw_rx(static_cast<sim::Duration>(count) * model_.nic.fw_rx_post_ns,
             [this, count, bytes] {
               for (std::size_t i = 0; i < count; ++i) {
                 auto& u = unexpected_pool_.emplace_back(
                     std::make_unique<UnexpectedEntry>());
                 u->buffer.resize(bytes);
                 u->pos =
                     static_cast<std::uint32_t>(unexpected_pool_.size() - 1);
                 unexpected_free_.insert(u->pos);
               }
             });
}

sim::Task<void> EmpEndpoint::wait_send_local(SendHandle h) {
  co_await h->local_evt.wait();
  co_await host_cpu_.use(model_.host.poll_iteration_ns);
  if (h->failed) throw EmpError("EMP send failed (retries exhausted)");
}

sim::Task<void> EmpEndpoint::wait_send_acked(SendHandle h) {
  co_await h->acked_evt.wait();
  co_await host_cpu_.use(model_.host.poll_iteration_ns);
  if (h->failed) throw EmpError("EMP send failed (retries exhausted)");
}

sim::Task<RecvResult> EmpEndpoint::wait_recv(RecvHandle h) {
  co_await h->done_evt.wait();
  co_await host_cpu_.use(model_.host.poll_iteration_ns);
  co_return h->result;
}

sim::Task<bool> EmpEndpoint::unpost_recv(RecvHandle h) {
  co_await host_cpu_.use(model_.nic.mailbox_post_ns);
  if (h->msg.bound || h->completed) co_return false;
  h->unposted = true;
  nic_.fw_rx(model_.nic.fw_rx_post_ns, [this, h] { walk_remove(h); });
  co_return true;
}

sim::Task<std::optional<RecvResult>> EmpEndpoint::try_claim_unexpected(
    std::optional<NodeId> src, Tag tag, std::span<std::uint8_t> buffer) {
  co_await host_cpu_.use(model_.host.poll_iteration_ns);
  for (auto* u : unexpected_ready_) {
    const Reassembly& m = u->msg;
    bool src_ok = !src.has_value() || *src == m.from;
    if (!src_ok || tag != m.tag || m.msg_bytes > buffer.size()) continue;
    if (tracer_.enabled()) {
      tracer_.instant(trk_lib_, eng_->now(), "uq-claim",
                      uq_args(m.from, m.tag, m.msg_bytes));
    }
    const RecvResult result = claim_unexpected(u, buffer.data());
    co_await host_cpu_.use(model_.memcpy_cost(result.bytes));
    co_return result;
  }
  co_return std::nullopt;
}

EmpEndpoint::UnexpectedEntry* EmpEndpoint::first_free_unexpected(
    std::uint32_t bytes) {
  for (std::uint32_t pos : unexpected_free_) {
    UnexpectedEntry* u = unexpected_pool_[pos].get();
    if (u->buffer.size() >= bytes) return u;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// NIC-side transmit path
// ---------------------------------------------------------------------------

net::FramePtr EmpEndpoint::make_control_frame(NodeId dst,
                                              const EmpHeader& h) {
  net::FramePtr f = nic_.frame_pool().acquire();
  f->dst = net::MacAddress::for_host(dst);
  f->src = nic_.mac();
  f->type = net::EtherType::kEmp;
  encode_header_into(h, f->payload);
  return f;
}

net::FramePtr EmpEndpoint::make_data_frame(const SendHandle& st,
                                           const EmpHeader& h,
                                           std::uint32_t offset,
                                           std::uint32_t len) {
  net::FramePtr f = nic_.frame_pool().acquire();
  f->dst = net::MacAddress::for_host(st->dst);
  f->src = nic_.mac();
  f->type = net::EtherType::kEmp;
  // Zero-copy: the frame carries the 20 header bytes inline and references
  // the pinned payload through a subslice.
  encode_header_into(h, f->payload);
  if (len > 0) f->body = st->pinned.subslice(offset, len);
  return f;
}

void EmpEndpoint::transmit_frames(const SendHandle& st,
                                  std::uint32_t first_frame, Emit why) {
  for (std::uint32_t idx = first_frame; idx < st->total_frames; ++idx) {
    emit_fragment(st, idx, why);
  }
}

void EmpEndpoint::emit_fragment(const SendHandle& st, std::uint32_t idx,
                                Emit why) {
  if (why != Emit::kFirst) ++ctr_.retransmitted_frames;
  if (why == Emit::kResend && tracer_.enabled()) {
    tracer_.instant(trk_fw_, eng_->now(), "retransmit");
  }
  const bool ends_round =
      why != Emit::kRepair && idx + 1 == st->total_frames;
  const std::uint32_t frag = fragment_size();
  const std::uint32_t bytes = st->size_bytes();
  const std::uint32_t offset = idx * frag;
  const std::uint32_t len =
      bytes == 0 ? 0 : std::min<std::uint32_t>(frag, bytes - offset);
  nic_.tx_cpu().run(
      model_.fw_tx_frame_cost(len),
      [this, st, idx, offset, len, ends_round]() mutable {
        nic_.dma_transfer(
            len + kHeaderBytes,
            [this, st = std::move(st), idx, offset, len, ends_round] {
              EmpHeader h;
              h.kind = FrameKind::kData;
              h.src_node = self_;
              h.dst_node = st->dst;
              h.tag = st->tag;
              h.msg_id = st->msg_id;
              h.frame_index = static_cast<std::uint16_t>(idx);
              h.total_frames = st->total_frames;
              h.msg_bytes = st->size_bytes();
              ++ctr_.data_frames_tx;
              nic_.mac_send(make_data_frame(st, h, offset, len));
              if (!ends_round) return;
              if (!st->local_done) {
                st->local_done = true;
                st->local_evt.set();
              }
              arm_retransmit_timer(st);
            });
      });
}

void EmpEndpoint::arm_retransmit_timer(const SendHandle& st) {
  eng_->schedule_after(kRetransmitTimeout, [this, st] {
    if (st->acked_done || st->failed) return;
    if (++st->retries > kMaxRetries) {
      fail_send(st);
      return;
    }
    // Cumulative acks: resend everything past the acknowledged prefix.
    transmit_frames(st, st->acked_frames, Emit::kResend);
  });
}

void EmpEndpoint::fail_send(const SendHandle& st) {
  st->failed = true;
  st->local_evt.set();
  st->acked_evt.set();
  pending_sends_.erase(st->msg_id);
  fire_completion_hook();
}

// ---------------------------------------------------------------------------
// NIC-side receive path
// ---------------------------------------------------------------------------

void EmpEndpoint::on_frame(net::FramePtr frame) {
  const std::optional<EmpHeader> decoded = decode_header(frame->payload);
  if (!decoded) {
    ++ctr_.malformed_frames;
    return;
  }
  const EmpHeader h = *decoded;
  if (h.dst_node != self_) {
    ++ctr_.misrouted_frames;  // not ours (should be filtered by the MAC)
    return;
  }
  switch (h.kind) {
    case FrameKind::kData: {
      // The frame itself rides through the firmware pipeline; its payload
      // backs the fragment until DMA, so no per-frame fragment copy.
      // Fragment length comes from payload_bytes(): data frames carry the
      // fragment in the body, behind the inline header.
      const std::size_t frag_len = frame->payload_bytes() - kHeaderBytes;
      if (!fragment_geometry_ok(h, frag_len, model_.wire.mtu)) {
        ++ctr_.malformed_frames;
        return;
      }
      nic_.fw_rx(model_.fw_rx_frame_cost(frag_len),
                 [this, h, f = std::move(frame)]() mutable {
                   handle_data(h, std::move(f));
                 });
      break;
    }
    case FrameKind::kAck:
      nic_.fw_rx(model_.nic.fw_ack_rx_ns, [this, h] { handle_ack(h); });
      break;
    case FrameKind::kNack:
      nic_.fw_rx(model_.nic.fw_ack_rx_ns, [this, h] { handle_nack(h); });
      break;
  }
}

void EmpEndpoint::handle_data(const EmpHeader& h, net::FramePtr frame) {
  ++ctr_.data_frames_rx;
  const std::uint64_t key = key_of(h.src_node, h.msg_id);

  // A message the receiver already completed must never re-match a fresh
  // descriptor: a retransmission that raced with a slow ack would otherwise
  // be delivered twice.  Re-ack it and drop the frame.
  if (auto hist = completed_history_.find(key);
      hist != completed_history_.end()) {
    ++ctr_.reacks;
    ++ctr_.duplicate_frames;
    send_ack(h.src_node, h.msg_id, hist->second);
    return;
  }

  Binding binding{};
  std::size_t walked = 0;

  if (auto it = bound_.find(key); it != bound_.end()) {
    // Later frame of an in-flight message: the receive record is found
    // directly through the frame's source index — only the FIRST frame of
    // a message pays the pre-posted-queue walk.  (Without this, a receiver
    // with many posted descriptors would pay the full walk on every frame
    // of a bulk message and fall behind the wire.)
    binding = it->second;
    // The frame's geometry was checked against its own header on arrival;
    // it must also describe the message its first frame bound, or its
    // index and length would not fit that buffer.
    const Reassembly& m = binding.msg();
    if (h.total_frames != m.total_frames || h.msg_bytes != m.msg_bytes) {
      ++ctr_.malformed_frames;
      return;
    }
    walked = 1;
  } else {
    // First frame of a message.  The NIC walks every live pre-posted
    // descriptor in post order up to the first unbound one whose source,
    // tag and capacity fit; the host finds that one in the frame's tag list
    // (same post order, same skip rules) and counts the live descriptors up
    // to it, so the modeled walk length is exact without the walk.
    bool too_small_candidate = false;
    if (auto list = by_tag_.find(h.tag); list != by_tag_.end()) {
      for (RecvState* r : list->second) {
        if (r->msg.bound) continue;
        if (r->src_match.has_value() && *r->src_match != h.src_node) continue;
        if (h.msg_bytes > r->capacity) {
          too_small_candidate = true;
          continue;
        }
        binding.recv = walk_[r->walk_slot];
        break;
      }
    }
    walked = binding.recv ? live_slots_.live_through(binding.recv->walk_slot)
                          : walk_.size() - walk_tombstones_;
    // Unexpected queue: checked after every pre-posted descriptor, and
    // walked up to its first free entry that fits (all of it if none
    // does).  High-range tags (connection requests) are excluded so the
    // backlog descriptors alone bound pending connections (§5.1).
    if (!binding.recv && h.tag <= kUnexpectedMaxTag) {
      // If the pool is exhausted, recycle the oldest unclaimed entry:
      // stale control messages from closed connections must not starve
      // live traffic.
      UnexpectedEntry* fit = first_free_unexpected(h.msg_bytes);
      if (fit == nullptr && !unexpected_ready_.empty()) {
        release_unexpected(unexpected_ready_.front());
        ++ctr_.unexpected_evictions;
        fit = first_free_unexpected(h.msg_bytes);
      }
      walked += fit != nullptr ? fit->pos + 1 : unexpected_pool_.size();
      if (fit != nullptr) {
        binding.unexpected = fit;
        unexpected_free_.erase(fit->pos);
        ++ctr_.unexpected_claims;
      }
    }
    if (!binding.recv && binding.unexpected == nullptr) {
      ctr_.descriptors_walked += walked;
      ctr_.tag_walk_len.observe(walked);
      nic_.rx_cpu().run(
          static_cast<sim::Duration>(walked) *
              model_.nic.tag_match_per_desc_ns,
          [] {});
      if (too_small_candidate) {
        ++ctr_.too_small_drops;
        if (tracer_.enabled()) {
          tracer_.instant(trk_fw_, eng_->now(), "drop_too_small");
        }
      } else {
        // No descriptor: drop.  The sender's timeout retransmits, exactly
        // the behaviour the substrate's flow control exists to avoid.
        ++ctr_.unmatched_drops;
        if (tracer_.enabled()) {
          tracer_.instant(trk_fw_, eng_->now(), "drop_unmatched",
                          "\"src\":" + std::to_string(h.src_node) +
                              ",\"tag\":" + std::to_string(h.tag) +
                              ",\"msg\":" + std::to_string(h.msg_id));
        }
      }
      return;
    }
    binding.msg().bind(h);
    if (binding.recv && binding.recv->want_slices) {
      binding.recv->parts.assign(h.total_frames, net::PayloadSlice{});
    }
    bound_[key] = binding;
  }

  ctr_.descriptors_walked += walked;
  ctr_.tag_walk_len.observe(walked);
  if (tracer_.enabled()) {
    tracer_.complete(
        trk_fw_, eng_->now(),
        static_cast<sim::Duration>(walked) * model_.nic.tag_match_per_desc_ns,
        "tag_match");
  }
  nic_.rx_cpu().run(
      static_cast<sim::Duration>(walked) * model_.nic.tag_match_per_desc_ns,
      [this, binding, h, f = std::move(frame)]() mutable {
        deliver_fragment(binding, h, std::move(f));
      });
}

void EmpEndpoint::deliver_fragment(Binding binding, const EmpHeader& h,
                                   net::FramePtr frame) {
  Reassembly& m = binding.msg();
  // A recv binding's shared handle keeps the descriptor alive and bound to
  // its one message, but an unexpected entry is pool storage: by the time
  // this deferred firmware work runs, the entry may have completed, been
  // claimed or evicted, and been re-bound to a DIFFERENT message.  Writing
  // this fragment into the recycled entry would corrupt the new message
  // (and mark it received), so a binding that no longer holds the
  // fragment's (src, msg_id) is dead — drop the fragment.  Per-sender
  // msg_ids never repeat, so a match is unambiguous; the sender keeps
  // retransmitting and the live copy re-binds through the normal tag-match
  // path.
  if (!m.holds(h)) {
    ++ctr_.stale_frames;
    return;
  }

  if (h.frame_index >= m.got.size() || m.got[h.frame_index]) {
    ++ctr_.duplicate_frames;
    // Re-ack the contiguous prefix so a sender that lost our ack makes
    // progress.
    ++ctr_.reacks;
    send_ack(h.src_node, h.msg_id, m.prefix());
    return;
  }
  m.got[h.frame_index] = true;
  ++m.frames_received;

  // Acks are cumulative: they carry the length of the contiguous prefix of
  // received frames, so the sender can resend exactly from the first hole.
  const std::uint32_t prefix = m.prefix();
  const bool all_received = m.frames_received == h.total_frames;
  if (m.frames_received % kAckWindow == 0 || all_received) {
    send_ack(h.src_node, h.msg_id, prefix);
  }

  // Gap detection: a frame far ahead of the first hole triggers a NACK.
  if (!all_received && prefix + 2 * kAckWindow <= h.frame_index) {
    send_nack(h.src_node, h.msg_id, prefix);
  }

  // DMA the fragment to (pinned) memory.  Content moves now; the timing of
  // "landed" is the DMA completion.  The frame dies here — back to its
  // pool.  A slice-hungry descriptor instead takes a reference on the
  // frame's payload slice: the bytes never move, only the refcount does
  // (the slice outlives the frame's return to its pool).  Both homes
  // charge the identical DMA transfer; they differ only in host copies.
  const std::size_t frag_len = frame->payload_bytes() - kHeaderBytes;
  bool took_slice = false;
  if (binding.recv && binding.recv->want_slices && !frame->body.empty() &&
      h.frame_index < binding.recv->parts.size()) {
    binding.recv->parts[h.frame_index] = frame->body;
    took_slice = true;
  }
  if (!took_slice && frag_len > 0) {
    std::uint8_t* dest =
        binding.recv ? binding.recv->buffer : binding.unexpected->buffer.data();
    std::uint32_t offset = h.frame_index * fragment_size();
    frame->copy_payload(kHeaderBytes, {dest + offset, frag_len});
    *bytes_copied_ += frag_len;
  }
  nic_.dma_transfer(frag_len + kHeaderBytes,
                    [this, binding] { fragment_landed(binding); });
}

void EmpEndpoint::fragment_landed(const Binding& binding) {
  Reassembly& m = binding.msg();
  ++m.frames_landed;
  if (!m.all_landed()) return;
  // The completion record is written by the firmware like any other
  // completion, so unexpected messages cannot overtake earlier posted
  // receives still in the completion pipeline.
  nic_.rx_cpu().run(model_.nic.completion_write_ns, [this, binding] {
    if (binding.recv) {
      complete_recv(binding.recv);
    } else {
      unexpected_ready(binding.unexpected);
    }
  });
}

void EmpEndpoint::walk_remove(const RecvHandle& r) {
  // Tombstone instead of std::erase_if: eager removal rescanned the whole
  // walk list per completion — O(n) *host* time per descriptor, which the
  // model never charges for (tag matching pays 550 ns per *live*
  // descriptor in simulated time; that accounting is untouched).  The slot
  // index makes removal O(1); compaction runs only once tombstones
  // outnumber live entries, preserving post order, so N removals cost O(N)
  // amortized.
  const std::size_t slot = r->walk_slot;
  if (slot >= walk_.size() || walk_[slot].get() != r.get()) {
    return;  // never filed (e.g. unposted before the NIC filed it)
  }
  auto list = by_tag_.find(r->tag);
  list->second.erase(
      std::find(list->second.begin(), list->second.end(), r.get()));
  if (list->second.empty()) by_tag_.erase(list);
  walk_[slot].reset();
  live_slots_.kill(slot);
  ++walk_tombstones_;
  if (walk_tombstones_ * 2 > walk_.size()) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < walk_.size(); ++i) {
      if (!walk_[i]) continue;
      walk_[i]->walk_slot = out;
      walk_[out++] = std::move(walk_[i]);
    }
    walk_.resize(out);
    walk_tombstones_ = 0;
    live_slots_.reset_live(out);
  }
  // The drain edge of the queue-depth histogram (filing observes the
  // growth edge).
  ctr_.desc_queue_depth.observe(walk_.size() - walk_tombstones_);
}

void EmpEndpoint::complete_recv(const RecvHandle& r) {
  const Reassembly& m = r->msg;
  r->completed = true;
  r->result = RecvResult{m.from, r->tag, m.msg_bytes};
  bound_.erase(key_of(m.from, m.msg_id));
  remember_completed(m.from, m.msg_id, m.total_frames);
  walk_remove(r);
  r->done_evt.set();
  fire_completion_hook(r.get());
}

void EmpEndpoint::unexpected_ready(UnexpectedEntry* u) {
  if (tracer_.enabled()) {
    tracer_.instant(trk_fw_, eng_->now(), "uq-ready",
                    uq_args(u->msg.from, u->msg.tag, u->msg.msg_bytes));
  }
  u->ready = true;
  unexpected_ready_.push_back(u);
  // A descriptor may have been filed while this message was in flight to
  // the unexpected queue.
  reconcile_unexpected();
  fire_completion_hook();
}

void EmpEndpoint::reconcile_unexpected() {
  // Deliver ready unexpected messages into matching filed descriptors.
  // Each message's tag list is scanned in post order, so delivery respects
  // the same FIFO the NIC's tag matching gives directly-matched messages.
  bool delivered = true;
  while (delivered && !unexpected_ready_.empty()) {
    delivered = false;
    for (auto* u : unexpected_ready_) {
      const Reassembly& m = u->msg;
      auto list = by_tag_.find(m.tag);
      if (list == by_tag_.end()) continue;
      for (RecvState* r : list->second) {
        if (r->msg.bound || r->completed || r->unposted) continue;
        bool src_ok = !r->src_match.has_value() || *r->src_match == m.from;
        if (src_ok && m.msg_bytes <= r->capacity) {
          deliver_unexpected(walk_[r->walk_slot], u);
          delivered = true;
          break;
        }
      }
      if (delivered) break;  // both lists changed; restart the scan
    }
  }
}

void EmpEndpoint::deliver_unexpected(RecvHandle r, UnexpectedEntry* u) {
  if (tracer_.enabled()) {
    tracer_.instant(trk_lib_, eng_->now(), "uq-deliver",
                    uq_args(u->msg.from, u->msg.tag, u->msg.msg_bytes));
  }
  // The descriptor is consumed by the library, never matched at the NIC:
  // it takes over the message the entry reassembled.
  r->msg = u->msg;
  walk_remove(r);
  // The unexpected path costs one extra host memory copy.
  const RecvResult result = claim_unexpected(u, r->buffer);
  host_cpu_.run(model_.memcpy_cost(result.bytes), [this, r, result] {
    r->completed = true;
    r->result = result;
    r->done_evt.set();
    fire_completion_hook(r.get());
  });
}

RecvResult EmpEndpoint::claim_unexpected(UnexpectedEntry* u,
                                         std::uint8_t* dst) {
  const Reassembly& m = u->msg;
  const RecvResult result{m.from, m.tag, m.msg_bytes};
  if (result.bytes > 0) {
    std::memcpy(dst, u->buffer.data(), result.bytes);
    *bytes_copied_ += result.bytes;
  }
  remember_completed(m.from, m.msg_id, m.total_frames);
  release_unexpected(u);
  return result;
}

void EmpEndpoint::release_unexpected(UnexpectedEntry* u) {
  std::erase(unexpected_ready_, u);
  bound_.erase(key_of(u->msg.from, u->msg.msg_id));
  u->ready = false;
  u->msg.clear();
  unexpected_free_.insert(u->pos);
}

void EmpEndpoint::remember_completed(NodeId src, std::uint32_t msg_id,
                                     std::uint16_t total) {
  const std::uint64_t key = key_of(src, msg_id);
  if (completed_history_.emplace(key, total).second) {
    completed_order_.push_back(key);
    if (completed_order_.size() > kCompletedHistory) {
      completed_history_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
  }
}

void EmpEndpoint::send_ack(NodeId to, std::uint32_t msg_id,
                           std::uint32_t count) {
  nic_.tx_cpu().run(model_.nic.fw_ack_tx_ns, [this, to, msg_id, count] {
    EmpHeader h;
    h.kind = FrameKind::kAck;
    h.src_node = self_;
    h.dst_node = to;
    h.msg_id = msg_id;
    h.ack_value = count;
    ++ctr_.acks_tx;
    nic_.mac_send(make_control_frame(to, h));
  });
}

void EmpEndpoint::send_nack(NodeId to, std::uint32_t msg_id,
                            std::uint32_t missing) {
  nic_.tx_cpu().run(model_.nic.fw_ack_tx_ns, [this, to, msg_id, missing] {
    EmpHeader h;
    h.kind = FrameKind::kNack;
    h.src_node = self_;
    h.dst_node = to;
    h.msg_id = msg_id;
    h.ack_value = missing;
    ++ctr_.nacks_tx;
    nic_.mac_send(make_control_frame(to, h));
  });
}

void EmpEndpoint::handle_ack(const EmpHeader& h) {
  ++ctr_.acks_rx;
  auto it = pending_sends_.find(h.msg_id);
  if (it == pending_sends_.end()) return;  // late ack for a finished send
  SendHandle st = it->second;
  if (h.ack_value > st->acked_frames) {
    st->acked_frames = h.ack_value;
    st->retries = 0;  // progress resets the give-up counter
  }
  if (st->acked_frames >= st->total_frames) {
    st->acked_done = true;
    st->acked_evt.set();
    pending_sends_.erase(it);
    fire_completion_hook();
  }
}

void EmpEndpoint::handle_nack(const EmpHeader& h) {
  auto it = pending_sends_.find(h.msg_id);
  if (it == pending_sends_.end()) return;
  SendHandle st = it->second;
  std::uint32_t idx = h.ack_value;
  if (idx >= st->total_frames) return;
  // Immediate single-frame repair; the regular timer still backstops.
  emit_fragment(st, idx, Emit::kRepair);
}

}  // namespace ulsocks::emp
