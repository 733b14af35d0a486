// EMP endpoint: the host API plus the NIC-resident protocol engine.
//
// Mirrors the EMP of Shivam et al. (SC'01) as the paper describes it:
//   - the host posts transmit/receive descriptors (one syscall pins and
//     translates the buffer on first touch; a translation cache absorbs
//     later posts of the same region);
//   - the NIC firmware fragments messages into MTU frames, DMAs data
//     directly between host memory and the wire (zero copy, no NIC
//     buffering), and matches incoming frames against pre-posted
//     descriptors by walking them in post order (550 ns per walked
//     descriptor);
//   - reliability is NIC-to-NIC: cumulative ACKs every `ack_window` frames
//     (4 in the paper), NACK on a detected gap, sender-side retransmission
//     on timeout; unmatched messages are dropped and resent by the sender;
//   - an optional unexpected-message queue catches unmatched arrivals in
//     temporary buffers, checked after all pre-posted descriptors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "check/registry.hpp"
#include "emp/wire.hpp"
#include "net/payload_slice.hpp"
#include "nic/nic_device.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace ulsocks::emp {

class EmpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frames per NIC-level acknowledgment (the paper uses 4).
inline constexpr std::uint32_t kAckWindow = 4;
/// Sender-side retransmission timeout for unacknowledged frames.  Kept
/// well above the worst receive-side firmware backlog so acks delayed by a
/// busy NIC do not trigger spurious retransmission.
inline constexpr sim::Duration kRetransmitTimeout = 10'000'000;  // 10 ms
/// Give up (fail the send) after this many retransmission rounds.
inline constexpr std::uint32_t kMaxRetries = 50;
/// Translation/pin cache capacity, in distinct regions.
inline constexpr std::size_t kTranslationCacheCapacity = 1024;
/// Completed (src, msg) pairs remembered for re-acking late duplicates.
/// Must cover every message the endpoint can complete within one
/// retransmission horizon: an entry evicted while the sender is still
/// retransmitting lets the duplicate re-match a fresh descriptor and be
/// delivered twice (observed downstream as credit over-return).  C10K
/// workloads complete several thousand messages per kRetransmitTimeout
/// during an accept storm, so the window is sized for that rate with margin
/// (~16 B/entry; memory stays trivial).
inline constexpr std::size_t kCompletedHistory = 16384;
/// Messages with tags above this never use the unexpected queue.  The
/// substrate reserves the high-bit tag range for connection requests, which
/// must be bounded by the pre-posted backlog descriptors alone (§5.1)
/// rather than absorbed by unexpected buffers.
inline constexpr Tag kUnexpectedMaxTag = 0x7fff;

/// Registered regions of at least this many bytes get their own anonymous
/// mapping; smaller ones share heap pages.
inline constexpr std::size_t kRegisteredMapBytes = 64 * 1024;

/// One registered region of `bytes` as its own mapping, and its release.
/// Under AddressSanitizer both use the heap instead, so the sanitized
/// gate's malloc fill byte still exposes reads of bytes nothing wrote
/// (DESIGN.md §7).
[[nodiscard]] void* map_registered(std::size_t bytes);
void unmap_registered(void* p, std::size_t bytes) noexcept;

/// Allocator for registered memory: value-construction (`v(n)`, `resize`)
/// default-initializes, so a byte buffer comes back as untouched pages.
/// Construction from a value still copies it (std::construct_at).  A
/// region of kRegisteredMapBytes or more is mapped on its own, as pinned
/// memory is page-granular: the pages resident in it are the ones written
/// since it was allocated, and releasing it returns them.  Carved from the
/// heap instead, it would reuse whatever blocks earlier frees left, with
/// whichever of their pages happened to be resident, so the resident set
/// would follow the heap's layout rather than what the simulation wrote.
template <class T>
struct RegisteredAllocator : std::allocator<T> {
  [[nodiscard]] T* allocate(std::size_t n) {
    if (n * sizeof(T) < kRegisteredMapBytes) {
      return std::allocator<T>::allocate(n);
    }
    return static_cast<T*>(map_registered(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < kRegisteredMapBytes) {
      std::allocator<T>::deallocate(p, n);
    } else {
      unmap_registered(p, n * sizeof(T));
    }
  }
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A simulated registered (pinned) region: the substrate's arenas and
/// staging rings, and EMP's unexpected-queue buffers.  Allocating one
/// writes nothing, so the OS commits a page only when EMP or a copy first
/// writes into it.  Every read of such a buffer follows a write of the
/// same bytes (a delivered fragment, a claimed message); DESIGN.md §5
/// lists them.
using RegisteredBytes =
    std::vector<std::uint8_t, RegisteredAllocator<std::uint8_t>>;

struct RecvResult {
  NodeId src = 0;
  Tag tag = 0;
  std::uint32_t bytes = 0;
};

/// Shared state of one posted send.  Obtained from post_send; the handle
/// keeps the state alive until the caller is done observing it.
struct SendState {
  explicit SendState(sim::Engine& eng) : local_evt(eng), acked_evt(eng) {}
  NodeId dst = 0;
  Tag tag = 0;
  std::uint32_t msg_id = 0;
  net::PayloadSlice pinned;  // refcounted pinned payload every frame slices
  std::uint16_t total_frames = 0;
  std::uint32_t acked_frames = 0;
  std::uint32_t retries = 0;
  bool local_done = false;  // every frame DMA'd and handed to the MAC
  bool acked_done = false;  // receiver acknowledged the whole message
  bool failed = false;
  sim::ManualEvent local_evt;
  sim::ManualEvent acked_evt;

  /// Total message payload size.
  [[nodiscard]] std::uint32_t size_bytes() const noexcept {
    return static_cast<std::uint32_t>(pinned.size());
  }
};
using SendHandle = std::shared_ptr<SendState>;

/// Reassembly state of one incoming message in the home its first frame
/// bound: a pre-posted descriptor or an unexpected-queue buffer.
struct Reassembly {
  bool bound = false;
  NodeId from = 0;
  Tag tag = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t total_frames = 0;
  std::uint32_t msg_bytes = 0;
  std::vector<bool> got;  // per frame index: fragment received
  std::uint32_t frames_received = 0;
  std::uint32_t frames_landed = 0;  // fragments whose DMA completed

  /// Bind to the message `h` is a frame of, with no fragment received.
  void bind(const EmpHeader& h) {
    bound = true;
    from = h.src_node;
    tag = h.tag;
    msg_id = h.msg_id;
    total_frames = h.total_frames;
    msg_bytes = h.msg_bytes;
    got.assign(h.total_frames, false);
    frames_received = 0;
    frames_landed = 0;
  }

  /// Unbind: the message left this home.
  void clear() {
    bound = false;
    got.clear();
    frames_received = 0;
    frames_landed = 0;
  }

  /// Whether this record is bound to the message `h` is a frame of.
  [[nodiscard]] bool holds(const EmpHeader& h) const noexcept {
    return bound && from == h.src_node && msg_id == h.msg_id;
  }

  /// Frames received without a hole from index 0: what a cumulative ack
  /// carries, and the first frame a NACK asks for.
  [[nodiscard]] std::uint32_t prefix() const noexcept {
    std::uint32_t n = 0;
    while (n < got.size() && got[n]) ++n;
    return n;
  }

  /// Every fragment arrived and its DMA into host memory completed.
  [[nodiscard]] bool all_landed() const noexcept {
    return frames_received == total_frames && frames_landed == total_frames;
  }
};

/// Shared state of one posted receive.
struct RecvState {
  explicit RecvState(sim::Engine& eng) : done_evt(eng) {}
  std::optional<NodeId> src_match;  // nullopt: wildcard source
  Tag tag = 0;
  std::uint8_t* buffer = nullptr;
  std::uint32_t capacity = 0;
  Reassembly msg;  // bound when the first frame of a message matches
  bool completed = false;
  bool unposted = false;
  // Index of this descriptor in the endpoint's walk list while filed;
  // makes removal a single O(1) tombstone write (see walk_remove).
  std::size_t walk_slot = ~std::size_t{0};
  // The caller asked to receive fragments as refcounted slices (one per
  // frame index) instead of a contiguous copy into `buffer`.  `parts` is
  // sized at bind time; messages that arrive via the unexpected queue are
  // still materialized into `buffer` and leave `parts` holding only empty
  // slices.
  bool want_slices = false;
  std::vector<net::PayloadSlice> parts;
  RecvResult result;
  sim::ManualEvent done_evt;

  /// True when the message bytes live in `parts` rather than `buffer`.
  [[nodiscard]] bool sliced_delivery() const noexcept {
    for (const auto& p : parts) {
      if (!p.empty()) return true;
    }
    return false;
  }

  /// Copy `dst.size()` message bytes starting at message offset `off` into
  /// `dst`, whichever home the bytes landed in.  Returns bytes copied.
  std::size_t copy_out(std::size_t off, std::span<std::uint8_t> dst) const {
    if (dst.empty()) return 0;
    if (!sliced_delivery()) {
      std::size_t n = dst.size();
      std::copy_n(buffer + off, n, dst.data());
      return n;
    }
    std::size_t written = 0;
    std::size_t part_start = 0;
    for (const auto& p : parts) {
      if (written == dst.size()) break;
      std::size_t part_end = part_start + p.size();
      if (off < part_end && !p.empty()) {
        std::size_t from = off > part_start ? off - part_start : 0;
        std::size_t avail = p.size() - from;
        std::size_t take = std::min(avail, dst.size() - written);
        std::copy_n(p.data() + from, take, dst.data() + written);
        written += take;
        off += take;
      }
      part_start = part_end;
    }
    return written;
  }
};
using RecvHandle = std::shared_ptr<RecvState>;

class EmpEndpoint {
 public:
  /// `host_cpu` is the CPU that host-side library work runs on.  Node n's
  /// NIC answers to net::MacAddress::for_host(n).
  EmpEndpoint(sim::Engine& eng, const sim::CostModel& model,
              nic::NicDevice& nic, sim::SerialResource& host_cpu,
              NodeId self);

  EmpEndpoint(const EmpEndpoint&) = delete;
  EmpEndpoint& operator=(const EmpEndpoint&) = delete;

  [[nodiscard]] NodeId node_id() const noexcept { return self_; }

  // ---- Host-side operations (coroutines charging host CPU time) ----

  /// Post a transmit descriptor.  The data is read from the (pinned) user
  /// pages by NIC DMA; the one host copy taken here models exactly that.
  /// The copy lands in a pooled refcounted slice every frame references.
  [[nodiscard]] sim::Task<SendHandle> post_send(
      NodeId dst, Tag tag, std::span<const std::uint8_t> data);

  /// Scatter-gather post: `head` + `body` form one message, gathered into
  /// a single pinned slice without the caller first concatenating them in
  /// a staging buffer.  `pin_base` is the address charged to the
  /// translation cache — callers that own a stable registered region (the
  /// substrate's per-credit staging ring) pass its slot address, so the
  /// cache sees one region per slot rather than every user buffer.
  [[nodiscard]] sim::Task<SendHandle> post_send_sg(
      NodeId dst, Tag tag, std::span<const std::uint8_t> head,
      std::span<const std::uint8_t> body, const void* pin_base);

  /// Post a receive descriptor matching (src, tag); src == nullopt matches
  /// any sender.  Checks the unexpected queue first, as the EMP library
  /// does.  With `want_slices`, fragments are retained as refcounted
  /// slices on the handle (RecvState::parts) instead of being copied into
  /// `buffer`; `buffer` remains the pinned fallback home (unexpected-queue
  /// deliveries still materialize into it).
  [[nodiscard]] sim::Task<RecvHandle> post_recv(std::optional<NodeId> src,
                                                Tag tag,
                                                std::span<std::uint8_t> buffer,
                                                bool want_slices = false);

  /// Grow the unexpected-message pool by `count` buffers of `bytes` each.
  [[nodiscard]] sim::Task<void> post_unexpected(std::size_t count,
                                                std::uint32_t bytes);

  /// Wait until every frame of the send has been DMA'd from host memory
  /// and handed to the MAC (the user buffer has been fully read).
  [[nodiscard]] sim::Task<void> wait_send_local(SendHandle h);

  /// Wait until the receiver's NIC acknowledged the entire message.
  [[nodiscard]] sim::Task<void> wait_send_acked(SendHandle h);

  /// Wait for a posted receive to complete; returns (src, tag, bytes).
  [[nodiscard]] sim::Task<RecvResult> wait_recv(RecvHandle h);

  /// Non-blocking completion probe.
  [[nodiscard]] bool test_recv(const RecvHandle& h) const {
    return h->completed;
  }

  /// Remove a not-yet-matched receive descriptor (EMP has no garbage
  /// collection: every descriptor must be used or explicitly unposted).
  /// Returns false if the descriptor had already matched a message.
  [[nodiscard]] sim::Task<bool> unpost_recv(RecvHandle h);

  /// Host-side probe of the unexpected queue: if a completed message from
  /// (src, tag) is waiting there, copy it into `buffer` (the unexpected
  /// path's extra memory copy) and return its metadata without posting any
  /// descriptor.  This is how the substrate consumes acknowledgments kept
  /// on the unexpected queue (paper §6.4).
  [[nodiscard]] sim::Task<std::optional<RecvResult>> try_claim_unexpected(
      std::optional<NodeId> src, Tag tag, std::span<std::uint8_t> buffer);

  /// Non-consuming probe: is a completed message from (src, tag) waiting on
  /// the unexpected queue?  Used by the substrate's select() support for
  /// datagram sockets.
  [[nodiscard]] bool has_unexpected_ready(std::optional<NodeId> src,
                                          Tag tag) const {
    for (const auto* u : unexpected_ready_) {
      bool src_ok = !src.has_value() || *src == u->msg.from;
      if (src_ok && tag == u->msg.tag) return true;
    }
    return false;
  }

  /// Invoked on every completion event (receive completed, send acked or
  /// failed, unexpected message became ready).  The argument is the receive
  /// descriptor that completed, and null for the other events; it is called
  /// right after test_recv() turns true.  The substrate drives its
  /// select()/blocking machinery from one condition variable with it, and
  /// files each completed descriptor with the slot it was posted for.
  void set_completion_hook(std::function<void(const RecvState*)> hook) {
    completion_hook_ = std::move(hook);
  }

  // ---- Resource accounting (used by substrate/leak tests) ----
  [[nodiscard]] std::size_t posted_descriptor_count() const {
    return walk_.size() - walk_tombstones_;
  }
  [[nodiscard]] std::size_t unexpected_free_count() const {
    return unexpected_free_.size();
  }
  [[nodiscard]] std::size_t pending_send_count() const {
    return pending_sends_.size();
  }

  /// Cross-layer invariants: in-flight-frame / cumulative-ACK consistency,
  /// receive-binding consistency, translation-cache and history bounds.
  /// Registered with the engine's checker registry at construction.
  void check_invariants() const;

 private:
  /// Registry-backed counters/histograms under "h<N>/emp/".  References
  /// are stable: the registry owns the instruments.
  struct Instruments {
    obs::Counter& sends_posted;
    obs::Counter& recvs_posted;
    obs::Counter& data_frames_tx;
    obs::Counter& data_frames_rx;
    obs::Counter& acks_tx;
    obs::Counter& acks_rx;
    obs::Counter& nacks_tx;
    obs::Counter& retransmitted_frames;
    obs::Counter& unmatched_drops;
    obs::Counter& too_small_drops;
    obs::Counter& duplicate_frames;
    obs::Counter& stale_frames;
    obs::Counter& reacks;
    obs::Counter& malformed_frames;
    obs::Counter& misrouted_frames;
    obs::Counter& unexpected_claims;
    obs::Counter& unexpected_evictions;
    obs::Counter& descriptors_walked;
    obs::Counter& pin_hits;
    obs::Counter& pin_misses;
    /// Tag-match walk length per incoming data frame (descriptors +
    /// unexpected entries inspected; the 550 ns/descriptor cost driver).
    obs::Histogram& tag_walk_len;
    /// Live pre-posted descriptor count, observed on both edges of the
    /// queue: as each descriptor files and as each is removed (completion,
    /// unpost, unexpected delivery).
    obs::Histogram& desc_queue_depth;
    explicit Instruments(obs::Scope scope);
  };

  struct UnexpectedEntry {
    RegisteredBytes buffer;
    Reassembly msg;
    bool ready = false;  // complete, waiting to be claimed or delivered
    std::uint32_t pos = 0;  // index in the pool: its place in the walk
  };

  /// Prefix counts over walk_ slots, 1 for a live descriptor and 0 for a
  /// tombstone: a Fenwick tree, so the modeled walk length up to any slot
  /// costs O(log n) host work instead of a walk.
  class LiveSlots {
   public:
    /// Append one live slot at the end.
    void push_live() {
      if (tree_.empty()) tree_.push_back(0);  // the unused index 0
      const std::size_t i = tree_.size();  // 1-based index of the new slot
      std::uint32_t sum = 1;
      for (std::size_t j = i - 1; j > i - low_bit(i); j -= low_bit(j)) {
        sum += tree_[j];
      }
      tree_.push_back(sum);
    }
    /// Turn live slot `slot` (0-based) into a tombstone.
    void kill(std::size_t slot) {
      for (std::size_t i = slot + 1; i < tree_.size(); i += low_bit(i)) {
        --tree_[i];
      }
    }
    /// `n` slots, every one live (the walk list right after compaction).
    void reset_live(std::size_t n) {
      tree_.resize(n + 1);
      for (std::size_t i = 1; i <= n; ++i) {
        tree_[i] = static_cast<std::uint32_t>(low_bit(i));
      }
    }
    /// Live slots in [0, slot].
    [[nodiscard]] std::size_t live_through(std::size_t slot) const {
      std::size_t n = 0;
      for (std::size_t i = slot + 1; i > 0; i -= low_bit(i)) n += tree_[i];
      return n;
    }

   private:
    static std::size_t low_bit(std::size_t i) { return i & (~i + 1); }
    std::vector<std::uint32_t> tree_;  // 1-based; tree_[0] unused
  };

  // Either a posted descriptor or an unexpected entry can be the home of an
  // in-flight message.  The shared handle keeps the descriptor alive for
  // late duplicates still queued behind firmware work.
  struct Binding {
    RecvHandle recv;
    UnexpectedEntry* unexpected = nullptr;

    [[nodiscard]] Reassembly& msg() const {
      return recv ? recv->msg : unexpected->msg;
    }
  };

  /// Why a data frame goes out: its first transmission, a resend after the
  /// retransmission timeout, or the single-frame repair a NACK asks for.
  enum class Emit : std::uint8_t { kFirst, kResend, kRepair };

  static std::uint64_t key_of(NodeId src, std::uint32_t msg_id) {
    return (static_cast<std::uint64_t>(src) << 32) | msg_id;
  }

  // NIC-side paths.  The frame travels by FramePtr through the firmware
  // pipeline — its payload backs the fragment span until the DMA copy in
  // deliver_fragment, after which the frame returns to the NIC's pool.
  void on_frame(net::FramePtr frame);
  void handle_data(const EmpHeader& h, net::FramePtr frame);
  void handle_ack(const EmpHeader& h);
  void handle_nack(const EmpHeader& h);
  void deliver_fragment(Binding binding, const EmpHeader& h,
                        net::FramePtr frame);
  void fragment_landed(const Binding& binding);
  void complete_recv(const RecvHandle& r);
  void unexpected_ready(UnexpectedEntry* u);
  void reconcile_unexpected();
  void send_ack(NodeId to, std::uint32_t msg_id, std::uint32_t count);
  void send_nack(NodeId to, std::uint32_t msg_id, std::uint32_t missing);
  /// Emit frames [first_frame, total) of `st`, the whole message or the
  /// unacknowledged suffix a timeout resends.
  void transmit_frames(const SendHandle& st, std::uint32_t first_frame,
                       Emit why);
  /// Every data frame leaves through here: transmit firmware, DMA from the
  /// pinned payload, then the MAC.  The last frame of a first transmission
  /// or resend completes the local send and arms the retransmission timer.
  void emit_fragment(const SendHandle& st, std::uint32_t idx, Emit why);
  void arm_retransmit_timer(const SendHandle& st);
  void remember_completed(NodeId src, std::uint32_t msg_id,
                          std::uint16_t total);
  void fail_send(const SendHandle& st);

  /// Host-side: deliver a ready unexpected entry into a receive descriptor
  /// (the extra memory copy of the unexpected path).
  // Takes the handle by value: callers may pass a reference into walk_,
  // which this function erases from.
  void deliver_unexpected(RecvHandle r, UnexpectedEntry* u);

  /// Host-side: copy ready entry `u`'s message into `dst`, remember it as
  /// completed and release the entry.  Both consumers of the unexpected
  /// queue (a descriptor, a direct claim) take messages through here.
  RecvResult claim_unexpected(UnexpectedEntry* u, std::uint8_t* dst);

  /// Return `u` to the free pool, dropping whatever message it held.
  void release_unexpected(UnexpectedEntry* u);

  /// Translation/pin cache lookup; returns the host-time cost.
  sim::Duration pin_cost(const void* base);

  /// Control frame (ACK/NACK): the header is the whole payload.
  net::FramePtr make_control_frame(NodeId dst, const EmpHeader& h);

  /// Data frame for `[offset, offset+len)` of the send's payload: the
  /// header is encoded inline and the fragment references the pinned
  /// slice.
  net::FramePtr make_data_frame(const SendHandle& st, const EmpHeader& h,
                                std::uint32_t offset, std::uint32_t len);

  [[nodiscard]] std::uint32_t fragment_size() const {
    return max_fragment_bytes(model_.wire.mtu);
  }

  void fire_completion_hook(const RecvState* completed = nullptr) {
    if (completion_hook_) completion_hook_(completed);
  }

  /// First free unexpected entry (lowest position) that holds `bytes`.
  [[nodiscard]] UnexpectedEntry* first_free_unexpected(std::uint32_t bytes);

  sim::Engine* eng_;
  sim::CostModel model_;
  nic::NicDevice& nic_;
  sim::SerialResource& host_cpu_;
  NodeId self_;
  Instruments ctr_;
  obs::Counter* bytes_copied_;  // engine-wide "host/bytes_copied"
  obs::Tracer& tracer_;
  std::uint32_t trk_lib_;  // ("h<N>", "emp") host-library timeline track
  std::uint32_t trk_fw_;   // ("h<N>", "emp-fw") NIC-firmware timeline track
  std::function<void(const RecvState*)> completion_hook_;

  std::uint32_t next_msg_id_ = 1;

  /// Remove `r` from the walk list by tombstoning its slot (null entry;
  /// post order preserved), compacting only when tombstones outnumber live
  /// descriptors, and from its tag list.  No-op if `r` never filed.
  /// Observes desc_queue_depth.
  void walk_remove(const RecvHandle& r);

  // NIC-side receive state.  walk_ holds pre-posted descriptors in post
  // order; null entries are tombstones of removed descriptors (counted by
  // walk_tombstones_) that cost no modeled per-descriptor walk time — the
  // NIC's list never contained them.  The host never walks it: by_tag_
  // lists each tag's filed descriptors in the same post order, and
  // live_slots_ counts the live slots the modeled walk would visit.
  std::vector<RecvHandle> walk_;
  std::size_t walk_tombstones_ = 0;
  std::unordered_map<Tag, std::vector<RecvState*>> by_tag_;
  LiveSlots live_slots_;
  // Entries are never freed or moved, so a Binding may point at one.
  // unexpected_free_ holds the positions of the unbound entries, lowest
  // first.
  std::vector<std::unique_ptr<UnexpectedEntry>> unexpected_pool_;
  std::set<std::uint32_t> unexpected_free_;
  std::vector<UnexpectedEntry*> unexpected_ready_;
  std::unordered_map<std::uint64_t, Binding> bound_;
  std::unordered_map<std::uint64_t, std::uint16_t> completed_history_;
  std::deque<std::uint64_t> completed_order_;

  // NIC-side transmit state.
  std::unordered_map<std::uint32_t, SendHandle> pending_sends_;

  // Host-side translation cache (LRU over region base addresses).
  std::list<const void*> pin_lru_;
  std::unordered_map<const void*, std::list<const void*>::iterator> pin_map_;

  // Last member: deregisters before the state it inspects is torn down.
  check::ScopedChecker inv_check_;
};

}  // namespace ulsocks::emp
