// The EMP substrate: user-level sockets over EMP (the paper's contribution).
//
// Implements os::SocketApi entirely in user space on top of emp::EmpEndpoint:
//   - connection management by data message exchange (§5.1): listen() posts
//     `backlog` wildcard-source descriptors on a per-port tag; connect()
//     sends an explicit request carrying the client's address and channel
//     parameters; accept() completes the head-of-backlog descriptor and
//     replies;
//   - unexpected arrivals by eager-with-flow-control or rendezvous (§5.2),
//     with credit-based flow control (§6.1): N credits backed by 2N
//     pre-posted descriptors with temporary buffers;
//   - data streaming (extra copy through the temporary buffer) or datagram
//     mode (§6.2), where large writes switch to zero-copy rendezvous;
//   - delayed acknowledgments (§6.3), piggy-backed credit returns (§6.1),
//     and acknowledgments on the EMP unexpected queue (§6.4);
//   - resource management (§5.3): an active-socket table; close() sends an
//     explicit close message and unposts every descriptor (EMP has no
//     garbage collection), returning tags to a free list.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/registry.hpp"
#include "emp/endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "oskernel/host.hpp"
#include "oskernel/socket_api.hpp"
#include "sockets/config.hpp"
#include "sockets/control.hpp"

namespace ulsocks::sockets {

class EmpSocketStack final : public os::SocketApi {
 public:
  EmpSocketStack(sim::Engine& eng, const sim::CostModel& model,
                 os::Host& host, emp::EmpEndpoint& ep,
                 SubstrateConfig default_config = {});

  // SocketApi.
  sim::Task<int> socket() override;
  sim::Task<void> bind(int sd, os::SockAddr local) override;
  sim::Task<void> listen(int sd, int backlog) override;
  sim::Task<int> accept(int sd, os::SockAddr* peer) override;
  sim::Task<void> connect(int sd, os::SockAddr remote) override;
  sim::Task<std::size_t> read(int sd, std::span<std::uint8_t> out) override;
  sim::Task<std::size_t> write(int sd,
                               std::span<const std::uint8_t> in) override;
  /// Zero-copy receive: a slice-delivered stream message is lent to the
  /// caller as its NIC payload slices (no host copy at all); datagrams,
  /// rendezvous transfers and unexpected-queue arrivals degrade to one
  /// copy through `view.scratch`, exactly like read().
  sim::Task<std::size_t> read_view(int sd, os::RecvView& view,
                                   std::size_t max_bytes) override;
  sim::Task<void> close(int sd) override;
  sim::Task<void> set_option(int sd, os::SockOpt opt, int value) override;
  [[nodiscard]] bool readable(int sd) const override;
  [[nodiscard]] bool writable(int sd) const override;
  [[nodiscard]] sim::CondVar& activity() override { return activity_; }
  /// One pass over the listener's pre-posted connection descriptors (§5.4):
  /// every slot with a request already decoded completes in this call, so a
  /// ring doorbell drains the whole backlog without re-probing per accept.
  sim::Task<std::size_t> accept_many(
      int sd, std::size_t max, std::vector<int>& out,
      std::vector<os::SockAddr>* peers = nullptr) override;

  /// Active-socket-table size (§5.3); sockets leave the table only when
  /// both sides have closed and every descriptor has been reclaimed.
  [[nodiscard]] std::size_t active_socket_count() const {
    return live_.size();
  }

  /// Cross-layer invariants (§6.1 credit conservation, descriptor-count
  /// bounds, close accounting).  Registered with the engine's checker
  /// registry at construction; throws check::InvariantError on violation.
  void check_invariants() const;

 private:
  /// One pre-posted receive descriptor plus its temporary buffer (a view
  /// into the connection's arena: the arena is pinned once, so reposting a
  /// slot hits the translation cache instead of re-pinning).
  struct Slot {
    std::span<std::uint8_t> buffer;
    emp::RecvHandle handle;
    std::uint32_t msg_bytes = 0;   // valid once parsed
    std::uint32_t offset = 0;      // payload bytes already consumed
    std::uint16_t msg_no = 0;      // stream number (mod 2^16), once parsed
    bool parsed = false;           // header seen (credits applied)
    // Listener slots: an accept is consuming the completed request here
    // and has not yet replaced `handle`, so other scans must skip it.
    bool taken = false;
  };

  struct Sock {
    enum class State : std::uint8_t {
      kFresh,
      kBound,
      kListening,
      kConnecting,
      kConnected,
      kClosed,
    };
    State state = State::kFresh;
    SubstrateConfig cfg;
    os::SockAddr local{};
    os::SockAddr remote{};

    // Listener state.
    int backlog = 0;
    // shared_ptr: an acceptor parked inside complete_accept() keeps its
    // slot alive even if close() clears the deque while it is suspended.
    std::deque<std::shared_ptr<Slot>> conn_slots;
    // Connection slots whose request arrived and that no accept has taken.
    std::size_t conn_ready = 0;

    // Connection state.
    emp::RegisteredBytes arena;         // backing store for every slot buffer
    emp::RegisteredBytes send_staging;  // ring of per-credit slots
    std::uint32_t staging_next = 0;     // next ring slot to use
    emp::RegisteredBytes dg_staging;    // datagram claim/truncate path
    emp::NodeId peer_node = 0;
    emp::Tag my_data = 0, my_ctrl = 0, my_rend = 0;
    emp::Tag peer_data = 0, peer_ctrl = 0, peer_rend = 0;
    std::uint32_t send_credits = 0;
    std::uint32_t consumed_unacked = 0;
    std::uint32_t next_rend_id = 1;
    // Data slots in EMP post order: the order descriptors bind messages,
    // which is stream order unless a lost first frame let a later message
    // take an earlier descriptor (read_impl consumes by message number).
    std::deque<std::unique_ptr<Slot>> data_slots;
    std::vector<Slot*> arrived;     // completed data slots not yet parsed
    std::uint32_t data_ready = 0;   // completed slots still in data_slots
    std::uint16_t next_msg_no = 0;  // stream number read_impl takes next
    std::deque<std::unique_ptr<Slot>> ctrl_slots;  // empty in UQ mode
    std::deque<CtrlMsg> pending_rend;              // rendezvous requests
    std::unordered_map<std::uint32_t, bool> rend_granted;
    std::uint64_t data_msgs_sent = 0;      // eager + rendezvous messages
    std::uint64_t data_msgs_consumed = 0;  // fully read (or truncated)
    std::uint64_t peer_msgs_total = 0;     // carried by the Close message
    bool ctrl_drain_busy = false;  // re-entrancy guard across co_awaits
    // This side allocated both tag triples (my_data's and peer_data's).
    bool owns_tags = false;
    bool peer_closed = false;
    bool local_closed = false;
    bool terminated = false;  // pump exited, resources reclaimed
    int sd = -1;
  };
  using SockPtr = std::shared_ptr<Sock>;

  // The active-socket table is indexed by sd.  sock() returns an owner, not
  // a reference into the table, so a call keeps its socket alive after
  // close() drops the entry.
  [[nodiscard]] SockPtr sock(int sd) const;
  [[nodiscard]] const Sock* find_sock(int sd) const;
  void add_sock(SockPtr s);
  void drop_sock(int sd);

  /// Completion hook: file a completed descriptor with the slot it was
  /// posted for (a data slot joins its socket's arrival list, a connection
  /// slot counts towards its listener's ready requests).
  void on_recv_completed(const emp::RecvState* r);
  /// Map `slot`'s pending descriptor to the slot and its socket (`conn`:
  /// a listener's connection slot), until it completes or untrack() drops
  /// it.  A socket torn down while the post was in flight tracks nothing.
  void track(Sock& s, Slot& slot, bool conn) {
    if (s.terminated || s.state == Sock::State::kClosed) return;
    posted_.insert_or_assign(slot.handle.get(), Posted{&s, &slot, conn});
  }
  void untrack(const Slot& slot) { posted_.erase(slot.handle.get()); }

  /// Complete the connection request sitting in `slot`: repost the
  /// descriptor, build the child socket, post its resources.  Returns the
  /// child sd, or -1 for a malformed (dropped) request.  The slot is
  /// `taken` until the repost replaces its completed handle.
  sim::Task<int> complete_accept(const SockPtr& listener, Slot& slot,
                                 os::SockAddr* peer);

  [[nodiscard]] static emp::Tag listen_tag(std::uint16_t port) {
    return static_cast<emp::Tag>(0x8000u | port);
  }
  /// Tag triples (base = data, base+1 = ctrl, base+2 = rendezvous).  Local
  /// triples name this stack's receive channels for connections it
  /// initiates; remote triples are handed to the accepting side.  The two
  /// ranges are disjoint so a server's own outbound allocations can never
  /// collide with tags a client assigned to it.
  enum class TagRole : std::uint8_t { kLocal, kRemote };
  emp::Tag alloc_tags(TagRole role);
  void free_tags(emp::Tag base);

  /// Charge the communication-thread synchronization penalty when the
  /// kCommThread alternative is selected (ablation).
  [[nodiscard]] sim::Task<void> comm_thread_penalty(const SockPtr& s);

  // read()/write() bodies; the public entry points wrap them in a timeline
  // span without touching every co_return site.  `view` is non-null on the
  // read_view() path, where `out` is the caller's scratch span: the two
  // entry points share every await so their event streams are identical.
  [[nodiscard]] sim::Task<std::size_t> read_impl(int sd,
                                                 std::span<std::uint8_t> out,
                                                 os::RecvView* view);
  [[nodiscard]] sim::Task<std::size_t> write_impl(
      int sd, std::span<const std::uint8_t> in);

  // Connection plumbing.
  [[nodiscard]] sim::Task<void> post_connection_resources(const SockPtr& s);
  [[nodiscard]] sim::Task<void> send_ctrl(const SockPtr& s, CtrlMsg m);
  [[nodiscard]] sim::Task<void> drain_ctrl(const SockPtr& s, bool& progress);
  [[nodiscard]] sim::Task<void> pump(SockPtr s);
  void apply_ctrl(const SockPtr& s, const CtrlMsg& m);
  bool parse_arrived_data_headers(const SockPtr& s);
  [[nodiscard]] sim::Task<void> cleanup(const SockPtr& s);
  [[nodiscard]] sim::Task<void> maybe_send_credit_ack(const SockPtr& s,
                                                      bool force);
  [[nodiscard]] sim::Task<std::size_t> eager_write(
      const SockPtr& s, std::span<const std::uint8_t> in);
  [[nodiscard]] sim::Task<std::size_t> dg_eager_write(
      const SockPtr& s, std::span<const std::uint8_t> in);
  [[nodiscard]] sim::Task<std::size_t> dg_read(const SockPtr& s,
                                               std::span<std::uint8_t> out);
  [[nodiscard]] sim::Task<void> acquire_credit(const SockPtr& s);
  [[nodiscard]] sim::Task<std::size_t> rendezvous_write(
      const SockPtr& s, std::span<const std::uint8_t> in);
  [[nodiscard]] sim::Task<std::size_t> rendezvous_read(
      const SockPtr& s, std::span<std::uint8_t> out);
  [[nodiscard]] sim::Task<void> repost_slot(const SockPtr& s, Slot& slot);

  /// The completed data slot that holds the next message in stream order
  /// (message next_msg_no), or null if it has not arrived.
  [[nodiscard]] Slot* next_data_slot(const Sock& s) const;
  /// Whether completed data slot `slot` holds stream message `msg_no`.
  [[nodiscard]] static bool holds_message(const Slot& slot,
                                          std::uint16_t msg_no);
  /// The header of completed data slot `slot`, whose message carries one:
  /// gathered from the handle's slices on the sliced path.
  [[nodiscard]] static DataHeader data_header(const Slot& slot);

  /// Registry-backed counter/histogram handles under "h<N>/sockets/".
  struct Instruments {
    obs::Counter& connections_accepted;
    obs::Counter& connections_initiated;
    obs::Counter& eager_messages_tx;
    obs::Counter& rendezvous_messages_tx;
    obs::Counter& credit_acks_tx;
    obs::Counter& credits_piggybacked;
    obs::Counter& truncated_datagrams;
    obs::Counter& closes_tx;
    obs::Histogram& credit_stall_ns;  // write() blocked waiting for credits
    explicit Instruments(obs::Scope scope);
  };

  sim::Engine* eng_;
  sim::CostModel model_;
  os::Host& host_;
  emp::EmpEndpoint& ep_;
  SubstrateConfig default_cfg_;
  sim::CondVar activity_;
  Instruments ctr_;
  obs::Counter* bytes_copied_;  // engine-wide "host/bytes_copied"
  obs::Tracer& tracer_;
  std::uint32_t trk_;  // ("h<N>", "sockets") timeline track

  int next_sd_ = 1;
  std::uint16_t next_ephemeral_ = 40'000;
  // The active socket table (§5.3).  Sds are handed out in order and never
  // reused.  socks_ owns the sockets, indexed by sd - 1; a closed socket
  // leaves a null entry.  live_ holds the live sockets in sd order (a new
  // socket is appended), so the invariant sweep and bind()'s port scan
  // visit live sockets only, in a contiguous array.
  std::vector<SockPtr> socks_;
  std::vector<Sock*> live_;
  // Pending data and connection descriptors, by the RecvState EMP hands to
  // the completion hook.  An entry lives from the post until the
  // descriptor completes or its socket tears the slot down.
  struct Posted {
    Sock* sock;
    Slot* slot;
    bool conn;
  };
  std::unordered_map<const emp::RecvState*, Posted> posted_;
  std::deque<emp::Tag> free_local_bases_;
  std::deque<emp::Tag> free_remote_bases_;
  emp::Tag next_local_base_ = 16;       // [16, 0x4000)
  emp::Tag next_remote_base_ = 0x4000;  // [0x4000, 0x8000)

  // Registered-buffer pool: arenas are recycled across connections so that
  // only the first connection of a given geometry pays the pin syscall —
  // later posts hit the EMP translation cache.  Without this, per-
  // connection registration would dominate the web-server experiment.
  [[nodiscard]] emp::RegisteredBytes get_arena(std::size_t bytes);
  void release_arena(emp::RegisteredBytes arena);
  std::map<std::size_t, std::vector<emp::RegisteredBytes>> arena_pool_;

  // Control-message staging: every transient encode (ctrl messages,
  // connection requests) is copied here before post_send so the EMP
  // translation cache only ever sees this one stable address — never a
  // short-lived heap block whose address depends on host allocator reuse.
  // post_send captures the payload synchronously, so one buffer is enough.
  // Pre-reserved so it never reallocates (the address must stay put).
  emp::RegisteredBytes ctrl_staging_;
  [[nodiscard]] std::span<const std::uint8_t> stage_ctrl(
      std::span<const std::uint8_t> encoded);

  // Last member: deregisters before the state it inspects is torn down.
  check::ScopedChecker inv_check_;
};

}  // namespace ulsocks::sockets
