// Kernel-path TCP stack (the paper's baseline).
//
// Implements enough of TCP to generate the baseline behaviour the paper
// measures: three-way handshake and FIN teardown, MSS segmentation, a
// sliding window bounded by SO_SNDBUF/SO_RCVBUF, cumulative + delayed
// acknowledgments, Nagle (switchable with TCP_NODELAY), slow-start
// congestion window, fixed-RTO retransmission and zero-window probing.
//
// Equally important is *where the time goes*: every send charges a system
// call and a user-to-kernel copy on the host CPU, every segment charges
// tcp/ip/driver processing, and receives pay interrupt-coalescing delay,
// interrupt cost, softirq processing, a wake-up and a kernel-to-user copy.
// These costs are what the sockets-over-EMP substrate removes.
//
// Documented simplifications (timing-neutral): 64-bit sequence numbers (no
// wrap), no TIME_WAIT port reuse rules, no SACK, receive trims but never
// refuses in-window data.  Advertised window is half the receive buffer,
// modelling Linux 2.4's skb overhead accounting.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "nic/nic_device.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "oskernel/host.hpp"
#include "oskernel/socket_api.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "tcp/byte_ring.hpp"
#include "tcp/segment.hpp"

namespace ulsocks::tcp {

/// Fixed retransmission timer, for data, FIN and SYN alike (no backoff).
inline constexpr sim::Duration kRto = 5'000'000;  // 5 ms
/// Delayed-ack timer (the Linux 2.4 minimum).
inline constexpr sim::Duration kDelayedAck = 40'000'000;  // 40 ms
/// A closed connection's state is reclaimed this long after both
/// directions shut down.
inline constexpr sim::Duration kGcLinger = 2'000'000;  // 2 ms
/// Unanswered RTOs before the connection is reset.
inline constexpr std::uint32_t kMaxRetries = 15;
/// First port connect() assigns to an unbound socket.
inline constexpr std::uint16_t kEphemeralBase = 32'768;

/// Node n's NIC answers to net::MacAddress::for_host(n).
class TcpStack final : public os::SocketApi {
 public:
  TcpStack(sim::Engine& eng, const sim::CostModel& model, os::Host& host,
           nic::NicDevice& nic);

  // SocketApi.
  sim::Task<int> socket() override;
  sim::Task<void> bind(int sd, os::SockAddr local) override;
  sim::Task<void> listen(int sd, int backlog) override;
  sim::Task<int> accept(int sd, os::SockAddr* peer) override;
  sim::Task<void> connect(int sd, os::SockAddr remote) override;
  sim::Task<std::size_t> read(int sd, std::span<std::uint8_t> out) override;
  sim::Task<std::size_t> write(int sd,
                               std::span<const std::uint8_t> in) override;
  sim::Task<void> close(int sd) override;
  sim::Task<void> set_option(int sd, os::SockOpt opt, int value) override;
  [[nodiscard]] bool readable(int sd) const override;
  [[nodiscard]] bool writable(int sd) const override;
  [[nodiscard]] sim::CondVar& activity() override { return activity_; }

  [[nodiscard]] std::size_t live_socket_count() const {
    return conns_by_sd_.size();
  }
  [[nodiscard]] std::uint16_t node() const noexcept { return node_; }

 private:
  enum class State : std::uint8_t {
    kClosed,
    kListen,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,   // our FIN sent, not acked
    kFinWait2,   // our FIN acked, waiting for peer FIN
    kCloseWait,  // peer FIN received, we have not closed
    kLastAck,    // peer FIN received and our FIN sent
    kDone,       // both directions closed
  };

  struct Conn {
    State state = State::kClosed;
    os::SockAddr local{};
    os::SockAddr remote{};
    bool bound = false;
    // Send side.  snd_buf holds stream bytes from snd_una onward; the
    // prefix [snd_una, snd_nxt) is in flight.  ByteRing, not deque: acks
    // trim the front on every segment, and a front-erase that moves the
    // live bytes each time is O(n^2) over a transfer.
    ByteRing snd_buf;
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    std::uint32_t snd_buf_limit = 0;
    std::uint32_t peer_window = kMss;
    std::uint64_t cwnd = 2 * kMss;
    bool nodelay = false;
    bool fin_queued = false;
    bool fin_sent = false;
    std::uint64_t fin_seq = 0;
    bool fin_acked = false;
    // Receive side.
    ByteRing rcv_buf;
    std::uint64_t rcv_nxt = 0;
    std::map<std::uint64_t, std::vector<std::uint8_t>> ooo;
    std::size_t ooo_bytes = 0;
    std::uint32_t rcv_buf_limit = 0;
    std::uint32_t last_advertised = 0;
    bool peer_fin = false;
    bool reset = false;
    // Ack management.
    std::uint32_t pending_ack_segments = 0;
    bool delack_armed = false;
    // Retransmission.
    bool rto_armed = false;
    std::uint32_t retries = 0;
    // Listener.
    int backlog = 0;
    std::uint32_t synrcvd_count = 0;  // embryonic children, counted in backlog
    std::deque<int> accept_queue;
    bool closing = false;  // close() called by the application
    bool gc_scheduled = false;
    int sd = -1;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  static std::uint64_t conn_key(std::uint16_t local_port,
                                std::uint16_t remote_node,
                                std::uint16_t remote_port) {
    return (static_cast<std::uint64_t>(local_port) << 32) |
           (static_cast<std::uint64_t>(remote_node) << 16) | remote_port;
  }

  ConnPtr& conn(int sd);
  const ConnPtr* find_conn(int sd) const;

  // Datapath.
  void on_frame(net::FramePtr frame);
  void schedule_interrupt();
  void process_segment(Segment seg);
  void established_input(const ConnPtr& c, Segment& seg);
  void handle_ack_advance(const ConnPtr& c, const Segment& seg);
  void try_output(const ConnPtr& c);
  void emit(const ConnPtr& c, Flags flags, std::uint64_t seq,
            std::span<const std::uint8_t> payload, bool retransmit = false);
  /// Kernel output processing, then the stock NIC firmware path, for
  /// every segment this host sends.  `payload` is pinned into the NIC's
  /// slice pool before this returns.
  void transmit(const Segment& seg, std::span<const std::uint8_t> payload);
  void send_pure_ack(const ConnPtr& c);
  void send_rst(const Segment& to);
  void maybe_send_window_update(const ConnPtr& c);
  void arm_rto(const ConnPtr& c);
  void arm_delack(const ConnPtr& c);
  void rto_fire(const ConnPtr& c);
  [[nodiscard]] std::uint32_t advertised_window(const Conn& c) const;
  [[nodiscard]] std::uint64_t in_flight(const Conn& c) const {
    return c.snd_nxt - c.snd_una;
  }
  void fail_conn(const ConnPtr& c);
  void release_synrcvd(const ConnPtr& child);
  void maybe_schedule_gc(const ConnPtr& c);
  void notify() { activity_.notify_all(); }


  /// Registry-backed counter handles under "h<N>/tcp/".
  struct Instruments {
    obs::Counter& segments_tx;
    obs::Counter& segments_rx;
    obs::Counter& bytes_tx;
    obs::Counter& retransmits;
    obs::Counter& pure_acks_tx;
    obs::Counter& interrupts;
    obs::Counter& rst_tx;
    obs::Counter& window_probes;
    explicit Instruments(obs::Scope scope);
  };

  sim::Engine* eng_;
  sim::CostModel model_;
  os::Host& host_;
  nic::NicDevice& nic_;
  std::uint16_t node_;
  sim::CondVar activity_;
  Instruments ctr_;
  obs::Counter* bytes_copied_;  // global host/bytes_copied tally
  obs::Tracer& tracer_;
  std::uint32_t trk_;  // ("h<N>", "tcp") timeline track

  int next_sd_ = 1;
  std::uint16_t next_ephemeral_ = kEphemeralBase;
  std::unordered_map<int, ConnPtr> conns_by_sd_;
  std::map<std::uint16_t, int> listeners_;   // port -> listening sd
  std::map<std::uint64_t, int> by_tuple_;    // (lport,rnode,rport) -> sd

  // Interrupt coalescing.
  std::deque<Segment> pending_rx_;
  bool irq_scheduled_ = false;
};

}  // namespace ulsocks::tcp
