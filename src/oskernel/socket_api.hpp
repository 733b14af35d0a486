// The stack-neutral sockets interface.
//
// Applications in this repository are written once against `SocketApi` and
// run unmodified over the kernel TCP stack (src/tcp) or the sockets-over-EMP
// substrate (src/sockets) — the repo-level restatement of the paper's claim
// that existing sockets applications need no changes.  The fd-kind dispatch
// that the paper implements by pre-loading interceptors for open()/read()/
// write() is implemented here by os::Process's fd table.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/payload_slice.hpp"
#include "obs/metrics.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace ulsocks::os {

/// Network address: (node, port).  Node ids double as EMP node indices and
/// as "IP addresses" for the kernel stack.
struct SockAddr {
  std::uint16_t node = 0;
  std::uint16_t port = 0;
  friend bool operator==(const SockAddr&, const SockAddr&) = default;
};

enum class SockErr : std::uint8_t {
  kInvalid,       // bad fd / bad state for this call
  kInUse,         // bind: address already bound
  kRefused,       // connect: nobody listening
  kClosed,        // peer closed / connection reset
  kNoResources,   // backlog overflow, out of buffers
};

class SocketError : public std::runtime_error {
 public:
  SocketError(SockErr code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] SockErr code() const noexcept { return code_; }

 private:
  SockErr code_;
};

/// Socket options understood by the stacks (each stack ignores options that
/// do not apply to it).  The substrate's credit count is not an option: it
/// comes from the stack's SubstrateConfig and travels in the connection
/// request.
enum class SockOpt : std::uint8_t {
  kSndBuf,        // kernel TCP send-buffer bytes
  kRcvBuf,        // kernel TCP receive-buffer bytes
  kNoDelay,       // disable Nagle (kernel TCP)
  kDatagram,      // substrate: disable data streaming (paper §6.2), 0/1
};

/// Zero-copy receive view: the stack exposes the received bytes as spans
/// into buffers it owns instead of copying them out.  `parts` (in stream
/// order) stay valid until the next read/read_view call on the same socket
/// or until the view is reset; `keepalive` pins any refcounted payload
/// slices backing the spans, and `scratch` backs the spans for stacks (or
/// paths) that cannot lend their internal buffers.
struct RecvView {
  std::vector<std::span<const std::uint8_t>> parts;
  std::vector<net::PayloadSlice> keepalive;
  std::vector<std::uint8_t> scratch;

  void reset() noexcept {
    parts.clear();
    keepalive.clear();
  }
};

/// Scratch allocations above this are treated as one-off spikes: the next
/// smaller request releases the memory back to the host allocator instead
/// of keeping the high-water buffer alive for the connection's lifetime.
/// Ring servers hold one RecvView per connection, so an unbounded scratch
/// would multiply a single large read across thousands of connections.
inline constexpr std::size_t kRecvScratchHighWater = 64 * 1024;

/// Size `view.scratch` for a `max_bytes` receive, capping retained growth
/// at kRecvScratchHighWater.  Returns the scratch size in bytes, which
/// SocketApi::note_recv_scratch() reports to the "host/recv_scratch_hwm"
/// gauge.  Host-side memory management only: no simulated cost, no
/// digest impact.
inline std::size_t ensure_recv_scratch(RecvView& view, std::size_t max_bytes) {
  if (view.scratch.size() < max_bytes) {
    view.scratch.resize(max_bytes);
  } else if (view.scratch.size() > kRecvScratchHighWater &&
             max_bytes <= kRecvScratchHighWater) {
    // Shrink-to-request: drop the spike, keep at most the high-water mark.
    std::vector<std::uint8_t>(std::max(max_bytes, std::size_t{1}))
        .swap(view.scratch);
  }
  return view.scratch.size();
}

/// A blocking BSD-style sockets interface.  All calls are coroutines in
/// simulated time; errors are reported as SocketError.
class SocketApi {
 public:
  /// `recv_scratch_hwm` is the engine-wide "host/recv_scratch_hwm" gauge
  /// that read_view() raises to the largest scratch buffer it sized.
  explicit SocketApi(obs::Gauge& recv_scratch_hwm)
      : recv_scratch_hwm_(recv_scratch_hwm) {}
  virtual ~SocketApi() = default;

  /// Create a socket; returns the stack-local descriptor.
  [[nodiscard]] virtual sim::Task<int> socket() = 0;

  [[nodiscard]] virtual sim::Task<void> bind(int sd, SockAddr local) = 0;
  [[nodiscard]] virtual sim::Task<void> listen(int sd, int backlog) = 0;

  /// Block until a connection request arrives; returns the connected
  /// socket and fills `peer` (may be null) with the requester's address —
  /// the information the paper's "data message exchange" scheme preserves.
  [[nodiscard]] virtual sim::Task<int> accept(int sd, SockAddr* peer) = 0;

  [[nodiscard]] virtual sim::Task<void> connect(int sd, SockAddr remote) = 0;

  /// Read up to out.size() bytes; blocks until at least one byte (stream
  /// semantics) or a full message (datagram semantics) is available.
  /// Returns 0 on orderly peer close.
  [[nodiscard]] virtual sim::Task<std::size_t> read(
      int sd, std::span<std::uint8_t> out) = 0;

  /// Write some prefix of `in`; returns bytes accepted (>= 1 unless `in`
  /// is empty).  May block for buffer space / flow-control credits.
  [[nodiscard]] virtual sim::Task<std::size_t> write(
      int sd, std::span<const std::uint8_t> in) = 0;

  /// readv-style read: like read(), but delivers up to `max_bytes` as
  /// spans in `view` instead of copying into a caller buffer, eliminating
  /// the last host copy for stacks that can lend their receive buffers.
  /// The default implementation reads into `view.scratch` (one copy), so
  /// every stack supports the call.  Blocking and return-value semantics
  /// match read().
  [[nodiscard]] virtual sim::Task<std::size_t> read_view(
      int sd, RecvView& view, std::size_t max_bytes) {
    view.reset();
    note_recv_scratch(ensure_recv_scratch(view, max_bytes));
    std::size_t n =
        co_await read(sd, std::span<std::uint8_t>(view.scratch.data(),
                                                  max_bytes));
    if (n > 0) {
      view.parts.push_back(
          std::span<const std::uint8_t>(view.scratch.data(), n));
    }
    co_return n;
  }

  [[nodiscard]] virtual sim::Task<void> close(int sd) = 0;

  /// Option semantics are ignore-unsupported, matching setsockopt() use in
  /// portable applications: set_option() silently accepts options the stack
  /// has no equivalent for (kNoDelay and the buffer sizes on the substrate,
  /// kDatagram on kernel TCP), though it still charges the call.  It throws
  /// SocketError(kInvalid) only for a bad descriptor or a state in which a
  /// supported option can no longer be changed (the substrate's mode after
  /// connect).
  [[nodiscard]] virtual sim::Task<void> set_option(int sd, SockOpt opt,
                                                   int value) = 0;

  /// select()/ring support: non-blocking readiness probes plus a condition
  /// variable notified on any socket state change in this stack.
  /// readable(sd) true means the next read()/accept() completes without
  /// parking on activity(); writable(sd) true means the next write()
  /// accepts at least one byte without parking for buffer space or
  /// flow-control credits.  Both also return true when the operation would
  /// fail immediately (reset, closed peer), mirroring POSIX select(),
  /// which marks error'd descriptors ready so the caller collects the
  /// error from the call itself.
  [[nodiscard]] virtual bool readable(int sd) const = 0;
  [[nodiscard]] virtual bool writable(int sd) const = 0;
  [[nodiscard]] virtual sim::CondVar& activity() = 0;

  /// Non-blocking batched accept: drain up to `max` already-arrived
  /// connection requests from listener `sd` into `out` (and, when `peers`
  /// is non-null, the matching client addresses), returning how many were
  /// accepted.  Never parks waiting for a request (a request may still pay
  /// its normal handshake costs in simulated time).  The default loops
  /// readable()+accept(); stacks with a scannable backlog override it to
  /// take one pass over their pre-posted descriptors.
  [[nodiscard]] virtual sim::Task<std::size_t> accept_many(
      int sd, std::size_t max, std::vector<int>& out,
      std::vector<SockAddr>* peers = nullptr) {
    std::size_t n = 0;
    while (n < max && readable(sd)) {
      SockAddr peer{};
      out.push_back(co_await accept(sd, &peer));
      if (peers != nullptr) peers->push_back(peer);
      ++n;
    }
    co_return n;
  }

  /// Convenience: write the whole buffer.
  [[nodiscard]] sim::Task<void> write_all(int sd,
                                          std::span<const std::uint8_t> in) {
    std::size_t done = 0;
    while (done < in.size()) {
      done += co_await write(sd, in.subspan(done));
    }
  }

  /// Convenience: read exactly out.size() bytes; throws kClosed on early
  /// EOF.
  [[nodiscard]] sim::Task<void> read_exact(int sd,
                                           std::span<std::uint8_t> out) {
    std::size_t done = 0;
    while (done < out.size()) {
      std::size_t n = co_await read(sd, out.subspan(done));
      if (n == 0) {
        throw SocketError(SockErr::kClosed, "peer closed during read_exact");
      }
      done += n;
    }
  }

 protected:
  /// Raise the "host/recv_scratch_hwm" gauge to `bytes`, the scratch size
  /// ensure_recv_scratch() returned on a read_view() path.
  void note_recv_scratch(std::size_t bytes) {
    const auto b = static_cast<std::int64_t>(bytes);
    if (b > recv_scratch_hwm_.value()) recv_scratch_hwm_.set(b);
  }

 private:
  obs::Gauge& recv_scratch_hwm_;
};

}  // namespace ulsocks::os
