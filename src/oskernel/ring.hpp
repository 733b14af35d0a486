// io_uring-style submission/completion ring over any SocketApi stack.
//
// The paper's §5.4 fd-tracking argument is that user-level sockets already
// keep per-descriptor state in pre-posted EMP descriptor queues, so batching
// N socket operations into one boundary crossing is free structure: the
// descriptors ARE the ring slots.  `OpRing` packages that as an explicit
// submission queue (SQEs tagged with caller data) and completion queue
// (CQEs in deterministic order), the shape the kernel-bypass literature
// converged on (io_uring, PSM3's endpoint model).
//
// Why this beats one-blocking-coroutine-per-operation at C10K scale: a
// blocking server parks one coroutine per idle connection inside the
// stack's activity() condition variable, so every stack state change pays
// one scheduler event per parked handler (the thundering herd).  The ring
// parks exactly ONE pump coroutine there, probes readiness host-side, and
// starts the few runnable operations inline through the resume trampoline
// — the event cost per stack wake-up drops from O(connections) to O(1).
//
// Determinism: submit() runs entirely inside the caller's current engine
// event (zero scheduler events — better than the one-doorbell-event
// budget), and every host-side decision (probes, grouping, cancellation)
// is a pure function of simulated state at the current timestamp.  Because
// host-side work costs no simulated time, an application that reaps in
// batches of 1 or of 1000 performs identical submissions at identical
// timestamps, so `Engine::digest()` is byte-identical across reap batch
// sizes (tests/ring_test.cpp proves this; DESIGN.md §13 has the argument).
//
// Lifetime rules: the caller keeps SQE buffers (`read`/`write` spans)
// alive until the matching CQE is reaped, and drains the ring (every
// submitted SQE reaped) before destroying it — an SQE on a descriptor that
// never becomes ready and is never closed would otherwise leave its driver
// parked in the stack forever, exactly like a blocking read on a silent
// peer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "oskernel/socket_api.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace ulsocks::os {

enum class OpKind : std::uint8_t { kAccept, kRead, kWrite, kClose };

/// Completion-queue entry.  `seq` is the submission sequence number (ring-
/// global, assigned at push time); reap() orders CQEs by
/// (completion_time, seq), so ties at one timestamp resolve in submission
/// order no matter how the stack interleaved the operations internally.
struct Cqe {
  std::uint64_t user_data = 0;
  OpKind op = OpKind::kRead;
  int sd = -1;              // the descriptor the SQE named (listener for accepts)
  std::int64_t result = 0;  // bytes moved; accepted sd for kAccept; -1 on failure
  SockErr error = SockErr::kInvalid;  // valid only when `failed`
  bool failed = false;
  sim::Time completion_time = 0;
  std::uint64_t seq = 0;
  SockAddr peer{};  // kAccept: the connecting client's address
};

/// Submission/completion ring.  Typical event-loop shape:
///
///   os::OpRing ring(eng, stack);
///   ring.push_accept(listen_sd, kAcceptTag);
///   ring.submit();
///   for (;;) {
///     for (const os::Cqe& c : co_await ring.reap(1, 64)) { ...push more... }
///     ring.submit();
///   }
///
/// Cancellation: a kClose SQE cancels every not-yet-started SQE on the same
/// descriptor (they complete with failed=true, error=kClosed) at submit
/// time, then runs the stack close; operations already in flight inside the
/// stack complete through the stack's own close semantics (error CQE).
class OpRing {
 public:
  OpRing(sim::Engine& eng, SocketApi& stack);
  OpRing(const OpRing&) = delete;
  OpRing& operator=(const OpRing&) = delete;

  // --- Submission queue -----------------------------------------------
  void push_accept(int sd, std::uint64_t user_data);
  void push_read(int sd, std::span<std::uint8_t> buf, std::uint64_t user_data);
  void push_write(int sd, std::span<const std::uint8_t> buf,
                  std::uint64_t user_data);
  void push_close(int sd, std::uint64_t user_data);

  /// Ring the doorbell: hand every pushed SQE to the stack in one call.
  /// Runs inside the caller's current engine event — cancellations are
  /// applied, ready operations start inline (accepts on one listener are
  /// grouped into a single accept_many pass over its pre-posted
  /// descriptors), and unready ones wait on the single pump coroutine.
  void submit();

  /// Block (simulated time) until at least `min` CQEs are available or no
  /// submitted SQE remains in flight, then return up to `max` CQEs in
  /// (completion_time, seq) order.  `min` is clamped to `max`; min == 0
  /// never parks.
  [[nodiscard]] sim::Task<std::vector<Cqe>> reap(std::size_t min,
                                                 std::size_t max);

  /// SQEs submitted and not yet completed (started or awaiting readiness).
  [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }

 private:
  struct Sqe {
    OpKind op = OpKind::kRead;
    int sd = -1;
    std::uint64_t user_data = 0;
    std::span<std::uint8_t> read_buf{};
    std::span<const std::uint8_t> write_buf{};
  };
  struct Op {
    Sqe sqe;
    std::uint64_t seq = 0;
  };
  using OpPtr = std::unique_ptr<Op>;

  void push(Sqe sqe);
  /// Walk the waiting SQEs in seq order and start every one whose
  /// readiness probe says the stack call completes without parking.
  void start_ready();
  /// Keep `driver`'s frame and run it inline until it first parks.
  void start(sim::Task<void> driver);
  void ensure_pump();
  /// Emit `op`'s CQE and wake reapers.
  void finish(const Op& op, std::int64_t result, SockAddr peer = {});
  /// finish() with result -1 and the CQE marked failed with `error`.
  void fail(const Op& op, SockErr error);
  /// Cancel waiting SQEs on `sd` (except `except_seq` and other closes)
  /// with failed/kClosed CQEs.
  void cancel_waiting(int sd, std::uint64_t except_seq);
  void prune_drivers();

  /// Per-SQE driver: owns its op, runs the blocking stack call, emits the
  /// CQE.
  sim::Task<void> drive(OpPtr op);
  /// Batched accepts: one accept_many pass completes up to ops.size()
  /// SQEs; the rest go back to waiting_.
  sim::Task<void> drive_accepts(int sd, std::vector<OpPtr> ops);
  /// The single parked waiter: wakes on stack activity, starts whatever
  /// became ready, exits when no SQE is waiting.
  sim::Task<void> pump();

  sim::Engine& eng_;
  SocketApi& stack_;
  sim::CondVar cqe_cv_;

  std::vector<OpPtr> staged_;               // push order == seq order
  std::map<std::uint64_t, OpPtr> waiting_;  // submitted, not started; by seq
  std::size_t inflight_ = 0;                // submitted, not completed
  std::vector<Cqe> ready_;
  std::vector<sim::Task<void>> drivers_;  // frames owned until done
  sim::Task<void> pump_task_;
  bool pump_running_ = false;
  std::uint64_t next_seq_ = 0;
  std::exception_ptr fatal_;  // non-socket error from a driver; rethrown

  obs::Histogram& batch_size_;    // SQEs per submit()
  obs::Histogram& reap_wait_ns_;  // simulated ns parked per reap()
  obs::Gauge& sqe_inflight_;      // high-water mark of in-flight SQEs
};

}  // namespace ulsocks::os
