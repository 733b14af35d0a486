// OpRing implementation.
//
// Lives in the sockets library (not oskernel) because the ring's whole
// point is the substrate mapping: accept SQEs drain the listener's
// pre-posted connection descriptors through accept_many() in one pass, and
// readiness probes inspect the credit/descriptor state the substrate
// already keeps per §5.4.  The same code drives the kernel TCP stack
// unchanged through the identical SocketApi virtuals — that is the
// ring-vs-blocking and substrate-vs-TCP ablation surface.
//
// Scheduling discipline (the determinism argument, DESIGN.md §13):
//   * submit() and every host-side decision below run inside the caller's
//     current engine event and cost zero simulated time and zero scheduler
//     events.
//   * Drivers are started inline via the resume trampoline
//     (sim::detail::resume_chain), in submission-sequence order, and only
//     when the readiness probe says the stack call will not park — so the
//     stack's activity() condition variable holds at most ONE ring waiter
//     (the pump), never one per operation.
//   * CQEs are appended as operations complete and sorted by
//     (completion_time, seq) at reap; seq is the submission order, so ties
//     at one timestamp are resolved identically no matter how completions
//     interleaved.

#include "oskernel/ring.hpp"

#include <algorithm>
#include <utility>

namespace ulsocks::os {

OpRing::OpRing(sim::Engine& eng, SocketApi& stack)
    : eng_(eng),
      stack_(stack),
      cqe_cv_(eng),
      batch_size_(eng.metrics().histogram("ring/batch_size")),
      reap_wait_ns_(eng.metrics().histogram("ring/reap_wait_ns")),
      sqe_inflight_(eng.metrics().gauge("ring/sqe_inflight")) {}

// --- Submission-side helpers ----------------------------------------------

void OpRing::push(Sqe sqe) {
  auto op = std::make_unique<Op>();
  op->sqe = sqe;
  op->seq = next_seq_++;
  staged_.push_back(std::move(op));
}

void OpRing::push_accept(int sd, std::uint64_t user_data) {
  push({.op = OpKind::kAccept, .sd = sd, .user_data = user_data});
}

void OpRing::push_read(int sd, std::span<std::uint8_t> buf,
                       std::uint64_t user_data) {
  push({.op = OpKind::kRead, .sd = sd, .user_data = user_data,
        .read_buf = buf});
}

void OpRing::push_write(int sd, std::span<const std::uint8_t> buf,
                        std::uint64_t user_data) {
  push({.op = OpKind::kWrite, .sd = sd, .user_data = user_data,
        .write_buf = buf});
}

void OpRing::push_close(int sd, std::uint64_t user_data) {
  push({.op = OpKind::kClose, .sd = sd, .user_data = user_data});
}

// --- Doorbell -------------------------------------------------------------

void OpRing::submit() {
  if (fatal_) std::rethrow_exception(fatal_);
  if (staged_.empty()) return;
  batch_size_.observe(staged_.size());

  // Move the batch into waiting_ (staged_ is already in seq order) and
  // remember which closes it carried.
  std::vector<std::pair<int, std::uint64_t>> closes;  // (sd, seq)
  for (auto& op : staged_) {
    if (op->sqe.op == OpKind::kClose) closes.emplace_back(op->sqe.sd, op->seq);
    const std::uint64_t seq = op->seq;
    waiting_.emplace(seq, std::move(op));
  }
  inflight_ += staged_.size();
  staged_.clear();
  if (static_cast<std::int64_t>(inflight_) > sqe_inflight_.value()) {
    sqe_inflight_.set(static_cast<std::int64_t>(inflight_));
  }

  // A close SQE cancels every not-yet-started SQE on the same descriptor
  // (io_uring's -ECANCELED on ring teardown, scoped per fd): they complete
  // with failed/kClosed at the doorbell timestamp, before the close runs.
  for (const auto& [sd, seq] : closes) cancel_waiting(sd, seq);

  start_ready();
  ensure_pump();
  prune_drivers();
}

void OpRing::start_ready() {
  // Drivers run inline and may complete, cancel, or hand accepts back to
  // waiting_ before start() returns, so after each start the walk resumes
  // past the seq it started.
  auto it = waiting_.begin();
  while (it != waiting_.end()) {
    const std::uint64_t seq = it->first;
    const OpKind kind = it->second->sqe.op;
    const int sd = it->second->sqe.sd;
    // close() never waits for readiness; it is the wake-up that resolves
    // everything else parked on this descriptor.
    const bool ready = kind == OpKind::kClose ||
                       (kind == OpKind::kWrite ? stack_.writable(sd)
                                               : stack_.readable(sd));
    if (!ready) {
      ++it;
      continue;
    }
    if (kind == OpKind::kAccept) {
      // Group every waiting accept on this listener (this one is the
      // earliest: the walk runs in seq order) into one accept_many pass
      // over the pre-posted connection descriptors.
      std::vector<OpPtr> group;
      while (it != waiting_.end()) {
        const Sqe& other = it->second->sqe;
        if (other.op == OpKind::kAccept && other.sd == sd) {
          group.push_back(std::move(waiting_.extract(it++).mapped()));
        } else {
          ++it;
        }
      }
      start(drive_accepts(sd, std::move(group)));
    } else {
      start(drive(std::move(waiting_.extract(it).mapped())));
    }
    it = waiting_.upper_bound(seq);
  }
}

void OpRing::start(sim::Task<void> driver) {
  drivers_.push_back(std::move(driver));
  sim::detail::resume_chain(drivers_.back().handle());
}

void OpRing::ensure_pump() {
  if (pump_running_ || waiting_.empty()) return;
  pump_task_ = pump();  // any previous pump frame is done; safe to replace
  pump_running_ = true;
  sim::detail::resume_chain(pump_task_.handle());
}

void OpRing::prune_drivers() {
  if (drivers_.size() < 64) return;
  std::erase_if(drivers_, [](const sim::Task<void>& t) { return t.done(); });
}

// --- Completion-side helpers ----------------------------------------------

void OpRing::finish(const Op& op, std::int64_t result, SockAddr peer) {
  Cqe c;
  c.user_data = op.sqe.user_data;
  c.op = op.sqe.op;
  c.sd = op.sqe.sd;
  c.result = result;
  c.completion_time = eng_.now();
  c.seq = op.seq;
  c.peer = peer;
  --inflight_;
  ready_.push_back(c);
  cqe_cv_.notify_all();
}

void OpRing::fail(const Op& op, SockErr error) {
  finish(op, -1);
  // notify_all() only schedules the reapers' wake-ups, so the CQE is
  // complete before any of them looks at it.
  Cqe& c = ready_.back();
  c.error = error;
  c.failed = true;
}

void OpRing::cancel_waiting(int sd, std::uint64_t except_seq) {
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    const Op& op = *it->second;
    if (op.seq != except_seq && op.sqe.sd == sd &&
        op.sqe.op != OpKind::kClose) {
      fail(op, SockErr::kClosed);
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- Drivers --------------------------------------------------------------

sim::Task<void> OpRing::drive(OpPtr op) {
  const int sd = op->sqe.sd;
  try {
    switch (op->sqe.op) {
      case OpKind::kRead: {
        std::size_t n = co_await stack_.read(sd, op->sqe.read_buf);
        finish(*op, static_cast<std::int64_t>(n));
        break;
      }
      case OpKind::kWrite: {
        std::size_t n = co_await stack_.write(sd, op->sqe.write_buf);
        finish(*op, static_cast<std::int64_t>(n));
        break;
      }
      case OpKind::kClose: {
        co_await stack_.close(sd);
        finish(*op, 0);
        // Post-close sweep: SQEs that went back to waiting_ while the
        // close ran (e.g. an accept batch cut short) can never become
        // ready now; cancel them rather than leaving them parked forever.
        cancel_waiting(sd, ~std::uint64_t{0});
        break;
      }
      case OpKind::kAccept:
        // Accepts always go through drive_accepts().
        fail(*op, SockErr::kInvalid);
        break;
    }
  } catch (const SocketError& e) {
    fail(*op, e.code());
  } catch (...) {
    // Invariant violations and other non-socket errors must not vanish
    // into a detached frame: surface them at the next submit()/reap().
    fatal_ = std::current_exception();
    fail(*op, SockErr::kInvalid);
  }
}

sim::Task<void> OpRing::drive_accepts(int sd, std::vector<OpPtr> ops) {
  std::vector<int> fds;
  std::vector<SockAddr> peers;
  try {
    co_await stack_.accept_many(sd, ops.size(), fds, &peers);
  } catch (const SocketError& e) {
    for (const OpPtr& op : ops) fail(*op, e.code());
    co_return;
  } catch (...) {
    fatal_ = std::current_exception();
    for (const OpPtr& op : ops) fail(*op, SockErr::kInvalid);
    co_return;
  }
  // Completed accepts map to SQEs in submission order; the rest go back
  // to waiting_ for the next readiness round (or for a close to cancel
  // them).
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i < fds.size()) {
      finish(*ops[i], fds[i], i < peers.size() ? peers[i] : SockAddr{});
    } else {
      const std::uint64_t seq = ops[i]->seq;
      waiting_.emplace(seq, std::move(ops[i]));
    }
  }
  if (fds.size() < ops.size()) ensure_pump();
}

sim::Task<void> OpRing::pump() {
  // The ring's only standing waiter on the stack: one scheduler event per
  // stack state change, independent of how many SQEs are outstanding.
  // Walk BEFORE the first park: readiness may have arrived while no pump
  // was listening (e.g. while an accept batch was in flight and its
  // leftovers had not yet gone back to waiting_), and that notification
  // is gone.
  while (!fatal_) {
    start_ready();
    if (waiting_.empty()) break;
    co_await stack_.activity().wait();
  }
  pump_running_ = false;
}

// --- Reap -----------------------------------------------------------------

sim::Task<std::vector<Cqe>> OpRing::reap(std::size_t min, std::size_t max) {
  if (fatal_) std::rethrow_exception(fatal_);
  min = std::min(min, max);
  const sim::Time t0 = eng_.now();
  while (ready_.size() < min && inflight_ != 0) {
    co_await cqe_cv_.wait();
    if (fatal_) std::rethrow_exception(fatal_);
  }
  reap_wait_ns_.observe(eng_.now() - t0);
  std::sort(ready_.begin(), ready_.end(), [](const Cqe& a, const Cqe& b) {
    if (a.completion_time != b.completion_time) {
      return a.completion_time < b.completion_time;
    }
    return a.seq < b.seq;
  });
  std::size_t n = std::min(max, ready_.size());
  std::vector<Cqe> out(ready_.begin(),
                       ready_.begin() + static_cast<std::ptrdiff_t>(n));
  ready_.erase(ready_.begin(), ready_.begin() + static_cast<std::ptrdiff_t>(n));
  co_return out;
}

}  // namespace ulsocks::os
