// Coroutine synchronization primitives.
//
// All primitives resume waiters *through the event queue* (at the current
// timestamp), never inline.  This keeps causality in queue order and bounds
// stack depth regardless of how many coroutines a notification wakes.
//
// Lifetime rule: a coroutine must not be destroyed while it is parked in a
// primitive's wait list; in this codebase every simulated process runs to
// completion before its Engine is torn down.
#pragma once

#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace ulsocks::sim {

/// Multi-waiter condition variable.  Use with a predicate loop.
class CondVar {
 public:
  explicit CondVar(Engine& eng) : eng_(&eng) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Awaitable: park until the next notify.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      CondVar* cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void notify_all() {
    for (auto h : waiters_) eng_->schedule_resume(eng_->now(), h);
    waiters_.clear();
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

 private:
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// One-shot event flag.
class ManualEvent {
 public:
  explicit ManualEvent(Engine& eng) : cv_(eng) {}

  /// Awaitable: ready once the flag is set, otherwise park on the condition
  /// variable until set() wakes it, one resume event at the set's instant.
  /// An awaiter rather than a Task, so a wait allocates no coroutine frame.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      ManualEvent* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev->cv_.wait().await_suspend(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void set() {
    if (set_) return;
    set_ = true;
    cv_.notify_all();
  }

 private:
  bool set_ = false;
  CondVar cv_;
};

}  // namespace ulsocks::sim
