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
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace ulsocks::sim {

/// Multi-waiter condition variable.  Use with a predicate loop, or via
/// `wait_until`.
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

  /// Park until `pred()` holds (checked before every sleep and after every
  /// wake-up).
  template <class Pred>
  [[nodiscard]] Task<void> wait_until(Pred pred) {
    while (!pred()) co_await wait();
  }

  void notify_all() {
    for (auto h : waiters_) {
      eng_->schedule_at(eng_->now(), [h] { detail::resume_chain(h); });
    }
    waiters_.clear();
  }

  void notify_one() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.erase(waiters_.begin());
    eng_->schedule_at(eng_->now(), [h] { detail::resume_chain(h); });
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

 private:
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// One-shot (or manually reset) event flag.
class ManualEvent {
 public:
  explicit ManualEvent(Engine& eng) : cv_(eng) {}

  [[nodiscard]] Task<void> wait() {
    while (!set_) co_await cv_.wait();
  }

  void set() {
    if (set_) return;
    set_ = true;
    cv_.notify_all();
  }

  void reset() noexcept { set_ = false; }
  [[nodiscard]] bool is_set() const noexcept { return set_; }

 private:
  bool set_ = false;
  CondVar cv_;
};

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t initial) : cv_(eng), count_(initial) {}

  [[nodiscard]] Task<void> acquire() {
    while (count_ == 0) co_await cv_.wait();
    --count_;
  }

  /// Non-blocking acquire; returns false if no permit is available.
  [[nodiscard]] bool try_acquire() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  void release(std::size_t n = 1) {
    count_ += n;
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t available() const noexcept { return count_; }

 private:
  CondVar cv_;
  std::size_t count_;
};

/// Bounded FIFO channel between coroutines.  `recv()` returns nullopt once
/// the channel is closed and drained; `send()` on a closed channel throws.
template <class T>
class Channel {
 public:
  Channel(Engine& eng, std::size_t capacity)
      : data_cv_(eng), space_cv_(eng), capacity_(capacity) {}

  [[nodiscard]] Task<void> send(T value) {
    while (!closed_ && items_.size() >= capacity_) co_await space_cv_.wait();
    if (closed_) throw std::runtime_error("Channel::send on closed channel");
    items_.push_back(std::move(value));
    data_cv_.notify_one();
  }

  /// Non-blocking send; returns false when full or closed.
  [[nodiscard]] bool try_send(T value) {
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    data_cv_.notify_one();
    return true;
  }

  [[nodiscard]] Task<std::optional<T>> recv() {
    while (items_.empty() && !closed_) co_await data_cv_.wait();
    if (items_.empty()) co_return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    space_cv_.notify_one();
    co_return std::optional<T>(std::move(v));
  }

  [[nodiscard]] std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    space_cv_.notify_one();
    return std::optional<T>(std::move(v));
  }

  void close() {
    closed_ = true;
    data_cv_.notify_all();
    space_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

 private:
  CondVar data_cv_;
  CondVar space_cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace ulsocks::sim
