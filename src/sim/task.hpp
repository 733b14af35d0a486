// Lazily-started coroutine task for simulated processes.
//
// A `Task<T>` is the return type of every coroutine in the simulation:
// application processes, protocol handlers, NIC firmware loops.  Tasks are
// lazy (they do not run until awaited or spawned on the Engine), run
// arbitrarily deep call chains in O(1) native stack via the resume
// trampoline below, and propagate exceptions to their awaiter.
//
// The whole simulation is single-threaded; no synchronization is needed.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/block_pool.hpp"

namespace ulsocks::sim {

template <class T>
class Task;

namespace detail {

// Stack-safe resume loop ("trampoline").  Classic symmetric transfer —
// returning the next coroutine's handle from await_suspend — is only O(1)
// stack if the compiler turns the transfer into a genuine tail call, and
// GCC does not under -fsanitize=address, so a deep task chain would
// overflow the native stack in exactly the sanitized builds the pre-merge
// gate runs.  Instead awaiters *post* the next coroutine to the innermost
// active chain slot and this loop resumes it, making stack safety a
// runtime property rather than an optimizer one.
inline std::coroutine_handle<>* active_chain = nullptr;

inline void resume_chain(std::coroutine_handle<> first) {
  std::coroutine_handle<> next{};
  auto* const saved = active_chain;
  active_chain = &next;
  try {
    auto h = first;
    while (h) {
      next = {};
      h.resume();
      h = next;  // whatever the slice's suspension posted, if anything
    }
  } catch (...) {
    active_chain = saved;
    throw;
  }
  active_chain = saved;
}

// Hand `h` to the innermost running chain loop; a raw `.resume()` from
// outside the engine has no active loop, so start one here.
inline void post_next(std::coroutine_handle<> h) {
  if (active_chain) {
    *active_chain = h;
  } else {
    resume_chain(h);
  }
}

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  // Every coroutine frame comes from the block pool (sim/block_pool.hpp).
  // The sized delete receives the frame size the matching new was asked
  // for, which selects the same size class.
  static void* operator new(std::size_t bytes) {
    return block_pool.allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    block_pool.deallocate(p, bytes);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <class P>
    void await_suspend(std::coroutine_handle<P> h) noexcept {
      // Resume whoever was awaiting us; if detached, park forever (the
      // owning Task destroys the frame).
      if (auto cont = h.promise().continuation) post_next(cont);
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <class T>
struct Promise final : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  template <class U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
};

template <>
struct Promise<void> final : PromiseBase {
  Task<void> get_return_object();
  void return_void() const noexcept {}
};

}  // namespace detail

/// An owning handle to a lazily-started coroutine.  Move-only.
template <class T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  /// Release ownership of the coroutine frame (caller must destroy it).
  Handle release() noexcept { return std::exchange(handle_, {}); }
  Handle handle() const noexcept { return handle_; }

  /// Awaiting a task starts it; the awaiter resumes when it completes.
  auto operator co_await() const& noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      void await_suspend(std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        detail::post_next(h);  // run the child now, via the trampoline
      }
      T await_resume() const {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) return std::move(*p.value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

namespace detail {

template <class T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace ulsocks::sim
