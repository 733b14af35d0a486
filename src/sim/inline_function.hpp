// Small-buffer-optimized, move-only callable for the simulation hot path.
//
// Every event the engine executes used to be a `std::function<void()>`,
// which heap-allocates for any capture list larger than libstdc++'s
// 16-byte inline buffer — i.e. for nearly every protocol lambda in this
// codebase ([this, st, idx, total, offset, len] is already 40 bytes).  At
// millions of events per second that allocation *is* the simulator's
// profile.  InlineFunction stores captures up to `Capacity` bytes inline
// in the event object itself; bigger ("spilled") captures come from the
// size-class block pool (sim/block_pool.hpp), the same pool that serves
// coroutine frames, so even the overflow path is allocation-free at steady
// state.
//
// Unlike std::function, InlineFunction is move-only and accepts move-only
// captures.  That is a feature: frames and payload vectors can be moved
// through an event chain (NIC -> link -> switch -> NIC) instead of being
// wrapped in shared_ptr or copied per hop just to satisfy copyability.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/block_pool.hpp"

namespace ulsocks::sim {

template <std::size_t Capacity = 88, std::size_t Align = 16>
class InlineFunction {
 public:
  InlineFunction() noexcept = default;
  // Suppression lists are shared, namespaced per tool (DESIGN.md §12):
  // google-*/bugprone-* tokens belong to clang-tidy, ulsan-* tokens to
  // ulsan; each tool ignores the other's.  The implicit conversions
  // below are the std::function-compatible contract.
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->call(obj_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(obj_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void*);
    // Move-construct into dst and destroy src.  Null for spilled callables,
    // which relocate by pointer swap instead.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <class F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(alignof(Fn) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned captures are not supported");
    if constexpr (sizeof(Fn) <= Capacity && alignof(Fn) <= Align &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      static constexpr Ops ops{
          [](void* o) { (*static_cast<Fn*>(o))(); },
          [](void* dst, void* src) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          },
          [](void* o) { static_cast<Fn*>(o)->~Fn(); },
      };
      obj_ = ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &ops;
    } else {
      static constexpr Ops ops{
          [](void* o) { (*static_cast<Fn*>(o))(); },
          nullptr,
          [](void* o) {
            static_cast<Fn*>(o)->~Fn();
            detail::block_pool.deallocate(o, sizeof(Fn));
          },
      };
      void* p = detail::block_pool.allocate(sizeof(Fn));
      try {
        obj_ = ::new (p) Fn(std::forward<F>(f));
      } catch (...) {
        detail::block_pool.deallocate(p, sizeof(Fn));
        throw;
      }
      ops_ = &ops;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.obj_);
      obj_ = buf_;
    } else {
      obj_ = other.obj_;  // spilled: steal the block
    }
    other.ops_ = nullptr;
  }

  void* obj_ = nullptr;
  const Ops* ops_ = nullptr;
  alignas(Align) std::byte buf_[Capacity];
};

/// The engine's event callable.  88 bytes of inline capture covers every
/// hot-path lambda in the protocol stacks (the largest, EMP fragment
/// delivery, captures this + Binding + EmpHeader + FramePtr = 64 bytes).
using EventFn = InlineFunction<>;

}  // namespace ulsocks::sim
