// Size-class block pool for the simulator's short-lived heap objects:
// coroutine frames (sim/task.hpp) and EventFn captures too big for the
// inline buffer (sim/inline_function.hpp).
//
// A many-connection run creates and destroys thousands of frames per
// response, 64-640 B each.  Recycling them through per-class free lists
// keeps malloc off the hot path.  The rules:
//   - The simulator runs on one thread (DESIGN.md §11), so one process-wide
//     pool serves every engine and needs no lock.
//   - Classes are multiples of kBlockGrain up to kMaxPooledBytes; larger
//     requests go straight to ::operator new/delete.
//   - Every block is its own ::operator new allocation.  The pool keeps at
//     most kBlockFreeMax free blocks per class, frees the rest, and
//     releases its lists at exit.
//   - Free-listed blocks are poisoned for AddressSanitizer, so touching a
//     destroyed frame is still reported.  The macros are no-ops in other
//     builds, so every build runs the same code.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <new>

namespace ulsocks::sim::detail {

class BlockPool {
 public:
  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    for (std::size_t c = 0; c < kBlockClasses; ++c) {
      while (lists_[c].head != nullptr) ::operator delete(pop(c));
      // Objects that outlive the pool (statics destroyed after it) then
      // free straight to the allocator.
      lists_[c].count = kBlockFreeMax;
    }
  }

  /// Pre: bytes > 0 (a coroutine frame or a sizeof).
  [[nodiscard]] void* allocate(std::size_t bytes) {
    if (bytes > kMaxPooledBytes) return ::operator new(bytes);
    const std::size_t c = class_of(bytes);
    if (lists_[c].head != nullptr) return pop(c);
    return ::operator new(block_bytes(c));
  }

  /// `bytes` must be the size passed to the allocate() that returned `p`.
  void deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes <= kMaxPooledBytes) {
      const std::size_t c = class_of(bytes);
      List& l = lists_[c];
      if (l.count < kBlockFreeMax) {
        l.head = ::new (p) Block{l.head};
        ++l.count;
        ASAN_POISON_MEMORY_REGION(p, block_bytes(c));
        return;
      }
    }
    ::operator delete(p);
  }

 private:
  static constexpr std::size_t kBlockGrain = 64;
  static constexpr std::size_t kBlockClasses = 10;
  static constexpr std::size_t kMaxPooledBytes = kBlockGrain * kBlockClasses;
  static constexpr std::size_t kBlockFreeMax = 4096;  // per class

  struct Block {
    Block* next;
  };
  struct List {
    Block* head = nullptr;
    std::size_t count = 0;
  };

  static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    return (bytes - 1) / kBlockGrain;
  }
  static constexpr std::size_t block_bytes(std::size_t c) noexcept {
    return (c + 1) * kBlockGrain;
  }

  Block* pop(std::size_t c) noexcept {
    List& l = lists_[c];
    Block* b = l.head;
    ASAN_UNPOISON_MEMORY_REGION(b, block_bytes(c));
    l.head = b->next;
    --l.count;
    return b;
  }

  List lists_[kBlockClasses];
};

/// The process's pool.
inline BlockPool block_pool;

}  // namespace ulsocks::sim::detail
