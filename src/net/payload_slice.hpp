// Refcounted payload slices: the host-side zero-copy data path.
//
// A PayloadSlice is an immutable view (offset/length) into a refcounted
// byte buffer.  Protocol layers pin a message's payload into one slice at
// the API boundary (the single host copy), then fragment, encode, forward,
// flood and deliver it by slicing: refcount bumps instead of memcpy.  Every
// backing buffer comes from a NIC's SlicePool, a net::Recycler: the last
// release returns the buffer (capacity included) to the pool's free list,
// and a buffer that outlives its pool frees itself (see net/recycler.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/recycler.hpp"

namespace ulsocks::net {

class SlicePool;

namespace detail {

/// One refcounted backing buffer.
struct SliceStorage : Recyclable<SliceStorage> {
  std::vector<std::uint8_t> bytes;
  std::uint32_t refs = 0;
};

}  // namespace detail

/// Immutable, refcounted [offset, offset+length) view of a backing buffer.
/// Copying bumps the refcount; the last owner returns the storage to its
/// pool (or frees it).  Default-constructed slices are empty and own
/// nothing.
class PayloadSlice {
 public:
  PayloadSlice() = default;
  PayloadSlice(const PayloadSlice& o) noexcept
      : s_(o.s_), off_(o.off_), len_(o.len_) {
    if (s_ != nullptr) ++s_->refs;
  }
  PayloadSlice(PayloadSlice&& o) noexcept
      : s_(o.s_), off_(o.off_), len_(o.len_) {
    o.s_ = nullptr;
    o.off_ = 0;
    o.len_ = 0;
  }
  PayloadSlice& operator=(const PayloadSlice& o) noexcept {
    if (this != &o) {
      if (o.s_ != nullptr) ++o.s_->refs;
      release();
      s_ = o.s_;
      off_ = o.off_;
      len_ = o.len_;
    }
    return *this;
  }
  PayloadSlice& operator=(PayloadSlice&& o) noexcept {
    if (this != &o) {
      release();
      s_ = o.s_;
      off_ = o.off_;
      len_ = o.len_;
      o.s_ = nullptr;
      o.off_ = 0;
      o.len_ = 0;
    }
    return *this;
  }
  ~PayloadSlice() { release(); }

  /// A narrower view of the same buffer (refcount bump, no copy).
  /// `off + len` must lie within this slice.
  [[nodiscard]] PayloadSlice subslice(std::size_t off, std::size_t len) const {
    PayloadSlice s(*this);
    s.off_ += static_cast<std::uint32_t>(off);
    s.len_ = static_cast<std::uint32_t>(len);
    return s;
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return s_ == nullptr ? nullptr : s_->bytes.data() + off_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data(), len_};
  }
  /// How many views (including this one) share the backing buffer.
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return s_ == nullptr ? 0 : s_->refs;
  }

 private:
  friend class SlicePool;

  void release() noexcept {
    if (s_ == nullptr) return;
    if (--s_->refs == 0) Recycler<detail::SliceStorage>::give_back(s_);
    s_ = nullptr;
  }

  detail::SliceStorage* s_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

/// Recycles slice backing buffers for one host's NIC (the simulated pinned
/// DMA region).
class SlicePool : public Recycler<detail::SliceStorage> {
 public:
  /// Pin `bytes` into a fresh slice: the one host copy of the zero-copy
  /// path.
  [[nodiscard]] PayloadSlice copy_in(std::span<const std::uint8_t> bytes) {
    return gather(bytes, {});
  }

  /// Pin a header and a payload contiguously into one slice (the
  /// scatter-gather send: substrate header + user bytes in a single pass).
  /// The buffer is written in full, so no stale bytes from a previous life
  /// can bleed through.
  [[nodiscard]] PayloadSlice gather(std::span<const std::uint8_t> head,
                                    std::span<const std::uint8_t> body) {
    detail::SliceStorage* s = take();
    s->bytes.clear();  // keeps capacity — the point of the pool
    s->bytes.insert(s->bytes.end(), head.begin(), head.end());
    s->bytes.insert(s->bytes.end(), body.begin(), body.end());
    s->refs = 1;
    PayloadSlice out;
    out.s_ = s;
    out.len_ = static_cast<std::uint32_t>(s->bytes.size());
    return out;
  }
};

}  // namespace ulsocks::net
