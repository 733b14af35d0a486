// Refcounted payload slices: the host-side zero-copy data path.
//
// A PayloadSlice is an immutable view (offset/length) into a refcounted
// byte buffer.  Protocol layers pin a message's payload into one slice at
// the API boundary (the single host copy), then fragment, encode, forward,
// flood and deliver it by slicing — refcount bumps instead of memcpy.  The
// backing buffers are pool-recycled exactly like FramePool frames: the
// deleter returns storage (capacity included) to the owning pool's free
// list, so steady-state traffic reuses a warm working set.
//
// Lifetime mirrors FramePool: slices routinely outlive their pool (queued
// events still hold frames holding slices when a Cluster destructs), so the
// pool core is shared_ptr-owned and stragglers free themselves when they
// see the dead mark.  Refcounts are plain integers — slices, like frames,
// never cross threads (a frame may cross shards, but every shard of a
// sim::ShardGroup runs on the calling thread).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ulsocks::net {

class SlicePool;
class PayloadSlice;

namespace detail {

struct SlicePoolCore;

/// One refcounted backing buffer.  `core` is set once at allocation (null
/// for adopted/heap buffers) and never reassigned on recycle.
struct SliceStorage {
  std::vector<std::uint8_t> bytes;
  std::uint32_t refs = 0;
  std::shared_ptr<SlicePoolCore> core;
};

struct SlicePoolCore {
  std::vector<SliceStorage*> free;
  bool alive = true;           // cleared when the owning SlicePool dies
  std::uint64_t created = 0;   // buffers ever heap-allocated by the pool
  std::uint64_t recycled = 0;  // acquires served from the free list
  std::uint64_t outstanding = 0;
  std::uint64_t high_water = 0;  // peak simultaneously-outstanding buffers
  obs::Gauge* hwm_gauge = nullptr;  // mirrors high_water when bound
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

  /// Wrap an existing vector as a slice without copying (heap-backed, not
  /// pooled): the TCP encode path hands its segment payload straight off.
  [[nodiscard]] static PayloadSlice adopt(std::vector<std::uint8_t> bytes) {
    auto* s = new detail::SliceStorage();
    s->bytes = std::move(bytes);
    s->refs = 1;
    PayloadSlice out;
    out.s_ = s;
    out.len_ = static_cast<std::uint32_t>(s->bytes.size());
    return out;
  }

 private:
  friend class SlicePool;

  void release() noexcept {
    if (s_ == nullptr) return;
    if (--s_->refs == 0) {
      detail::SlicePoolCore* core = s_->core.get();
      if (core != nullptr) {
        --core->outstanding;
        if (core->alive) {
          core->free.push_back(s_);
          s_ = nullptr;
          return;
        }
      }
      delete s_;
    }
    s_ = nullptr;
  }

  detail::SliceStorage* s_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

/// Recycles slice backing buffers for one host's NIC (the simulated pinned
/// DMA region).  Single-threaded, like the Engine that drives it.
class SlicePool {
 public:
  SlicePool() : core_(std::make_shared<detail::SlicePoolCore>()) {}
  SlicePool(const SlicePool&) = delete;
  SlicePool& operator=(const SlicePool&) = delete;
  ~SlicePool() {
    core_->alive = false;
    for (detail::SliceStorage* s : core_->free) delete s;
    core_->free.clear();
  }

  /// Pin `bytes` into a fresh slice: the one host copy of the zero-copy
  /// path.  The buffer is written in full, so no stale bytes from a
  /// previous life can bleed through.
  [[nodiscard]] PayloadSlice copy_in(std::span<const std::uint8_t> bytes) {
    return fill(bytes, {});
  }

  /// Pin a header and a payload contiguously into one slice (the
  /// scatter-gather send: substrate header + user bytes in a single pass).
  [[nodiscard]] PayloadSlice gather(std::span<const std::uint8_t> head,
                                    std::span<const std::uint8_t> body) {
    return fill(head, body);
  }

  void bind_hwm_gauge(obs::Gauge& gauge) {
    core_->hwm_gauge = &gauge;
    gauge.set(static_cast<std::int64_t>(core_->high_water));
  }

  [[nodiscard]] std::uint64_t created() const { return core_->created; }
  [[nodiscard]] std::uint64_t recycled() const { return core_->recycled; }
  [[nodiscard]] std::uint64_t outstanding() const {
    return core_->outstanding;
  }
  [[nodiscard]] std::uint64_t high_water_mark() const {
    return core_->high_water;
  }

 private:
  [[nodiscard]] PayloadSlice fill(std::span<const std::uint8_t> a,
                                  std::span<const std::uint8_t> b) {
    detail::SlicePoolCore& c = *core_;
    detail::SliceStorage* s;
    if (!c.free.empty()) {
      s = c.free.back();
      c.free.pop_back();
      ++c.recycled;
    } else {
      s = new detail::SliceStorage();
      s->core = core_;
      ++c.created;
    }
    s->bytes.clear();  // keeps capacity — the point of the pool
    s->bytes.insert(s->bytes.end(), a.begin(), a.end());
    s->bytes.insert(s->bytes.end(), b.begin(), b.end());
    s->refs = 1;
    ++c.outstanding;
    if (c.outstanding > c.high_water) {
      c.high_water = c.outstanding;
      if (c.hwm_gauge != nullptr) {
        c.hwm_gauge->set(static_cast<std::int64_t>(c.high_water));
      }
    }
    PayloadSlice out;
    out.s_ = s;
    out.len_ = static_cast<std::uint32_t>(s->bytes.size());
    return out;
  }

  std::shared_ptr<detail::SlicePoolCore> core_;
};

}  // namespace ulsocks::net
