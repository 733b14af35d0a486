// Ethernet frames and the per-host frame pool.
//
// Frames carry their real payload bytes end-to-end so that every layer above
// (EMP fragmentation/reassembly, TCP segmentation, socket copies) can be
// checked for content integrity, not just timing.
//
// Allocation model: a FramePtr is a unique_ptr with a custom deleter.  A
// frame acquired from a FramePool carries a shared handle to the pool's
// core; when the last owner drops it the deleter pushes the frame (payload
// vector and its capacity included) back onto the pool's free list instead
// of freeing it.  Steady-state traffic therefore reuses a small working set
// of frames with warm payload capacity — the NIC -> link -> switch -> NIC
// hop chain allocates nothing.
//
// Lifetime: frames routinely outlive their pool.  A bench declares
// `Engine eng; Cluster cl(eng, ...)`, so the cluster (and every NIC-owned
// pool) destructs before the engine — while queued events may still hold
// FramePtrs.  The pool core is therefore shared_ptr-owned: the pool
// destructor marks it dead and frees the free list, and stragglers see the
// dead mark and delete themselves normally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/mac.hpp"
#include "net/payload_slice.hpp"
#include "obs/metrics.hpp"

namespace ulsocks::net {

/// EtherType values used by the simulated protocols.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,   // kernel TCP/IP path
  kEmp = 0x88b5,    // EMP (local experimental ethertype, as EMP used)
};

class FramePool;
struct FrameDeleter;

namespace detail {
struct FramePoolCore;
}  // namespace detail

struct Frame {
  MacAddress dst{};
  MacAddress src{};
  EtherType type = EtherType::kEmp;
  /// Inline region: the protocol header (20-40 bytes) of a data frame, or
  /// the whole wire payload of a control frame.
  std::vector<std::uint8_t> payload;
  /// Scatter-gather extension: payload bytes following the inline region,
  /// shared by refcount with the sender's pinned buffer (and with flood
  /// copies).  Wire order is payload, then slices front-to-back.
  std::vector<PayloadSlice> slices;
  /// Monotonic id assigned at transmission; used by fault injection and
  /// traces to identify frames.
  std::uint64_t wire_id = 0;

  Frame() = default;
  Frame(MacAddress d, MacAddress s, EtherType t,
        std::vector<std::uint8_t> body)
      : dst(d), src(s), type(t), payload(std::move(body)) {}

  // Pool membership belongs to the frame's *storage*, not its value:
  // copying or moving a frame transfers the wire-visible fields only, so a
  // copy of a pooled frame is not itself pooled and a moved-from pooled
  // frame still returns to its pool.
  Frame(const Frame& o)
      : dst(o.dst), src(o.src), type(o.type), payload(o.payload),
        slices(o.slices), wire_id(o.wire_id) {}
  Frame(Frame&& o) noexcept
      : dst(o.dst), src(o.src), type(o.type),
        payload(std::move(o.payload)), slices(std::move(o.slices)),
        wire_id(o.wire_id) {}
  Frame& operator=(const Frame& o) {
    if (this != &o) {
      dst = o.dst;
      src = o.src;
      type = o.type;
      payload = o.payload;
      slices = o.slices;
      wire_id = o.wire_id;
    }
    return *this;
  }
  Frame& operator=(Frame&& o) noexcept {
    if (this != &o) {
      dst = o.dst;
      src = o.src;
      type = o.type;
      payload = std::move(o.payload);
      slices = std::move(o.slices);
      wire_id = o.wire_id;
    }
    return *this;
  }
  ~Frame() = default;

  /// Total logical payload length: inline region plus sliced extension.
  /// Every size-driven cost (serialization, DMA, firmware per-byte work)
  /// goes through this, never through `payload.size()` alone.
  [[nodiscard]] std::size_t payload_bytes() const {
    std::size_t n = payload.size();
    for (const PayloadSlice& s : slices) n += s.size();
    return n;
  }

  /// Gather the logical payload starting at `off` into `dst` (receive-side
  /// delivery: the one copy per message).  Returns bytes written.
  std::size_t copy_payload(std::size_t off, std::span<std::uint8_t> dst) const {
    std::size_t written = 0;
    auto take = [&](std::span<const std::uint8_t> part) {
      if (off >= part.size()) {
        off -= part.size();
        return;
      }
      part = part.subspan(off);
      off = 0;
      std::size_t n = std::min(part.size(), dst.size() - written);
      std::copy_n(part.data(), n, dst.data() + written);
      written += n;
    };
    take(payload);
    for (const PayloadSlice& s : slices) {
      if (written == dst.size()) break;
      take(s.span());
    }
    return written;
  }

  /// Bytes occupying the wire: preamble+SFD (8) + header (14) + payload
  /// padded to the 46-byte minimum + FCS (4) + inter-frame gap (12).
  [[nodiscard]] std::uint64_t wire_bytes() const {
    std::uint64_t body = payload_bytes();
    if (body < 46) body = 46;
    return 8 + 14 + body + 4 + 12;
  }

 private:
  friend class FramePool;
  friend struct FrameDeleter;
  /// Set once when the pool allocates the frame; never reassigned on
  /// recycle, so reuse involves no refcount traffic.
  std::shared_ptr<detail::FramePoolCore> pool_core_;
};

struct FrameDeleter {
  void operator()(Frame* f) const noexcept;
};

using FramePtr = std::unique_ptr<Frame, FrameDeleter>;

/// Heap-allocate a frame outside any pool (tests, cold setup paths).
template <class... Args>
[[nodiscard]] inline FramePtr make_frame_ptr(Args&&... args) {
  return FramePtr(new Frame(std::forward<Args>(args)...));
}

namespace detail {
struct FramePoolCore {
  std::vector<Frame*> free;
  bool alive = true;           // cleared when the owning FramePool dies
  std::uint64_t created = 0;   // frames ever heap-allocated by the pool
  std::uint64_t recycled = 0;  // acquires served from the free list
  std::uint64_t outstanding = 0;
  std::uint64_t high_water = 0;  // peak simultaneously-outstanding frames
  obs::Gauge* hwm_gauge = nullptr;  // mirrors high_water when bound
};
}  // namespace detail

/// Recycles Frame objects (and their payload capacity) for one host's NIC
/// or for the switch's flood copies.  Single-threaded, like the Engine that
/// drives it.
class FramePool {
 public:
  FramePool() : core_(std::make_shared<detail::FramePoolCore>()) {}
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    core_->alive = false;
    for (Frame* f : core_->free) delete f;
    core_->free.clear();
  }

  /// A blank frame: cleared header fields, empty payload with whatever
  /// capacity its previous life left behind.
  [[nodiscard]] FramePtr acquire() {
    detail::FramePoolCore& c = *core_;
    Frame* f;
    if (!c.free.empty()) {
      f = c.free.back();
      c.free.pop_back();
      ++c.recycled;
      f->dst = MacAddress{};
      f->src = MacAddress{};
      f->type = EtherType::kEmp;
      f->payload.clear();  // keeps capacity — the point of the pool
      f->slices.clear();   // drops slice refs from the previous life
      f->wire_id = 0;
    } else {
      f = new Frame();
      f->pool_core_ = core_;
      ++c.created;
    }
    ++c.outstanding;
    if (c.outstanding > c.high_water) {
      c.high_water = c.outstanding;
      if (c.hwm_gauge != nullptr) {
        c.hwm_gauge->set(static_cast<std::int64_t>(c.high_water));
      }
    }
    return FramePtr(f);
  }

  /// A pooled copy of `src` (switch flooding).  Only the inline region is
  /// duplicated — for a data frame that is just the protocol header; the
  /// payload slices are shared by refcount bump across pools.
  [[nodiscard]] FramePtr acquire_copy(const Frame& src) {
    FramePtr f = acquire();
    f->dst = src.dst;
    f->src = src.src;
    f->type = src.type;
    f->payload.assign(src.payload.begin(), src.payload.end());
    f->slices = src.slices;
    f->wire_id = src.wire_id;
    return f;
  }

  /// Publish the pool's high-water mark through `gauge` (updated whenever
  /// a new peak is reached).
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
  std::shared_ptr<detail::FramePoolCore> core_;
};

inline void FrameDeleter::operator()(Frame* f) const noexcept {
  const std::shared_ptr<detail::FramePoolCore>& core = f->pool_core_;
  if (core != nullptr) {
    --core->outstanding;
    if (core->alive) {
      core->free.push_back(f);
      return;
    }
  }
  delete f;
}

/// Anything that can accept a fully received frame (NIC MAC, switch port).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void frame_arrived(FramePtr frame) = 0;
};

}  // namespace ulsocks::net
