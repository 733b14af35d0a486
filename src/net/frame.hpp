// Ethernet frames and the per-host frame pool.
//
// Frames carry their real payload bytes end-to-end so that every layer above
// (EMP fragmentation/reassembly, TCP segmentation, socket copies) can be
// checked for content integrity, not just timing.
//
// A frame is an inline header plus one body slice.  The sender pins its
// payload into a slice of its NIC's SlicePool once; fragments, flood copies
// and receive descriptors then share that slice by refcount.
//
// Allocation model: a FramePtr is a unique_ptr with a custom deleter.  A
// frame acquired from a FramePool (a net::Recycler) goes back onto the
// pool's free list, payload capacity included and body slice dropped, when
// its last owner drops it, so the NIC -> link -> switch -> NIC hop chain
// allocates nothing in steady state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/mac.hpp"
#include "net/payload_slice.hpp"
#include "net/recycler.hpp"

namespace ulsocks::net {

/// EtherType values used by the simulated protocols.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,   // kernel TCP/IP path
  kEmp = 0x88b5,    // EMP (local experimental ethertype, as EMP used)
};

/// Frames move only as FramePtr: pool membership belongs to a frame's
/// storage, so a frame is never copied or moved by value.
struct Frame : Recyclable<Frame> {
  MacAddress dst{};
  MacAddress src{};
  EtherType type = EtherType::kEmp;
  /// Inline region: the protocol header (20-40 bytes).  A frame a test
  /// forges may carry its whole payload here.
  std::vector<std::uint8_t> payload;
  /// The bytes after the header: a slice of the sender's pinned buffer,
  /// shared by refcount with flood copies.  Empty for header-only frames.
  PayloadSlice body;

  Frame() = default;
  Frame(MacAddress d, MacAddress s, EtherType t,
        std::vector<std::uint8_t> bytes)
      : dst(d), src(s), type(t), payload(std::move(bytes)) {}
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// Total logical payload length: inline region plus body.  Every
  /// size-driven cost (serialization, DMA, firmware per-byte work) goes
  /// through this, never through `payload.size()` alone.
  [[nodiscard]] std::size_t payload_bytes() const {
    return payload.size() + body.size();
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
    take(body.span());
    return written;
  }

  /// Bytes occupying the wire: preamble+SFD (8) + header (14) + payload
  /// padded to the 46-byte minimum + FCS (4) + inter-frame gap (12).
  [[nodiscard]] std::uint64_t wire_bytes() const {
    std::uint64_t bytes = payload_bytes();
    if (bytes < 46) bytes = 46;
    return 8 + 14 + bytes + 4 + 12;
  }
};

/// Drops the body before the frame goes back to its pool, so an idle
/// pooled frame never holds its sender's pinned buffer outstanding.
struct FrameDeleter {
  void operator()(Frame* f) const noexcept {
    f->body = PayloadSlice{};
    Recycler<Frame>::give_back(f);
  }
};

using FramePtr = std::unique_ptr<Frame, FrameDeleter>;

/// Heap-allocate a frame outside any pool (tests, cold setup paths).
template <class... Args>
[[nodiscard]] inline FramePtr make_frame_ptr(Args&&... args) {
  return FramePtr(new Frame(std::forward<Args>(args)...));
}

/// Recycles Frame objects (and their payload capacity) for one host's NIC
/// or for the switch's flood copies.
class FramePool : public Recycler<Frame> {
 public:
  /// A blank frame: cleared header fields, empty payload with whatever
  /// capacity its previous life left behind, and no body (FrameDeleter
  /// dropped it).
  [[nodiscard]] FramePtr acquire() {
    Frame* f = take();
    f->dst = MacAddress{};
    f->src = MacAddress{};
    f->type = EtherType::kEmp;
    f->payload.clear();  // keeps capacity — the point of the pool
    return FramePtr(f);
  }

  /// A pooled copy of `src` (switch flooding).  Only the inline header is
  /// duplicated; the body is shared by refcount bump across pools.
  [[nodiscard]] FramePtr acquire_copy(const Frame& src) {
    FramePtr f = acquire();
    f->dst = src.dst;
    f->src = src.src;
    f->type = src.type;
    f->payload.assign(src.payload.begin(), src.payload.end());
    f->body = src.body;
    return f;
  }
};

/// Anything that can accept a fully received frame (NIC MAC, switch port).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void frame_arrived(FramePtr frame) = 0;
};

}  // namespace ulsocks::net
