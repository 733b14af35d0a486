// TCP-lite segment wire format, carried in EtherType::kIpv4 frames.
//
// The simulated kernel stack needs real sequence/ack/window semantics (the
// paper's TCP baseline numbers are produced by exactly those mechanisms),
// but not the full RFC 793 option machinery.  Sequence numbers are 64-bit
// internally to sidestep wrap handling; the simplification is harmless for
// simulation-scale transfers and documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/frame.hpp"

namespace ulsocks::tcp {

struct Flags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  friend bool operator==(const Flags&, const Flags&) = default;
};
static_assert(sizeof(Flags) == 4,
              "Flags grew: each flag packs into one bit of the single "
              "wire flags byte — extend build_header/decode_segment "
              "before adding one");

struct Segment {
  std::uint16_t src_node = 0;
  std::uint16_t dst_node = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t window = 0;  // receive window advertisement, bytes
  Flags flags;
  /// Filled by decoding.  The send path passes its payload beside the
  /// header instead (TcpStack::transmit).
  std::vector<std::uint8_t> payload;
};

inline constexpr std::size_t kSegmentHeaderBytes = 40;  // ~IP(20)+TCP(20)

// Layout pin: the encoder lays the address quad, seq/ack, window and one
// flags byte into the zero-padded nominal IP+TCP header.  A new Segment
// field must fail here until build_header/decode_segment and (if the
// nominal size grows) kSegmentHeaderBytes are revised together.
static_assert(sizeof(Segment::src_node) + sizeof(Segment::dst_node) +
                      sizeof(Segment::src_port) + sizeof(Segment::dst_port) +
                      sizeof(Segment::seq) + sizeof(Segment::ack) +
                      sizeof(Segment::window) + 1 /* flags byte */ ==
                  29,
              "Segment wire fields drifted from the 29 bytes build_header "
              "serializes into the 40-byte padded header");

/// Standard Ethernet MSS for a 1500-byte MTU.
inline constexpr std::uint32_t kMss = 1460;

/// Write the 40-byte header into `out` (resized to exactly that).  The
/// payload never goes here: it rides the frame's body slice.
void encode_segment_header_into(const Segment& s,
                                std::vector<std::uint8_t>& out);
[[nodiscard]] std::optional<Segment> decode_segment(
    std::span<const std::uint8_t> payload);
/// Decode from a wire frame, gathering the payload across the inline
/// region and the body: data segments carry it in the body, hand-built
/// test frames may carry it inline.
[[nodiscard]] std::optional<Segment> decode_segment_frame(
    const net::Frame& f);

}  // namespace ulsocks::tcp
