// EMP frame wire format.
//
// Every EMP frame starts with a fixed 20-byte header followed by the data
// fragment (ACK/NACK frames are header-only).  Fields are encoded
// little-endian.  The receiving NIC classifies frames by `kind`, exactly as
// the paper describes ("classified as a data, header, acknowledgment or a
// negative acknowledgment frame" — the first frame of a message, which
// carries the message length, plays the "header" role).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ulsocks::emp {

/// Small integer node index, as EMP uses ("source index of the sender").
using NodeId = std::uint16_t;
/// Arbitrary user-provided 16-bit tag used for NIC tag matching.
using Tag = std::uint16_t;

enum class FrameKind : std::uint8_t {
  kData = 1,
  kAck = 2,
  kNack = 3,
};

struct EmpHeader {
  FrameKind kind = FrameKind::kData;
  NodeId src_node = 0;
  NodeId dst_node = 0;
  Tag tag = 0;
  std::uint32_t msg_id = 0;        // sender-local message sequence number
  std::uint16_t frame_index = 0;   // 0-based fragment index
  std::uint16_t total_frames = 0;  // fragments in the message
  std::uint32_t msg_bytes = 0;     // total message payload size
  /// ACK: cumulative count of frames received.  NACK: index of the first
  /// missing frame.
  std::uint32_t ack_value = 0;

  friend bool operator==(const EmpHeader&, const EmpHeader&) = default;
};

inline constexpr std::size_t kHeaderBytes = 20;

// Layout pin: the encoder serializes kind (1 byte + 1 reserved), the five
// 16/32-bit id fields, and one final word shared by msg_bytes (data) and
// ack_value (control) — exactly kHeaderBytes on the wire.  Growing
// EmpHeader must fail here until kHeaderBytes, encode_header_into and
// decode_header are consciously revised together.
static_assert(sizeof(EmpHeader::kind) + 1 /* reserved */ +
                      sizeof(EmpHeader::src_node) +
                      sizeof(EmpHeader::dst_node) + sizeof(EmpHeader::tag) +
                      sizeof(EmpHeader::msg_id) +
                      sizeof(EmpHeader::frame_index) +
                      sizeof(EmpHeader::total_frames) +
                      sizeof(EmpHeader::msg_bytes) ==
                  kHeaderBytes,
              "EmpHeader layout drifted: revise kHeaderBytes, "
              "encode_header_into and decode_header together");
static_assert(sizeof(EmpHeader::ack_value) == sizeof(EmpHeader::msg_bytes),
              "ack_value shares the final EmpHeader wire word with "
              "msg_bytes; the two must stay the same width");

/// Largest data fragment per Ethernet frame (MTU minus EMP header).
[[nodiscard]] constexpr std::uint32_t max_fragment_bytes(std::uint32_t mtu) {
  return mtu - static_cast<std::uint32_t>(kHeaderBytes);
}

/// Number of frames needed for a message of `bytes` (at least one, so that
/// zero-byte messages still exist on the wire).
[[nodiscard]] constexpr std::uint16_t frames_for(std::uint32_t bytes,
                                                 std::uint32_t mtu) {
  std::uint32_t frag = max_fragment_bytes(mtu);
  std::uint32_t n = (bytes + frag - 1) / frag;
  return static_cast<std::uint16_t>(n == 0 ? 1 : n);
}

/// Write the 20 header bytes into `out` (resized to exactly that).  A data
/// frame's fragment rides the frame's body slice; control frames are
/// header-only.
void encode_header_into(const EmpHeader& h, std::vector<std::uint8_t>& out);

/// Parse the header at the front of a frame payload.  Returns nullopt for
/// malformed payloads: shorter than the header, an unknown kind, or a data
/// frame claiming zero frames.  Bytes after the header are not read: the
/// receiving endpoint sizes the fragment with Frame::payload_bytes() and
/// checks it against the message it belongs to.
[[nodiscard]] std::optional<EmpHeader> decode_header(
    std::span<const std::uint8_t> payload);

}  // namespace ulsocks::emp
