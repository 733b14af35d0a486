#include "emp/wire.hpp"

#include <cstring>

namespace ulsocks::emp {

namespace {

void store16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void store32(std::uint8_t* p, std::uint32_t v) {
  store16(p, static_cast<std::uint16_t>(v));
  store16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] |
                                    (static_cast<std::uint16_t>(in[at + 1])
                                     << 8));
}

std::uint32_t get32(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint32_t>(get16(in, at)) |
         (static_cast<std::uint32_t>(get16(in, at + 2)) << 16);
}

void build_header(const EmpHeader& h, std::uint8_t* hdr) {
  hdr[0] = static_cast<std::uint8_t>(h.kind);
  hdr[1] = 0;  // reserved / alignment
  store16(hdr + 2, h.src_node);
  store16(hdr + 4, h.dst_node);
  store16(hdr + 6, h.tag);
  store32(hdr + 8, h.msg_id);
  store16(hdr + 12, h.frame_index);
  store16(hdr + 14, h.total_frames);
  // The final word is msg_bytes for data frames and ack_value for control
  // frames (control frames carry no payload, data frames carry no ack).
  store32(hdr + 16, h.kind == FrameKind::kData ? h.msg_bytes : h.ack_value);
}

}  // namespace

void encode_header_into(const EmpHeader& h, std::vector<std::uint8_t>& out) {
  // Written in place: a pooled frame's payload keeps its capacity, so this
  // allocates nothing once the frame has been used.
  out.resize(kHeaderBytes);
  build_header(h, out.data());
}

std::optional<EmpHeader> decode_header(std::span<const std::uint8_t> p) {
  if (p.size() < kHeaderBytes) return std::nullopt;
  EmpHeader h;
  auto kind = p[0];
  if (kind < 1 || kind > 3) return std::nullopt;
  h.kind = static_cast<FrameKind>(kind);
  h.src_node = get16(p, 2);
  h.dst_node = get16(p, 4);
  h.tag = get16(p, 6);
  h.msg_id = get32(p, 8);
  h.frame_index = get16(p, 12);
  h.total_frames = get16(p, 14);
  h.msg_bytes = get32(p, 16);
  // ack_value occupies bytes 16..19 only for control frames; data frames
  // use those bytes for msg_bytes.  Control frames carry no msg_bytes.
  if (h.kind != FrameKind::kData) {
    h.ack_value = h.msg_bytes;
    h.msg_bytes = 0;
  }
  if (h.kind == FrameKind::kData && h.total_frames == 0) return std::nullopt;
  return h;
}

}  // namespace ulsocks::emp
