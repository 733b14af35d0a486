#include "emp/wire.hpp"

#include "net/byte_order.hpp"

namespace ulsocks::emp {

namespace {

void build_header(const EmpHeader& h, std::uint8_t* hdr) {
  hdr[0] = static_cast<std::uint8_t>(h.kind);
  hdr[1] = 0;  // reserved / alignment
  net::store_le16(hdr + 2, h.src_node);
  net::store_le16(hdr + 4, h.dst_node);
  net::store_le16(hdr + 6, h.tag);
  net::store_le32(hdr + 8, h.msg_id);
  net::store_le16(hdr + 12, h.frame_index);
  net::store_le16(hdr + 14, h.total_frames);
  // The final word is msg_bytes for data frames and ack_value for control
  // frames (control frames carry no payload, data frames carry no ack).
  net::store_le32(hdr + 16,
                  h.kind == FrameKind::kData ? h.msg_bytes : h.ack_value);
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
  const std::uint8_t* b = p.data();
  EmpHeader h;
  auto kind = p[0];
  if (kind < 1 || kind > 3) return std::nullopt;
  h.kind = static_cast<FrameKind>(kind);
  h.src_node = net::load_le16(b + 2);
  h.dst_node = net::load_le16(b + 4);
  h.tag = net::load_le16(b + 6);
  h.msg_id = net::load_le32(b + 8);
  h.frame_index = net::load_le16(b + 12);
  h.total_frames = net::load_le16(b + 14);
  h.msg_bytes = net::load_le32(b + 16);
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
