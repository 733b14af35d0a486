#include "tcp/segment.hpp"

#include <algorithm>

#include "net/byte_order.hpp"

namespace ulsocks::tcp {

namespace {

void build_header(const Segment& s, std::uint8_t* hdr) {
  // Zero-fill first so the pad to the nominal IP+TCP header size (honest
  // wire timing) needs no trailing loop.
  std::fill_n(hdr, kSegmentHeaderBytes, std::uint8_t{0});
  net::store_le16(hdr + 0, s.src_node);
  net::store_le16(hdr + 2, s.dst_node);
  net::store_le16(hdr + 4, s.src_port);
  net::store_le16(hdr + 6, s.dst_port);
  net::store_le64(hdr + 8, s.seq);
  net::store_le64(hdr + 16, s.ack);
  net::store_le32(hdr + 24, s.window);
  std::uint8_t flags = 0;
  if (s.flags.syn) flags |= 1;
  if (s.flags.ack) flags |= 2;
  if (s.flags.fin) flags |= 4;
  if (s.flags.rst) flags |= 8;
  hdr[28] = flags;
}

}  // namespace

void encode_segment_header_into(const Segment& s,
                                std::vector<std::uint8_t>& out) {
  // Written in place: a pooled frame's payload keeps its capacity, so this
  // allocates nothing once the frame has been used.
  out.resize(kSegmentHeaderBytes);
  build_header(s, out.data());
}

std::optional<Segment> decode_segment(std::span<const std::uint8_t> p) {
  if (p.size() < kSegmentHeaderBytes) return std::nullopt;
  const std::uint8_t* b = p.data();
  Segment s;
  s.src_node = net::load_le16(b + 0);
  s.dst_node = net::load_le16(b + 2);
  s.src_port = net::load_le16(b + 4);
  s.dst_port = net::load_le16(b + 6);
  s.seq = net::load_le64(b + 8);
  s.ack = net::load_le64(b + 16);
  s.window = net::load_le32(b + 24);
  std::uint8_t flags = p[28];
  s.flags.syn = flags & 1;
  s.flags.ack = flags & 2;
  s.flags.fin = flags & 4;
  s.flags.rst = flags & 8;
  s.payload.assign(p.begin() + kSegmentHeaderBytes, p.end());
  return s;
}

std::optional<Segment> decode_segment_frame(const net::Frame& f) {
  // The header is always in the inline region; the payload may be inline,
  // in the body, or both.
  if (f.payload.size() < kSegmentHeaderBytes) return std::nullopt;
  auto s = decode_segment(
      std::span<const std::uint8_t>(f.payload.data(), kSegmentHeaderBytes));
  if (!s) return std::nullopt;
  const std::size_t body = f.payload_bytes() - kSegmentHeaderBytes;
  s->payload.resize(body);
  if (body > 0) {
    f.copy_payload(kSegmentHeaderBytes,
                   std::span<std::uint8_t>(s->payload.data(), body));
  }
  return s;
}

}  // namespace ulsocks::tcp
