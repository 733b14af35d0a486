#include "tcp/segment.hpp"

#include <algorithm>

namespace ulsocks::tcp {

namespace {

void store16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void store32(std::uint8_t* p, std::uint32_t v) {
  store16(p, static_cast<std::uint16_t>(v));
  store16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

void store64(std::uint8_t* p, std::uint64_t v) {
  store32(p, static_cast<std::uint32_t>(v));
  store32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(
      in[at] | (static_cast<std::uint16_t>(in[at + 1]) << 8));
}

std::uint32_t get32(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint32_t>(get16(in, at)) |
         (static_cast<std::uint32_t>(get16(in, at + 2)) << 16);
}

std::uint64_t get64(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint64_t>(get32(in, at)) |
         (static_cast<std::uint64_t>(get32(in, at + 4)) << 32);
}

void build_header(const Segment& s, std::uint8_t* hdr) {
  // Zero-fill first so the pad to the nominal IP+TCP header size (honest
  // wire timing) needs no trailing loop.
  std::fill_n(hdr, kSegmentHeaderBytes, std::uint8_t{0});
  store16(hdr + 0, s.src_node);
  store16(hdr + 2, s.dst_node);
  store16(hdr + 4, s.src_port);
  store16(hdr + 6, s.dst_port);
  store64(hdr + 8, s.seq);
  store64(hdr + 16, s.ack);
  store32(hdr + 24, s.window);
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
  Segment s;
  s.src_node = get16(p, 0);
  s.dst_node = get16(p, 2);
  s.src_port = get16(p, 4);
  s.dst_port = get16(p, 6);
  s.seq = get64(p, 8);
  s.ack = get64(p, 16);
  s.window = get32(p, 24);
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
