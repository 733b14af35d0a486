#include "sockets/control.hpp"

namespace ulsocks::sockets {

namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v));
  put16(out, static_cast<std::uint16_t>(v >> 16));
}

std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(
      in[at] | (static_cast<std::uint16_t>(in[at + 1]) << 8));
}

std::uint32_t get32(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint32_t>(get16(in, at)) |
         (static_cast<std::uint32_t>(get16(in, at + 2)) << 16);
}

}  // namespace

std::vector<std::uint8_t> encode_ctrl(const CtrlMsg& m) {
  std::vector<std::uint8_t> out;
  out.reserve(kCtrlBytes);
  put16(out, static_cast<std::uint16_t>(m.type));
  put16(out, 0);
  put32(out, m.a);
  put32(out, m.b);
  put32(out, m.c);
  return out;
}

std::optional<CtrlMsg> decode_ctrl(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kCtrlBytes) return std::nullopt;
  CtrlMsg m;
  auto t = get16(bytes, 0);
  if (t < 1 || t > 4) return std::nullopt;
  m.type = static_cast<CtrlType>(t);
  m.a = get32(bytes, 4);
  m.b = get32(bytes, 8);
  m.c = get32(bytes, 12);
  return m;
}

std::vector<std::uint8_t> encode_conn_request(const ConnRequest& r) {
  std::vector<std::uint8_t> out;
  out.reserve(kConnRequestBytes);
  put16(out, r.client_node);
  put16(out, r.client_port);
  put16(out, r.data_tag);
  put16(out, r.ctrl_tag);
  put16(out, r.rend_tag);
  put16(out, r.srv_data_tag);
  put16(out, r.srv_ctrl_tag);
  put16(out, r.srv_rend_tag);
  put32(out, r.credits);
  put32(out, r.buffer_bytes);
  return out;
}

std::optional<ConnRequest> decode_conn_request(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kConnRequestBytes) return std::nullopt;
  ConnRequest r;
  r.client_node = get16(bytes, 0);
  r.client_port = get16(bytes, 2);
  r.data_tag = get16(bytes, 4);
  r.ctrl_tag = get16(bytes, 6);
  r.rend_tag = get16(bytes, 8);
  r.srv_data_tag = get16(bytes, 10);
  r.srv_ctrl_tag = get16(bytes, 12);
  r.srv_rend_tag = get16(bytes, 14);
  r.credits = get32(bytes, 16);
  r.buffer_bytes = get32(bytes, 20);
  return r;
}

}  // namespace ulsocks::sockets
