#include "sockets/control.hpp"

namespace ulsocks::sockets {

std::array<std::uint8_t, kCtrlBytes> encode_ctrl(const CtrlMsg& m) {
  std::array<std::uint8_t, kCtrlBytes> out{};  // bytes 2..3 stay reserved
  net::store_le16(out.data(), static_cast<std::uint16_t>(m.type));
  net::store_le32(out.data() + 4, m.a);
  net::store_le32(out.data() + 8, m.b);
  net::store_le32(out.data() + 12, m.c);
  return out;
}

std::optional<CtrlMsg> decode_ctrl(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kCtrlBytes) return std::nullopt;
  const std::uint8_t* b = bytes.data();
  CtrlMsg m;
  auto t = net::load_le16(b);
  if (t < 1 || t > 4) return std::nullopt;
  m.type = static_cast<CtrlType>(t);
  m.a = net::load_le32(b + 4);
  m.b = net::load_le32(b + 8);
  m.c = net::load_le32(b + 12);
  return m;
}

std::array<std::uint8_t, kConnRequestBytes> encode_conn_request(
    const ConnRequest& r) {
  std::array<std::uint8_t, kConnRequestBytes> out{};
  std::uint8_t* b = out.data();
  net::store_le16(b, r.client_node);
  net::store_le16(b + 2, r.client_port);
  net::store_le16(b + 4, r.data_tag);
  net::store_le16(b + 6, r.ctrl_tag);
  net::store_le16(b + 8, r.rend_tag);
  net::store_le16(b + 10, r.srv_data_tag);
  net::store_le16(b + 12, r.srv_ctrl_tag);
  net::store_le16(b + 14, r.srv_rend_tag);
  net::store_le32(b + 16, r.credits);
  net::store_le32(b + 20, r.buffer_bytes);
  return out;
}

std::optional<ConnRequest> decode_conn_request(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kConnRequestBytes) return std::nullopt;
  const std::uint8_t* b = bytes.data();
  ConnRequest r;
  r.client_node = net::load_le16(b);
  r.client_port = net::load_le16(b + 2);
  r.data_tag = net::load_le16(b + 4);
  r.ctrl_tag = net::load_le16(b + 6);
  r.rend_tag = net::load_le16(b + 8);
  r.srv_data_tag = net::load_le16(b + 10);
  r.srv_ctrl_tag = net::load_le16(b + 12);
  r.srv_rend_tag = net::load_le16(b + 14);
  r.credits = net::load_le32(b + 16);
  r.buffer_bytes = net::load_le32(b + 20);
  return r;
}

}  // namespace ulsocks::sockets
