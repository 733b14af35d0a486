// Little-endian loads and stores: the one byte order of every wire format
// in the repository (EMP frame headers, TCP-lite segment headers, the
// substrate's control messages and the applications' request headers).
// Each field is written byte by byte, so the bytes on the wire do not
// depend on the host's own byte order.
#pragma once

#include <cstdint>

namespace ulsocks::net {

constexpr void store_le16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

constexpr void store_le32(std::uint8_t* p, std::uint32_t v) {
  store_le16(p, static_cast<std::uint16_t>(v));
  store_le16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

constexpr void store_le64(std::uint8_t* p, std::uint64_t v) {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

[[nodiscard]] constexpr std::uint16_t load_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(load_le16(p)) |
         (static_cast<std::uint32_t>(load_le16(p + 2)) << 16);
}

[[nodiscard]] constexpr std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

}  // namespace ulsocks::net
