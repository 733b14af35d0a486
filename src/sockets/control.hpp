// Substrate control-channel and connection-management wire formats.
//
// Connection management uses the paper's "data message exchange" (§5.1):
// an explicit request message carrying the client's identity and channel
// parameters.  All other control traffic (credit acks, close notification,
// rendezvous request/grant) flows over a per-connection control tag.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "net/byte_order.hpp"

namespace ulsocks::sockets {

enum class CtrlType : std::uint16_t {
  kCreditAck = 1,   // a: credit count being returned
  kClose = 2,       // connection teardown notification
  kRendReq = 3,     // a: payload bytes, b: request id
  kRendGrant = 4,   // b: request id (descriptor now posted)
};

struct CtrlMsg {
  CtrlType type = CtrlType::kCreditAck;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

inline constexpr std::size_t kCtrlBytes = 16;

// Layout pin: the type, a reserved half-word (the struct's padding) and
// three words.  Growing CtrlMsg must fail here until kCtrlBytes,
// encode_ctrl and decode_ctrl are revised together.
static_assert(sizeof(CtrlMsg) == kCtrlBytes,
              "CtrlMsg layout drifted: revise kCtrlBytes, encode_ctrl and "
              "decode_ctrl together");

struct ConnRequest {
  std::uint16_t client_node = 0;
  std::uint16_t client_port = 0;
  // The initiator allocates BOTH channels.  EMP tag matching is on
  // (source index, tag), so tags only need to be unique per source; the
  // client draws the server-side tags from a disjoint range of its own
  // space.  This is what lets connect() complete on the EMP-level ack of
  // the request, without waiting for an application-level reply — the
  // paper's "connection time of a message exchange".
  std::uint16_t data_tag = 0;  // client receives data on this tag
  std::uint16_t ctrl_tag = 0;  // ... control messages on this one
  std::uint16_t rend_tag = 0;  // ... rendezvous payloads on this one
  std::uint16_t srv_data_tag = 0;  // server receives data on this tag
  std::uint16_t srv_ctrl_tag = 0;
  std::uint16_t srv_rend_tag = 0;
  std::uint32_t credits = 0;   // descriptors each side pre-posts
  std::uint32_t buffer_bytes = 0;
  friend bool operator==(const ConnRequest&, const ConnRequest&) = default;
};

inline constexpr std::size_t kConnRequestBytes = 24;

// Layout pin: eight half-words and two words, no padding.
static_assert(sizeof(ConnRequest) == kConnRequestBytes,
              "ConnRequest layout drifted: revise kConnRequestBytes, "
              "encode_conn_request and decode_conn_request together");

[[nodiscard]] std::array<std::uint8_t, kCtrlBytes> encode_ctrl(
    const CtrlMsg& m);
[[nodiscard]] std::optional<CtrlMsg> decode_ctrl(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::array<std::uint8_t, kConnRequestBytes> encode_conn_request(
    const ConnRequest& r);
[[nodiscard]] std::optional<ConnRequest> decode_conn_request(
    std::span<const std::uint8_t> bytes);

/// Eager data messages carry a 4-byte header: piggybacked credit return
/// (§6.1) plus the message's stream number mod 2^16, which lets the reader
/// consume messages in the order they were written even when a lost first
/// frame made them bind descriptors out of order.
struct DataHeader {
  std::uint16_t piggyback_credits = 0;
  std::uint16_t msg_no = 0;
};
inline constexpr std::size_t kDataHeaderBytes = 4;
static_assert(sizeof(DataHeader) == kDataHeaderBytes,
              "DataHeader layout drifted: revise kDataHeaderBytes, "
              "encode_data_header and decode_data_header together");

inline void encode_data_header(const DataHeader& h, std::uint8_t* out) {
  net::store_le16(out, h.piggyback_credits);
  net::store_le16(out + 2, h.msg_no);
}

[[nodiscard]] inline DataHeader decode_data_header(const std::uint8_t* in) {
  return DataHeader{.piggyback_credits = net::load_le16(in),
                    .msg_no = net::load_le16(in + 2)};
}

}  // namespace ulsocks::sockets
