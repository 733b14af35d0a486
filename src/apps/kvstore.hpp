// Key-value store: the paper's future-work direction (§8, "utilizing and
// evaluating the proposed substrate for a range of commercial applications
// in the Data center environment") built as a memcached-style service over
// the stack-neutral sockets API.
//
// Wire protocol (binary, little-endian):
//   request:  op(1) keylen(2) vallen(4) key[keylen] value[vallen]
//   response: status(1) vallen(4) value[vallen]
// One connection carries many pipelined requests (persistent-connection
// style); the server answers in order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "oskernel/process.hpp"
#include "sim/task.hpp"

namespace ulsocks::apps {

inline constexpr std::uint16_t kKvPort = 11'211;

enum class KvOp : std::uint8_t { kGet = 1, kSet = 2, kDel = 3 };
enum class KvStatus : std::uint8_t { kOk = 0, kNotFound = 1, kError = 2 };

struct KvServerOptions {
  std::uint16_t port = kKvPort;
  /// Serve this many connections, then stop (0 = forever).
  std::size_t max_connections = 0;
  /// Per-operation server compute (hashing, slab bookkeeping).
  sim::Duration op_cost_ns = 2'000;
};

/// Iterative key-value server.  Returns when max_connections have been
/// served.
[[nodiscard]] sim::Task<void> kv_server(os::Process& proc,
                                        os::SocketApi& stack,
                                        KvServerOptions options = {});

class KvClient {
 public:
  KvClient(os::Process& proc, os::SocketApi& stack, std::uint16_t server_node,
           std::uint16_t port = kKvPort)
      : proc_(proc), stack_(stack), server_(server_node), port_(port) {}

  [[nodiscard]] sim::Task<void> connect();

  [[nodiscard]] sim::Task<KvStatus> set(const std::string& key,
                                        std::span<const std::uint8_t> value);

  /// Returns the value, or nullopt when the key is absent.
  [[nodiscard]] sim::Task<std::optional<std::vector<std::uint8_t>>> get(
      const std::string& key);

  [[nodiscard]] sim::Task<KvStatus> del(const std::string& key);

  [[nodiscard]] sim::Task<void> close();

 private:
  [[nodiscard]] sim::Task<void> send_request(
      KvOp op, const std::string& key, std::span<const std::uint8_t> value);
  [[nodiscard]] sim::Task<std::pair<KvStatus, std::vector<std::uint8_t>>>
  read_response();

  os::Process& proc_;
  os::SocketApi& stack_;
  std::uint16_t server_;
  std::uint16_t port_;
  int fd_ = -1;
};

}  // namespace ulsocks::apps
