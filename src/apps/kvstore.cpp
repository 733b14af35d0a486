#include "apps/kvstore.hpp"

#include <cstring>

#include "net/byte_order.hpp"
#include "oskernel/socket_api.hpp"

namespace ulsocks::apps {

namespace {

using os::SockAddr;
using sim::Task;

constexpr std::size_t kReqHeader = 7;
constexpr std::size_t kRespHeader = 5;

Task<void> serve_connection(os::Process& proc, int fd,
                            std::unordered_map<std::string,
                                               std::vector<std::uint8_t>>& db,
                            const KvServerOptions& options) {
  std::vector<std::uint8_t> header(kReqHeader);
  std::vector<std::uint8_t> key_buf;
  std::vector<std::uint8_t> val_buf;
  std::vector<std::uint8_t> response;
  for (;;) {
    try {
      co_await proc.read_exact(fd, header);
    } catch (const os::SocketError&) {
      break;  // orderly end of the connection
    }
    auto op = static_cast<KvOp>(header[0]);
    std::uint16_t keylen = net::load_le16(header.data() + 1);
    std::uint32_t vallen = net::load_le32(header.data() + 3);
    key_buf.resize(keylen);
    if (keylen > 0) co_await proc.read_exact(fd, key_buf);
    val_buf.resize(vallen);
    if (vallen > 0) co_await proc.read_exact(fd, val_buf);
    std::string key(key_buf.begin(), key_buf.end());

    // Server-side work: hashing + slab bookkeeping.
    co_await proc.host().compute(options.op_cost_ns);

    KvStatus status = KvStatus::kOk;
    const std::vector<std::uint8_t>* reply_val = nullptr;
    switch (op) {
      case KvOp::kSet:
        db[key] = std::move(val_buf);
        val_buf = {};
        break;
      case KvOp::kGet: {
        auto it = db.find(key);
        if (it == db.end()) {
          status = KvStatus::kNotFound;
        } else {
          reply_val = &it->second;
        }
        break;
      }
      case KvOp::kDel:
        status = db.erase(key) ? KvStatus::kOk : KvStatus::kNotFound;
        break;
      default:
        status = KvStatus::kError;
    }

    std::uint32_t out_len =
        reply_val ? static_cast<std::uint32_t>(reply_val->size()) : 0;
    response.resize(kRespHeader + out_len);
    response[0] = static_cast<std::uint8_t>(status);
    net::store_le32(response.data() + 1, out_len);
    if (reply_val != nullptr) {
      std::memcpy(response.data() + kRespHeader, reply_val->data(), out_len);
    }
    co_await proc.write_all(fd, response);
  }
  co_await proc.close(fd);
}

}  // namespace

sim::Task<void> kv_server(os::Process& proc, os::SocketApi& stack,
                          KvServerOptions options) {
  std::unordered_map<std::string, std::vector<std::uint8_t>> db;
  int ls = co_await proc.socket(stack);
  co_await proc.bind(ls, SockAddr{0, options.port});
  co_await proc.listen(ls, 8);
  std::size_t served = 0;
  while (options.max_connections == 0 || served < options.max_connections) {
    int fd = co_await proc.accept(ls);
    co_await serve_connection(proc, fd, db, options);
    ++served;
  }
  co_await proc.close(ls);
}

sim::Task<void> KvClient::connect() {
  fd_ = co_await proc_.socket(stack_);
  co_await proc_.connect(fd_, SockAddr{server_, port_});
}

sim::Task<void> KvClient::send_request(KvOp op, const std::string& key,
                                       std::span<const std::uint8_t> value) {
  std::vector<std::uint8_t> msg(kReqHeader + key.size() + value.size());
  msg[0] = static_cast<std::uint8_t>(op);
  net::store_le16(msg.data() + 1, static_cast<std::uint16_t>(key.size()));
  net::store_le32(msg.data() + 3, static_cast<std::uint32_t>(value.size()));
  std::memcpy(msg.data() + kReqHeader, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(msg.data() + kReqHeader + key.size(), value.data(),
                value.size());
  }
  co_await proc_.write_all(fd_, msg);
}

sim::Task<std::pair<KvStatus, std::vector<std::uint8_t>>>
KvClient::read_response() {
  std::vector<std::uint8_t> header(kRespHeader);
  co_await proc_.read_exact(fd_, header);
  auto status = static_cast<KvStatus>(header[0]);
  std::uint32_t len = net::load_le32(header.data() + 1);
  std::vector<std::uint8_t> value(len);
  if (len > 0) co_await proc_.read_exact(fd_, value);
  co_return std::make_pair(status, std::move(value));
}

sim::Task<KvStatus> KvClient::set(const std::string& key,
                                  std::span<const std::uint8_t> value) {
  co_await send_request(KvOp::kSet, key, value);
  auto [status, v] = co_await read_response();
  (void)v;
  co_return status;
}

sim::Task<std::optional<std::vector<std::uint8_t>>> KvClient::get(
    const std::string& key) {
  co_await send_request(KvOp::kGet, key, {});
  auto [status, v] = co_await read_response();
  if (status != KvStatus::kOk) co_return std::nullopt;
  co_return std::optional<std::vector<std::uint8_t>>(std::move(v));
}

sim::Task<KvStatus> KvClient::del(const std::string& key) {
  co_await send_request(KvOp::kDel, key, {});
  auto [status, v] = co_await read_response();
  (void)v;
  co_return status;
}

sim::Task<void> KvClient::close() {
  co_await proc_.close(fd_);
  fd_ = -1;
}

}  // namespace ulsocks::apps
