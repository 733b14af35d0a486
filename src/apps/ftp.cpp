#include "apps/ftp.hpp"

#include <charconv>
#include <vector>

#include "oskernel/socket_api.hpp"

namespace ulsocks::apps {

namespace {

using os::SockAddr;
using os::SockErr;
using os::SocketError;
using sim::Task;

/// Buffered CRLF line read for the control channel.  Reading in chunks
/// (rather than byte-at-a-time) keeps the control protocol working over
/// datagram sockets too, where each read returns one whole message.
Task<std::string> read_line_buffered(os::Process& proc, int fd,
                                     std::string& pending) {
  for (;;) {
    auto nl = pending.find('\n');
    if (nl != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      co_return line;
    }
    if (pending.size() > 512) {
      throw SocketError(SockErr::kInvalid, "ftp control line too long");
    }
    std::uint8_t chunk[256];
    std::size_t n = co_await proc.read(fd, chunk);
    if (n == 0) co_return std::string();  // peer closed mid-line
    pending.append(reinterpret_cast<const char*>(chunk), n);
  }
}

Task<void> write_line(os::Process& proc, int fd, std::string line) {
  line += "\r\n";
  co_await proc.write_all(
      fd, std::span(reinterpret_cast<const std::uint8_t*>(line.data()),
                    line.size()));
}

/// Parse "<word> <rest>" into the command word and argument.
std::pair<std::string, std::string> split_command(const std::string& line) {
  auto sp = line.find(' ');
  if (sp == std::string::npos) return {line, ""};
  return {line.substr(0, sp), line.substr(sp + 1)};
}

bool parse_port_arg(const std::string& arg, SockAddr* out) {
  auto sp = arg.find(' ');
  if (sp == std::string::npos) return false;
  int node = 0, port = 0;
  auto r1 = std::from_chars(arg.data(), arg.data() + sp, node);
  auto r2 =
      std::from_chars(arg.data() + sp + 1, arg.data() + arg.size(), port);
  if (r1.ec != std::errc{} || r2.ec != std::errc{}) return false;
  out->node = static_cast<std::uint16_t>(node);
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

/// Transfers move the file in chunks of this size, on both sides.
constexpr std::size_t kChunkBytes = 65'536;

/// Copy `from` into `to` until `from` reads end of file: a RAM-disk file
/// into a socket or a socket into a file, the paper's §5.4 scenario of
/// file and socket calls through the same generic interface.
Task<std::uint64_t> copy_fd(os::Process& proc, int from, int to) {
  std::vector<std::uint8_t> chunk(kChunkBytes);
  std::uint64_t total = 0;
  for (;;) {
    std::size_t n = co_await proc.read(from, chunk);
    if (n == 0) break;
    co_await proc.write_all(to, std::span<const std::uint8_t>(chunk).first(n));
    total += n;
  }
  co_return total;
}

Task<void> serve_session(os::Process& proc, os::SocketApi& stack, int ctrl) {
  co_await write_line(proc, ctrl, "220 ulsocks ftp ready");
  SockAddr data_addr{};
  bool have_port = false;
  std::string pending;
  for (;;) {
    std::string line = co_await read_line_buffered(proc, ctrl, pending);
    if (line.empty()) break;  // peer went away
    auto [cmd, arg] = split_command(line);
    if (cmd == "PORT") {
      if (parse_port_arg(arg, &data_addr)) {
        have_port = true;
        co_await write_line(proc, ctrl, "200 PORT command successful");
      } else {
        co_await write_line(proc, ctrl, "501 bad PORT argument");
      }
    } else if (cmd == "RETR" || cmd == "STOR") {
      if (!have_port) {
        co_await write_line(proc, ctrl, "503 use PORT first");
        continue;
      }
      bool retr = cmd == "RETR";
      if (retr && !proc.host().fs().exists(arg)) {
        co_await write_line(proc, ctrl, "550 no such file");
        continue;
      }
      co_await write_line(proc, ctrl, "150 opening data connection");
      // Active mode: the server dials the client's data port.  Bulk-
      // transfer sockets get large buffers, as era ftp daemons configured
      // (a no-op on the substrate, which has its own credit buffers).
      int data = co_await proc.socket(stack);
      co_await proc.set_option(data, os::SockOpt::kSndBuf, 131'072);
      co_await proc.set_option(data, os::SockOpt::kRcvBuf, 131'072);
      co_await proc.connect(data, data_addr);
      int file = co_await proc.open(
          arg, retr ? os::OpenMode::kRead : os::OpenMode::kWrite);
      co_await copy_fd(proc, retr ? file : data, retr ? data : file);
      co_await proc.close(file);
      co_await proc.close(data);
      co_await write_line(proc, ctrl, "226 transfer complete");
      have_port = false;
    } else if (cmd == "QUIT") {
      co_await write_line(proc, ctrl, "221 goodbye");
      break;
    } else {
      co_await write_line(proc, ctrl, "502 command not implemented");
    }
  }
  co_await proc.close(ctrl);
}

/// Expect a reply whose code starts with `prefix` (e.g. "226").
Task<void> expect_reply(os::Process& proc, int fd, std::string& pending,
                        const char* prefix) {
  std::string line = co_await read_line_buffered(proc, fd, pending);
  if (line.rfind(prefix, 0) != 0) {
    throw SocketError(SockErr::kInvalid,
                      "ftp: unexpected reply: " + line);
  }
}

}  // namespace

sim::Task<void> ftp_server(os::Process& proc, os::SocketApi& stack,
                           FtpServerOptions options) {
  int ls = co_await proc.socket(stack);
  co_await proc.bind(ls, SockAddr{0, options.control_port});
  co_await proc.listen(ls, 8);
  std::size_t sessions = 0;
  while (options.max_sessions == 0 || sessions < options.max_sessions) {
    int ctrl = co_await proc.accept(ls);
    // One session at a time: the paper's experiment is single-client.
    co_await serve_session(proc, stack, ctrl);
    ++sessions;
  }
  co_await proc.close(ls);
}

sim::Task<void> FtpClient::connect(std::uint16_t control_port) {
  control_fd_ = co_await proc_.socket(stack_);
  co_await proc_.connect(control_fd_, SockAddr{server_node_, control_port});
  co_await expect_reply(proc_, control_fd_, reply_pending_, "220");
}

sim::Task<FtpTransfer> FtpClient::get(std::string remote_path,
                                      std::string local_path) {
  return transfer(true, std::move(remote_path), std::move(local_path));
}

sim::Task<FtpTransfer> FtpClient::put(std::string local_path,
                                      std::string remote_path) {
  return transfer(false, std::move(remote_path), std::move(local_path));
}

sim::Task<FtpTransfer> FtpClient::transfer(bool retr, std::string remote_path,
                                           std::string local_path) {
  sim::Time t0 = proc_.host().engine().now();
  std::uint16_t port = next_data_port_++;
  int dls = co_await proc_.socket(stack_);
  co_await proc_.bind(dls, SockAddr{0, port});
  co_await proc_.listen(dls, 1);

  std::uint16_t self = proc_.host().id();
  co_await write_line(proc_, control_fd_,
                      "PORT " + std::to_string(self) + " " +
                          std::to_string(port));
  co_await expect_reply(proc_, control_fd_, reply_pending_, "200");
  co_await write_line(proc_, control_fd_,
                      (retr ? "RETR " : "STOR ") + remote_path);
  co_await expect_reply(proc_, control_fd_, reply_pending_, "150");

  int data = co_await proc_.accept(dls);
  co_await proc_.set_option(data, os::SockOpt::kSndBuf, 131'072);
  co_await proc_.set_option(data, os::SockOpt::kRcvBuf, 131'072);
  int file = co_await proc_.open(
      local_path, retr ? os::OpenMode::kWrite : os::OpenMode::kRead);
  std::uint64_t bytes =
      co_await copy_fd(proc_, retr ? data : file, retr ? file : data);
  co_await proc_.close(file);
  co_await proc_.close(data);
  co_await proc_.close(dls);
  co_await expect_reply(proc_, control_fd_, reply_pending_, "226");
  co_return FtpTransfer{bytes, proc_.host().engine().now() - t0};
}

sim::Task<void> FtpClient::quit() {
  co_await write_line(proc_, control_fd_, "QUIT");
  co_await expect_reply(proc_, control_fd_, reply_pending_, "221");
  co_await proc_.close(control_fd_);
  control_fd_ = -1;
}

}  // namespace ulsocks::apps
