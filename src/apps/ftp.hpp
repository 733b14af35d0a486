// ftp: file transfer over the stack-neutral sockets API (§7.3).
//
// A faithful-in-shape FTP: a line-based control connection (PORT / RETR /
// STOR / QUIT with 1xx/2xx replies) plus an active-mode data connection per
// transfer.  Files live on the hosts' RAM disks, as in the paper ("we have
// RAM disks for this experiment"); every transfer therefore pays both
// socket and filesystem costs — which is what keeps ftp below the raw
// socket peak.
//
// The server and client are written against os::Process only, so the same
// code runs over kernel TCP and over the EMP substrate — including the
// paper's §5.4 requirement that generic read()/write() dispatch correctly
// between the data *socket* and the local *file*.
#pragma once

#include <cstdint>
#include <string>

#include "oskernel/process.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace ulsocks::apps {

inline constexpr std::uint16_t kFtpControlPort = 21;

struct FtpServerOptions {
  std::uint16_t control_port = kFtpControlPort;
  /// Serve this many sessions, then stop (0 = forever).
  std::size_t max_sessions = 0;
};

/// Run an ftp server on `proc` using `stack`.  Serves sessions until
/// max_sessions (if nonzero) have completed.
[[nodiscard]] sim::Task<void> ftp_server(os::Process& proc,
                                         os::SocketApi& stack,
                                         FtpServerOptions options = {});

struct FtpTransfer {
  std::uint64_t bytes = 0;
  sim::Duration elapsed = 0;
  [[nodiscard]] double mbps() const {
    return elapsed ? static_cast<double>(bytes) * 8.0 /
                         (static_cast<double>(elapsed) / 1e9) / 1e6
                   : 0.0;
  }
};

class FtpClient {
 public:
  FtpClient(os::Process& proc, os::SocketApi& stack, std::uint16_t server_node,
            std::uint16_t data_port_base = 20'000)
      : proc_(proc),
        stack_(stack),
        server_node_(server_node),
        next_data_port_(data_port_base) {}

  /// Open the control connection (and log in, morally).
  [[nodiscard]] sim::Task<void> connect(
      std::uint16_t control_port = kFtpControlPort);

  /// RETR: fetch `remote_path` into `local_path` on this host's RAM disk.
  [[nodiscard]] sim::Task<FtpTransfer> get(std::string remote_path,
                                           std::string local_path);

  /// STOR: upload `local_path` to `remote_path` on the server's RAM disk.
  [[nodiscard]] sim::Task<FtpTransfer> put(std::string local_path,
                                           std::string remote_path);

  [[nodiscard]] sim::Task<void> quit();

 private:
  /// RETR (`retr`) into or STOR from `local_path` over a fresh
  /// active-mode data connection.
  [[nodiscard]] sim::Task<FtpTransfer> transfer(bool retr,
                                                std::string remote_path,
                                                std::string local_path);

  os::Process& proc_;
  os::SocketApi& stack_;
  std::uint16_t server_node_;
  std::uint16_t next_data_port_;
  int control_fd_ = -1;
  std::string reply_pending_;  // buffered control-channel bytes
};

}  // namespace ulsocks::apps
