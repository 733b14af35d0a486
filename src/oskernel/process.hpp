// Process: a per-application file-descriptor table dispatching generic
// read()/write()/close() calls to files or sockets.
//
// This is the simulation analogue of the paper's §5.4 "file descriptor
// tracking": their substrate preloads interceptors for open(), socket(),
// read(), write() and close() and routes each call to libc or to the EMP
// substrate by the descriptor's kind.  Here the same dispatch happens in
// Process, and applications hold only Process fds — they cannot tell which
// stack (kernel TCP or sockets-over-EMP) carries their traffic.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "oskernel/fs.hpp"
#include "oskernel/host.hpp"
#include "oskernel/socket_api.hpp"
#include "sim/task.hpp"

namespace ulsocks::os {

class Process {
 public:
  explicit Process(Host& host) : host_(host) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] Host& host() noexcept { return host_; }

  // ---- files ----
  [[nodiscard]] sim::Task<int> open(std::string path, OpenMode mode);

  // ---- sockets ----
  /// Create a socket on `stack` and install it in the fd table.  Which
  /// stack a program is handed is the *only* difference between its TCP
  /// and EMP runs.
  [[nodiscard]] sim::Task<int> socket(SocketApi& stack);
  [[nodiscard]] sim::Task<void> bind(int fd, SockAddr local);
  [[nodiscard]] sim::Task<void> listen(int fd, int backlog);
  [[nodiscard]] sim::Task<int> accept(int fd, SockAddr* peer = nullptr);
  [[nodiscard]] sim::Task<void> connect(int fd, SockAddr remote);
  [[nodiscard]] sim::Task<void> set_option(int fd, SockOpt opt, int value);

  // ---- generic calls (the overloaded name-space of §4.3) ----
  [[nodiscard]] sim::Task<std::size_t> read(int fd,
                                            std::span<std::uint8_t> out);
  [[nodiscard]] sim::Task<std::size_t> write(
      int fd, std::span<const std::uint8_t> in);
  [[nodiscard]] sim::Task<void> close(int fd);

  [[nodiscard]] sim::Task<void> write_all(int fd,
                                          std::span<const std::uint8_t> in);
  [[nodiscard]] sim::Task<void> read_exact(int fd,
                                           std::span<std::uint8_t> out);

  /// Block until at least one of `fds` is readable; returns the readable
  /// subset.  Regular files are always readable (POSIX).  An empty set
  /// could never become ready: it throws SocketError(kInvalid).
  [[nodiscard]] sim::Task<std::vector<int>> select(std::vector<int> fds);

  [[nodiscard]] std::size_t open_fd_count() const { return fds_.size(); }

 private:
  struct FdEntry {
    enum class Kind { kFile, kSocket } kind = Kind::kFile;
    // socket
    SocketApi* api = nullptr;
    int sd = -1;
    // file
    OpenFile file;
  };

  FdEntry& entry(int fd);
  int install(FdEntry e);

  Host& host_;
  int next_fd_ = 3;  // 0..2 are the traditional stdio fds
  std::map<int, FdEntry> fds_;
};

}  // namespace ulsocks::os
