#include "oskernel/process.hpp"

#include <algorithm>

namespace ulsocks::os {

Process::FdEntry& Process::entry(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    throw SocketError(SockErr::kInvalid, "bad file descriptor");
  }
  return it->second;
}

int Process::install(FdEntry e) {
  int fd = next_fd_++;
  fds_[fd] = std::move(e);
  return fd;
}

sim::Task<int> Process::open(std::string path, OpenMode mode) {
  OpenFile f = co_await host_.fs().open(std::move(path), mode);
  FdEntry e;
  e.kind = FdEntry::Kind::kFile;
  e.file = std::move(f);
  co_return install(std::move(e));
}

sim::Task<int> Process::socket(SocketApi& stack) {
  int sd = co_await stack.socket();
  FdEntry e;
  e.kind = FdEntry::Kind::kSocket;
  e.api = &stack;
  e.sd = sd;
  co_return install(std::move(e));
}

sim::Task<void> Process::bind(int fd, SockAddr local) {
  auto& e = entry(fd);
  if (e.kind != FdEntry::Kind::kSocket) {
    throw SocketError(SockErr::kInvalid, "bind on non-socket");
  }
  co_await e.api->bind(e.sd, local);
}

sim::Task<void> Process::listen(int fd, int backlog) {
  auto& e = entry(fd);
  if (e.kind != FdEntry::Kind::kSocket) {
    throw SocketError(SockErr::kInvalid, "listen on non-socket");
  }
  co_await e.api->listen(e.sd, backlog);
}

sim::Task<int> Process::accept(int fd, SockAddr* peer) {
  auto& e = entry(fd);
  if (e.kind != FdEntry::Kind::kSocket) {
    throw SocketError(SockErr::kInvalid, "accept on non-socket");
  }
  SocketApi* api = e.api;
  int sd = co_await api->accept(e.sd, peer);
  FdEntry child;
  child.kind = FdEntry::Kind::kSocket;
  child.api = api;
  child.sd = sd;
  co_return install(std::move(child));
}

sim::Task<void> Process::connect(int fd, SockAddr remote) {
  auto& e = entry(fd);
  if (e.kind != FdEntry::Kind::kSocket) {
    throw SocketError(SockErr::kInvalid, "connect on non-socket");
  }
  co_await e.api->connect(e.sd, remote);
}

sim::Task<void> Process::set_option(int fd, SockOpt opt, int value) {
  auto& e = entry(fd);
  if (e.kind != FdEntry::Kind::kSocket) {
    throw SocketError(SockErr::kInvalid, "setsockopt on non-socket");
  }
  co_await e.api->set_option(e.sd, opt, value);
}

sim::Task<std::size_t> Process::read(int fd, std::span<std::uint8_t> out) {
  auto& e = entry(fd);
  if (e.kind == FdEntry::Kind::kFile) {
    co_return co_await host_.fs().read(e.file, out);
  }
  co_return co_await e.api->read(e.sd, out);
}

sim::Task<std::size_t> Process::write(int fd,
                                      std::span<const std::uint8_t> in) {
  auto& e = entry(fd);
  if (e.kind == FdEntry::Kind::kFile) {
    co_await host_.fs().write(e.file, in);
    co_return in.size();
  }
  co_return co_await e.api->write(e.sd, in);
}

sim::Task<void> Process::close(int fd) {
  auto& e = entry(fd);
  if (e.kind == FdEntry::Kind::kFile) {
    co_await host_.fs().close(e.file);
  } else {
    co_await e.api->close(e.sd);
  }
  fds_.erase(fd);
}

sim::Task<void> Process::write_all(int fd, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    done += co_await write(fd, in.subspan(done));
  }
}

sim::Task<void> Process::read_exact(int fd, std::span<std::uint8_t> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    std::size_t n = co_await read(fd, out.subspan(done));
    if (n == 0) {
      throw SocketError(SockErr::kClosed, "peer closed during read_exact");
    }
    done += n;
  }
}

sim::Task<std::vector<int>> Process::select(std::vector<int> fds) {
  if (fds.empty()) {
    throw SocketError(SockErr::kInvalid, "select on an empty fd set");
  }
  co_await host_.syscall();
  for (;;) {
    std::vector<int> ready;
    SocketApi* single_stack = nullptr;
    bool multiple_stacks = false;
    for (int fd : fds) {
      auto& e = entry(fd);
      if (e.kind == FdEntry::Kind::kFile) {
        ready.push_back(fd);  // regular files never block
        continue;
      }
      if (e.api->readable(e.sd)) ready.push_back(fd);
      if (single_stack == nullptr) {
        single_stack = e.api;
      } else if (single_stack != e.api) {
        multiple_stacks = true;
      }
    }
    if (!ready.empty()) co_return ready;
    if (single_stack != nullptr && !multiple_stacks) {
      co_await single_stack->activity().wait();
    } else {
      // Heterogeneous fd set: poll at scheduler granularity.
      co_await host_.engine().delay(5'000);
    }
  }
}

}  // namespace ulsocks::os
