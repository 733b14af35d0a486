// RAM-disk filesystem model.
//
// The paper's ftp experiment uses RAM disks "to remove the effects of disk
// access and caching"; what remains — and what caps ftp below the socket
// peak — is filesystem overhead.  This model charges a per-call VFS cost
// plus a per-byte cost on the host CPU for every read and write.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace ulsocks::os {

class FsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class OpenMode : std::uint8_t { kRead, kWrite };

struct OpenFile {
  std::string path;
  OpenMode mode = OpenMode::kRead;
  std::size_t offset = 0;
};

class RamDiskFs {
 public:
  RamDiskFs(const sim::CostModel& model, sim::SerialResource& cpu)
      : model_(model), cpu_(cpu) {}

  /// Instantly create a file (test/bench fixture setup; charges no time).
  void install(const std::string& path, std::vector<std::uint8_t> data) {
    files_[path] = std::move(data);
  }

  [[nodiscard]] bool exists(const std::string& path) const {
    return files_.count(path) != 0;
  }
  [[nodiscard]] std::size_t size_of(const std::string& path) const {
    auto it = files_.find(path);
    return it == files_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] const std::vector<std::uint8_t>& contents(
      const std::string& path) const {
    auto it = files_.find(path);
    if (it == files_.end()) throw FsError("no such file: " + path);
    return it->second;
  }

  [[nodiscard]] sim::Task<OpenFile> open(std::string path, OpenMode mode) {
    co_await cpu_.use(model_.host.syscall_ns + model_.host.fs_op_ns);
    if (mode == OpenMode::kRead) {
      if (!files_.count(path)) throw FsError("no such file: " + path);
    } else {
      files_[path].clear();  // O_TRUNC semantics
    }
    co_return OpenFile{std::move(path), mode, 0};
  }

  /// Read up to out.size() bytes at the file cursor; returns bytes read
  /// (0 at EOF).
  [[nodiscard]] sim::Task<std::size_t> read(OpenFile& f,
                                            std::span<std::uint8_t> out) {
    auto it = files_.find(f.path);
    if (it == files_.end()) throw FsError("file vanished: " + f.path);
    const auto& data = it->second;
    std::size_t n = 0;
    if (f.offset < data.size()) {
      n = std::min(out.size(), data.size() - f.offset);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(f.offset), n,
                  out.begin());
    }
    co_await cpu_.use(model_.host.syscall_ns + model_.host.fs_op_ns +
                      sim::copy_ns(n, model_.host.fs_bytes_per_us));
    f.offset += n;
    co_return n;
  }

  [[nodiscard]] sim::Task<void> write(OpenFile& f,
                                      std::span<const std::uint8_t> in) {
    if (f.mode != OpenMode::kWrite) throw FsError("file not open for write");
    auto& data = files_[f.path];
    if (f.offset + in.size() > data.size()) data.resize(f.offset + in.size());
    std::copy(in.begin(), in.end(),
              data.begin() + static_cast<std::ptrdiff_t>(f.offset));
    co_await cpu_.use(model_.host.syscall_ns + model_.host.fs_op_ns +
                      sim::copy_ns(in.size(), model_.host.fs_bytes_per_us));
    f.offset += in.size();
  }

  [[nodiscard]] sim::Task<void> close(OpenFile&) {
    co_await cpu_.use(model_.host.syscall_ns);
  }

  [[nodiscard]] sim::Task<void> remove(const std::string& path) {
    co_await cpu_.use(model_.host.syscall_ns + model_.host.fs_op_ns);
    files_.erase(path);
  }

 private:
  sim::CostModel model_;
  sim::SerialResource& cpu_;
  std::map<std::string, std::vector<std::uint8_t>> files_;
};

}  // namespace ulsocks::os
