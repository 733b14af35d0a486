#include "apps/matmul.hpp"

#include <map>

#include "net/byte_order.hpp"
#include "oskernel/socket_api.hpp"

namespace ulsocks::apps {

namespace {

using os::SockAddr;
using sim::Task;

struct JobHeader {
  std::uint32_t n = 0;
  std::uint32_t row_start = 0;
  std::uint32_t row_count = 0;
};
constexpr std::size_t kJobHeaderBytes = 12;

void encode_header(const JobHeader& h, std::uint8_t* out) {
  net::store_le32(out, h.n);
  net::store_le32(out + 4, h.row_start);
  net::store_le32(out + 8, h.row_count);
}

JobHeader decode_header(const std::uint8_t* in) {
  return JobHeader{.n = net::load_le32(in),
                   .row_start = net::load_le32(in + 4),
                   .row_count = net::load_le32(in + 8)};
}

std::span<const std::uint8_t> as_bytes(const double* p, std::size_t count) {
  return {reinterpret_cast<const std::uint8_t*>(p), count * sizeof(double)};
}

std::span<std::uint8_t> as_writable_bytes(double* p, std::size_t count) {
  return {reinterpret_cast<std::uint8_t*>(p), count * sizeof(double)};
}

}  // namespace

Matrix make_matrix(std::size_t n, std::uint32_t seed) {
  Matrix m(n * n);
  std::uint32_t x = seed * 2654435761u + 1;
  for (auto& v : m) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<double>(x % 1000) / 100.0 - 5.0;
  }
  return m;
}

Matrix multiply_reference(const Matrix& a, const Matrix& b, std::size_t n) {
  Matrix c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      double aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += aik * b[k * n + j];
      }
    }
  }
  return c;
}

sim::Task<void> matmul_worker(os::Process& proc, os::SocketApi& stack,
                              std::uint16_t port) {
  int ls = co_await proc.socket(stack);
  co_await proc.bind(ls, SockAddr{0, port});
  co_await proc.listen(ls, 1);
  int fd = co_await proc.accept(ls);

  std::uint8_t hdr[kJobHeaderBytes];
  co_await proc.read_exact(fd, hdr);
  JobHeader job = decode_header(hdr);
  std::size_t n = job.n;

  Matrix b(n * n);
  co_await proc.read_exact(fd, as_writable_bytes(b.data(), b.size()));
  Matrix a_rows(static_cast<std::size_t>(job.row_count) * n);
  co_await proc.read_exact(fd,
                           as_writable_bytes(a_rows.data(), a_rows.size()));

  // The kernel: 2*rows*n*n flops, charged to the host CPU.
  Matrix c_rows(static_cast<std::size_t>(job.row_count) * n, 0.0);
  for (std::size_t i = 0; i < job.row_count; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      double aik = a_rows[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        c_rows[i * n + j] += aik * b[k * n + j];
      }
    }
  }
  double flops = 2.0 * static_cast<double>(job.row_count) *
                 static_cast<double>(n) * static_cast<double>(n);
  co_await proc.host().compute(static_cast<sim::Duration>(
      flops * 1e3 / proc.host().model().host.flops_per_us));

  co_await proc.write_all(fd, hdr);  // echo the block coordinates
  co_await proc.write_all(fd, as_bytes(c_rows.data(), c_rows.size()));
  co_await proc.close(fd);
  co_await proc.close(ls);
}

sim::Task<MatmulResult> matmul_master(os::Process& proc, os::SocketApi& stack,
                                      const Matrix& a, const Matrix& b,
                                      std::size_t n,
                                      std::vector<std::uint16_t> workers,
                                      std::uint16_t port) {
  sim::Time t0 = proc.host().engine().now();

  // Connect to every worker and ship its job.
  std::size_t w = workers.size();
  std::vector<int> fds(w);
  std::map<int, JobHeader> jobs;
  std::size_t rows_each = (n + w - 1) / w;
  for (std::size_t i = 0; i < w; ++i) {
    fds[i] = co_await proc.socket(stack);
    co_await proc.connect(fds[i], SockAddr{workers[i], port});
    JobHeader job;
    job.n = static_cast<std::uint32_t>(n);
    job.row_start = static_cast<std::uint32_t>(i * rows_each);
    job.row_count = static_cast<std::uint32_t>(
        std::min(rows_each, n - std::min(n, i * rows_each)));
    std::uint8_t hdr[kJobHeaderBytes];
    encode_header(job, hdr);
    co_await proc.write_all(fds[i], hdr);
    co_await proc.write_all(fds[i], as_bytes(b.data(), b.size()));
    co_await proc.write_all(
        fds[i], as_bytes(a.data() + job.row_start * n,
                         static_cast<std::size_t>(job.row_count) * n));
    jobs[fds[i]] = job;
  }

  // Gather with select(): whichever worker finishes first is read first.
  MatmulResult result;
  result.c.assign(n * n, 0.0);
  std::vector<int> outstanding = fds;
  while (!outstanding.empty()) {
    std::vector<int> ready = co_await proc.select(outstanding);
    for (int fd : ready) {
      std::uint8_t hdr[kJobHeaderBytes];
      co_await proc.read_exact(fd, hdr);
      JobHeader job = decode_header(hdr);
      co_await proc.read_exact(
          fd, as_writable_bytes(result.c.data() + job.row_start * n,
                                static_cast<std::size_t>(job.row_count) * n));
      co_await proc.close(fd);
      std::erase(outstanding, fd);
    }
  }
  result.elapsed = proc.host().engine().now() - t0;
  co_return result;
}

}  // namespace ulsocks::apps
