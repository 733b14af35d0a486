#include "reference.hpp"

#include <time.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ulsocks::benchmark {

namespace {

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The mix a discrete-event simulator spends its time on: a priority queue
// of small timestamped records, hash lookups, short-lived heap objects and
// buffer copies.  Fixed inputs, so every pass does identical work.
std::uint64_t kernel() {
  struct Item {
    std::uint64_t t;
    std::uint64_t seq;
  };
  std::vector<Item> heap;
  heap.reserve(256);
  auto before = [](const Item& a, const Item& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  };
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::uint8_t> src(256 * 1024, 0x5a);
  std::vector<std::uint8_t> dst(src.size());
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Binary-heap push, and a pop once the queue holds 128 records.
    Item it{(i << 8) + (x & 0xffff), i};
    std::size_t k = heap.size();
    heap.push_back(it);
    while (k > 0 && before(it, heap[(k - 1) / 2])) {
      heap[k] = heap[(k - 1) / 2];
      k = (k - 1) / 2;
    }
    heap[k] = it;
    if (heap.size() > 128) {
      sum += heap[0].t;
      const Item last = heap.back();
      heap.pop_back();
      std::size_t j = 0;
      for (;;) {
        std::size_t c = 2 * j + 1;
        if (c >= heap.size()) break;
        if (c + 1 < heap.size() && before(heap[c + 1], heap[c])) ++c;
        if (!before(heap[c], last)) break;
        heap[j] = heap[c];
        j = c;
      }
      if (!heap.empty()) heap[j] = last;
    }
    table[x & 4095] += i;
    auto obj = std::make_unique<std::uint64_t[]>(4 + (x & 15));
    obj[0] = x;
    sum += obj[0] & 1;
    if ((i & 31) == 0) {
      const std::size_t off = (x >> 20) % (src.size() - 2048);
      std::memcpy(dst.data() + off, src.data() + off, 2048);
      sum += dst[off];
    }
  }
  return sum + table.size();
}

}  // namespace

double reference_seconds() {
  static volatile std::uint64_t sink = 0;
  const double t0 = thread_cpu_now();
  sink = sink + kernel();
  return thread_cpu_now() - t0;
}

}  // namespace ulsocks::benchmark
