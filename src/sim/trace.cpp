#include "sim/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace ulsocks::sim::trace {

namespace {
/// The current level, seeded from ULSOCKS_TRACE on first use.  bench's
/// run_points() workers log from several threads: the function-local
/// static makes the one-time seeding thread-safe, and the atomic lets a
/// set_level() race with readers.
std::atomic<Level>& level_slot() noexcept {
  static std::atomic<Level> slot{[] {
    // Host-side log verbosity only: the level gates diagnostic printing
    // and never feeds events, digests or wire bytes.
    if (const char* env = std::getenv("ULSOCKS_TRACE")) {  // NOLINT(ulsan-determinism)
      const int v = std::atoi(env);
      if (v >= 0 && v <= 3) return static_cast<Level>(v);
    }
    return Level::kOff;
  }()};
  return slot;
}
}  // namespace

void set_level(Level level) noexcept {
  level_slot().store(level, std::memory_order_relaxed);
}

Level level() noexcept {
  return level_slot().load(std::memory_order_relaxed);
}

void init_from_env() noexcept { (void)level_slot(); }

bool enabled(Level level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(trace::level());
}

void logf(Level level, Time now, const char* component, const char* fmt, ...) {
  if (!enabled(level)) return;
  std::fprintf(stderr, "[%12.3f us] %-10s ", to_us(now), component);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace ulsocks::sim::trace
