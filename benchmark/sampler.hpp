// SIGPROF stack sampler for the benchmark's traced run.
//
// The discrete-event engine executes every layer inside Engine::run(), so
// spans around driver calls cannot tell the layers apart.  Instead, an
// ITIMER_PROF timer interrupts the process every tick of CPU time it uses
// (all threads), and the handler records the interrupted PC plus the
// frame-pointer chain above it into a preallocated buffer.  The walk only
// follows frames whose return address lies in this program's own text, so
// it needs the -fno-omit-frame-pointer build and never dereferences a
// frame pointer that a library without frame pointers left behind.
//
// Symbols are resolved after the run: shared-object PCs here with
// dladdr(), program PCs by attribute.py with `nm -C`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ulsocks::benchmark {

/// At most one Sampler may exist per process (the signal handler reaches
/// its buffer through a global).
class Sampler {
 public:
  /// `capacity` samples are preallocated; ticks beyond it are counted as
  /// dropped.
  explicit Sampler(std::size_t capacity);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Open / close a sampling window (the timer itself runs from
  /// construction to destruction).  stop() returns only once no handler
  /// is still writing a sample.
  void start();
  void stop();

  [[nodiscard]] std::uint64_t samples() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Write the aggregated stacks and the shared-object symbol table to
  /// `path` (format in attribute.py).  Call after stop().
  [[nodiscard]] bool write(const std::string& path) const;
};

}  // namespace ulsocks::benchmark
