// Simulated host: one CPU (serially occupied by application, library and
// kernel work), a RAM-disk filesystem, and cost-charging helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "oskernel/fs.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace ulsocks::os {

class Host {
 public:
  Host(sim::Engine& eng, const sim::CostModel& model, std::uint16_t id)
      : eng_(&eng),
        model_(model),
        id_(id),
        cpu_(eng),
        fs_(model, cpu_) {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] std::uint16_t id() const noexcept { return id_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return *eng_; }
  [[nodiscard]] const sim::CostModel& model() const noexcept { return model_; }
  [[nodiscard]] sim::SerialResource& cpu() noexcept { return cpu_; }
  [[nodiscard]] RamDiskFs& fs() noexcept { return fs_; }

  /// Charge one system-call round trip.  Like every plain CPU charge this
  /// returns the resource's awaiter, so it allocates no coroutine frame.
  [[nodiscard]] auto syscall() { return cpu_.use(model_.host.syscall_ns); }

  /// Charge application compute time (matmul kernels etc.).  Long bursts
  /// are charged in scheduler-quantum slices so that kernel work (interrupt
  /// handling, ack generation) preempts them as it would on a real host —
  /// a 100 ms kernel-starving monolith would otherwise time out peers.
  [[nodiscard]] sim::Task<void> compute(sim::Duration d) {
    const sim::Duration quantum = model_.host.sched_granularity_ns / 4;
    while (d > quantum) {
      co_await cpu_.use(quantum);
      co_await eng_->yield();  // let queued kernel jobs run
      d -= quantum;
    }
    co_await cpu_.use(d);
  }

  /// Charge a user-space memory copy of `bytes`.
  [[nodiscard]] auto copy(std::uint64_t bytes) {
    return cpu_.use(model_.memcpy_cost(bytes));
  }

 private:
  sim::Engine* eng_;
  sim::CostModel model_;
  std::uint16_t id_;
  sim::SerialResource cpu_;
  RamDiskFs fs_;
};

}  // namespace ulsocks::os
