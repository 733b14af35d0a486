// A serially-occupied hardware resource (a firmware CPU, a DMA engine, a
// host CPU).  Work is FIFO: each job begins when all earlier jobs finish,
// occupies the resource for its cost, then runs its completion action.
// Utilization accounting feeds the CPU-availability results the paper
// argues for (NIC-based protocol processing frees the host CPU).
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class SerialResource {
 public:
  SerialResource(Engine& eng, std::string name)
      : eng_(&eng), name_(std::move(name)) {}
  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  /// Enqueue a job costing `cost`; `done` (optional) runs at completion.
  /// Returns the completion time.
  Time run(Duration cost, EventFn done = {}) {
    Time start = busy_until_ > eng_->now() ? busy_until_ : eng_->now();
    busy_until_ = start + cost;
    busy_total_ += cost;
    ++jobs_;
    if (done) eng_->schedule_at(busy_until_, std::move(done));
    return busy_until_;
  }

  /// Coroutine flavour: occupy the resource for `cost`, resuming the caller
  /// at completion.
  [[nodiscard]] Task<void> use(Duration cost) {
    Time end = run(cost);
    co_await eng_->delay(end - eng_->now());
  }

  [[nodiscard]] Time busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] bool idle() const noexcept { return busy_until_ <= eng_->now(); }
  [[nodiscard]] Duration busy_total() const noexcept { return busy_total_; }
  [[nodiscard]] std::uint64_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Fraction of `window` this resource was occupied (window typically
  /// the whole run).
  [[nodiscard]] double utilization(Duration window) const {
    return window ? static_cast<double>(busy_total_) /
                        static_cast<double>(window)
                  : 0.0;
  }

 private:
  Engine* eng_;
  std::string name_;
  Time busy_until_ = 0;
  Duration busy_total_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace ulsocks::sim
