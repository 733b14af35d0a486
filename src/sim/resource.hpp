// A serially-occupied hardware resource (a firmware CPU, a DMA engine, a
// host CPU).  Work is FIFO: each job begins when all earlier jobs finish,
// occupies the resource for its cost, then runs its completion action.
#pragma once

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class SerialResource {
 public:
  explicit SerialResource(Engine& eng) : eng_(&eng) {}
  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  /// Enqueue a job costing `cost`; `done` (optional) runs at completion.
  /// Returns the completion time.
  Time run(Duration cost, EventFn done = {}) {
    Time start = busy_until_ > eng_->now() ? busy_until_ : eng_->now();
    busy_until_ = start + cost;
    if (done) eng_->schedule_at(busy_until_, std::move(done));
    return busy_until_;
  }

  /// Coroutine flavour: occupy the resource for `cost`, resuming the caller
  /// at completion.
  [[nodiscard]] Task<void> use(Duration cost) {
    Time end = run(cost);
    co_await eng_->delay(end - eng_->now());
  }

 private:
  Engine* eng_;
  Time busy_until_ = 0;
};

}  // namespace ulsocks::sim
