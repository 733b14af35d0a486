// A serially-occupied hardware resource (a firmware CPU, a DMA engine, a
// host CPU).  Work is FIFO: each job begins when all earlier jobs finish,
// occupies the resource for its cost, then runs its completion action.
#pragma once

#include <coroutine>

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
  /// at completion.  An awaiter rather than a Task, so a charge allocates no
  /// coroutine frame; the resume is the one event a Task awaiting delay()
  /// would schedule, at the same time and sequence number.
  [[nodiscard]] auto use(Duration cost) {
    struct Awaiter {
      SerialResource* res;
      Duration cost;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        res->eng_->schedule_at(res->run(cost),
                               [h] { detail::resume_chain(h); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, cost};
  }

 private:
  Engine* eng_;
  Time busy_until_ = 0;
};

}  // namespace ulsocks::sim
