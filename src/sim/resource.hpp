// A serially-occupied hardware resource (a firmware CPU, a DMA engine, a
// host CPU).  Work is FIFO: each job begins when all earlier jobs finish,
// occupies the resource for its cost, then runs its completion action.
//
// Completions go through the resource's serial stream (Engine::open_stream):
// free_at_ never decreases and sequence numbers are drawn at schedule
// time, so they arrive in (time, seq) order and only the earliest one sits
// in the engine's heaps.  The engine owns the stream, so completions still
// queued when the resource is destroyed run as scheduled.
#pragma once

#include <coroutine>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class SerialResource {
 public:
  explicit SerialResource(Engine& eng)
      : eng_(&eng), stream_(eng.open_stream()) {}
  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  /// Enqueue a job costing `cost`; `done` (optional) runs at completion.
  /// Returns the completion time.
  Time run(Duration cost, EventFn done = {}) {
    Time start = free_at_ > eng_->now() ? free_at_ : eng_->now();
    free_at_ = start + cost;
    if (done) eng_->schedule_at(stream_, free_at_, std::move(done));
    return free_at_;
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
        res->eng_->schedule_resume(res->stream_, res->run(cost), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, cost};
  }

 private:
  Engine* eng_;
  Engine::StreamId stream_;
  Time free_at_ = 0;
};

}  // namespace ulsocks::sim
