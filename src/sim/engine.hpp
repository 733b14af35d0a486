// Discrete-event simulation engine.
//
// The engine owns a single time-ordered event queue.  Events at equal
// timestamps fire in the order they were scheduled (a monotonically
// increasing sequence number breaks ties), which makes every run
// bit-deterministic for a fixed seed.  Internally the queue is a near heap,
// a far heap and a FIFO lane for events scheduled at now(); together they
// pop in exactly that single (time, seq) order (see pop_next()).
//
// Coroutine integration: `spawn()` adopts a detached `Task<void>` (a
// simulated process) and starts it through the queue; `delay()`, and the
// primitives in sync.hpp, suspend coroutines and resume them via scheduled
// events, never inline, so causality always follows queue order.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "check/invariant.hpp"
#include "check/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/inline_function.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1) : rng_(seed) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Total events executed so far (for perf accounting).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  /// Schedule `fn` to run at absolute time `t` (>= now()).  Scheduling in
  /// the past would break causality (and, silently, determinism), so the
  /// check is an always-on invariant rather than a compiled-out assert.
  ///
  /// `fn` is an EventFn (sim/inline_function.hpp): move-only, and captures
  /// up to its inline capacity cost no heap allocation.
  void schedule_at(Time t, EventFn fn) {
    ULSOCKS_INVARIANT(
        t >= now_,
        check::msgf("schedule_at in the past: t=%llu < now=%llu",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(now_)));
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slot_count_++;
      if ((slot & (kSlotPageSize - 1)) == 0) {
        slot_pages_.push_back(std::make_unique<EventFn[]>(kSlotPageSize));
      }
    }
    slot_ref(slot) = std::move(fn);
    const HeapItem item{t, next_seq_++, slot};
    // Same-instant events (wake-ups, yields) skip the heaps: a FIFO keeps
    // their seq order for free.  pop_next() explains why this stays exact.
    // The rest use a two-level queue: events inside the near horizon go to
    // the small hot heap, far-future ones (retransmit timers, mostly) to
    // the far heap.  The strict `t < horizon_` split keeps min(near) <
    // horizon_ <= min(far), so the near heap's top is always the heaps'
    // minimum and the pop order — and therefore the digest — is identical
    // to a single queue's.
    if (t == now_) {
      lane_.push_back(item);
    } else {
      heap_push(t < horizon_ ? heap_ : far_, item);
    }
  }

  /// Schedule `fn` to run `dt` from now.
  void schedule_after(Duration dt, EventFn fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Adopt a detached simulated process.  The process is started through
  /// the event queue at the current time; uncaught exceptions stop the run
  /// and are rethrown from run().
  void spawn(Task<void> process) {
    roots_.push_back(wrap_root(std::move(process)));
    auto h = roots_.back().handle();
    schedule_at(now_, [h] { detail::resume_chain(h); });
    maybe_reap();
  }

  /// Awaitable: suspend the current coroutine for `dt` simulated time.
  [[nodiscard]] auto delay(Duration dt) {
    struct Awaiter {
      Engine* eng;
      Duration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng->schedule_after(dt, [h] { detail::resume_chain(h); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: reschedule the current coroutine at the same timestamp,
  /// after every event already queued for this instant.
  [[nodiscard]] auto yield() { return delay(0); }

  /// Run until the queue drains, `request_stop()` is called, or a spawned
  /// process fails (its own exception is rethrown).
  void run() {
    while (!stop_ && pending()) {
      step();
      if (root_error_) {
        auto err = root_error_;
        root_error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
  }

  /// Run every event with t strictly below `bound`, then return without
  /// advancing now() to the bound.  This is the epoch primitive of the
  /// sharded engine (sim/shard.hpp): leaving now() at the last executed
  /// event keeps `schedule_at(arrival >= bound)` legal for cross-shard
  /// deliveries, and an idle epoch leaves the engine byte-identical to not
  /// having run at all.  Returns true if the queue drained.
  bool run_before(Time bound) {
    while (!stop_ && pending() && next_time() < bound) {
      step();
      if (root_error_) {
        auto err = root_error_;
        root_error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
    return !pending();
  }

  /// Run until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still run).  Returns true if the queue drained.
  bool run_until(Time deadline) {
    while (!stop_ && pending() && next_time() <= deadline) {
      step();
      if (root_error_) {
        auto err = root_error_;
        root_error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
    if (pending() && next_time() > deadline && now_ < deadline) {
      now_ = deadline;
    }
    return !pending();
  }

  /// Stop run() after the current event.
  void request_stop() noexcept { stop_ = true; }
  void clear_stop() noexcept { stop_ = false; }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Per-run event digest: (time, sequence, count) of every executed event
  /// folded into 64 bits.  Two runs of the same seeded workload must
  /// produce identical digests — the determinism self-check the ROADMAP
  /// tier-1 gate depends on (tests/determinism_test.cpp).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Order-insensitive companion of digest(): a wrapping sum of mix64(t)
  /// over every executed event.  Unlike digest() it does not fold the
  /// per-engine sequence numbers, so it is invariant under repartitioning
  /// the same event set across shards — the cross-shard-count identity the
  /// sharded determinism tests assert (see sim/shard.hpp).
  [[nodiscard]] std::uint64_t causal_digest() const noexcept {
    return causal_digest_;
  }

  /// Timestamp of the earliest queued event, or nothing if the queue is
  /// empty.  The shard scheduler uses this to compute each epoch's bound.
  [[nodiscard]] std::optional<Time> next_event_time() {
    if (!pending()) return std::nullopt;
    return next_time();
  }

  /// True while any event is queued.
  [[nodiscard]] bool has_pending() const noexcept { return pending(); }

  /// Cross-layer invariant checkers (see check/registry.hpp).  Protocol
  /// objects register themselves here; the engine sweeps the registry
  /// every set_check_interval() events and lets violations propagate out
  /// of run() as check::InvariantError.
  [[nodiscard]] check::Registry& checks() noexcept { return checks_; }

  /// The run's metrics registry (see obs/metrics.hpp).  Protocol layers
  /// register Counter/Gauge/Histogram handles under "h<N>/<layer>/<name>"
  /// paths at construction; benches snapshot it after run().
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const noexcept {
    return metrics_;
  }

  /// The run's span-based timeline tracer (see obs/timeline.hpp).  Disabled
  /// by default; enable before run() to export a Chrome trace afterwards.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }

  /// Events between checker sweeps; 0 disables sweeping entirely.  Tests
  /// set 1 to catch corruption on the very next event.
  void set_check_interval(std::uint64_t every_n_events) noexcept {
    check_interval_ = every_n_events;
    check_countdown_ = every_n_events;
  }

  // splitmix64 finalizer: cheap, well-mixed fold for the event digest.
  // Public so the shard scheduler folds per-shard digests with the same
  // mixer the per-event digest uses.
  static constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  // The heap orders trivially-copyable 24-byte nodes; the (potentially
  // 100-byte) callable lives in a stable slot in `slots_`.  Heap sift
  // moves are then plain POD copies the compiler turns into memmoves —
  // profiling showed sifting full fat events (inline-capture relocation
  // through an indirect call per move) dominated the hot loop.
  struct HeapItem {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<HeapItem>);
  static_assert(sizeof(HeapItem) == 24);
  // Orders the heap so the front element is the minimum (t, seq).  (t, seq)
  // is a strict total order — seq is unique — so any valid heap over the
  // same pending set pops in exactly one order, which is why the digest is
  // insensitive to the heap's internal layout (binary vs. 4-ary, and any
  // sift implementation).
  static bool before(const HeapItem& a, const HeapItem& b) noexcept {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  // 4-ary min-heap.  Shallower than a binary heap (log4 vs log2 levels)
  // and the four children share a cache line pair, which matters because
  // queue sifting is the simulator's single hottest loop.  Sift-up and
  // sift-down move a hole instead of swapping, so each level costs one
  // 24-byte copy.
  static void heap_push(std::vector<HeapItem>& h, HeapItem it) {
    std::size_t i = h.size();
    h.push_back(it);  // reserve the leaf; overwritten below
    while (i > 0) {
      std::size_t parent = (i - 1) >> 2;
      if (!before(it, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = it;
  }

  static HeapItem heap_pop(std::vector<HeapItem>& h) {
    HeapItem top = h[0];
    HeapItem last = h.back();
    h.pop_back();
    std::size_t n = h.size();
    if (n != 0) {
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 4 * i + 1;
        if (child >= n) break;
        std::size_t best = child;
        std::size_t end = child + 4 < n ? child + 4 : n;
        for (std::size_t k = child + 1; k < end; ++k) {
          if (before(h[k], h[best])) best = k;
        }
        if (!before(h[best], last)) break;
        h[i] = h[best];
        i = best;
      }
      h[i] = last;
    }
    return top;
  }

  // pop_next() clears the lane when it drains, so a non-empty lane always
  // holds an unpopped entry.
  [[nodiscard]] bool lane_pending() const noexcept { return !lane_.empty(); }

  [[nodiscard]] bool pending() const noexcept {
    return lane_pending() || !heap_.empty() || !far_.empty();
  }

  /// Refill the near heap from the far heap if it drained.  Advancing the
  /// horizon to (min far time + window) migrates at least one event, so
  /// the loop body runs at most once per call with a non-empty far heap.
  void refill_near() {
    while (heap_.empty() && !far_.empty()) {
      horizon_ = far_[0].t + kNearWindow;
      while (!far_.empty() && far_[0].t < horizon_) {
        heap_push(heap_, heap_pop(far_));
      }
    }
  }

  /// Timestamp of the next event to fire.  Pre: pending().
  [[nodiscard]] Time next_time() {
    if (lane_pending()) return now_;
    refill_near();
    return heap_[0].t;
  }

  /// Remove and return the next event in (t, seq) order.  Pre: pending().
  HeapItem pop_next() {
    // Every lane entry has t == now_, and a heap entry at now_ was scheduled
    // before now_ was reached, so its seq is below every lane entry's.  Heap
    // entries at now_ therefore pop first, then the lane, which is exactly
    // (t, seq) order.  Only the near heap needs checking: far_ holds nothing
    // at now_, because now_ only ever reaches a time that was below the
    // horizon (or that nothing was queued at).
    if (lane_pending() && (heap_.empty() || heap_[0].t != now_)) {
      const HeapItem ev = lane_[lane_head_++];
      if (lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
      return ev;
    }
    // Owning the heap directly (vs. std::priority_queue) lets the next
    // event be moved out of storage legitimately — no const_cast.
    refill_near();
    return heap_pop(heap_);
  }

  void step() {
    const HeapItem ev = pop_next();
    ULSOCKS_INVARIANT(
        ev.t >= now_,
        check::msgf("event time went backwards: t=%llu < now=%llu",
                    static_cast<unsigned long long>(ev.t),
                    static_cast<unsigned long long>(now_)));
    now_ = ev.t;
    ++events_executed_;
    digest_ = mix64(digest_ ^ ev.t);
    digest_ = mix64(digest_ ^ ev.seq);
    causal_digest_ += mix64(ev.t);
    // Execute in place: slot pages are address-stable (the page directory
    // may grow during fn(), the pages never move), so no relocating move of
    // the inline capture is needed per event.  The slot is recycled only
    // after fn() returns, so an event scheduling new events can never be
    // handed its own still-running slot.
    EventFn& fn = slot_ref(ev.slot);
    fn();
    fn.reset();
    free_slots_.push_back(ev.slot);
    // Countdown instead of `events_executed_ % interval`: one decrement
    // and branch per event, no integer division in the hot loop.
    if (check_countdown_ != 0 && --check_countdown_ == 0) {
      checks_.run_all();
      check_countdown_ = check_interval_;
    }
  }

  Task<void> wrap_root(Task<void> process) {
    try {
      co_await process;
    } catch (...) {
      root_error_ = std::current_exception();
      stop_ = true;
    }
  }

  void maybe_reap() {
    if (roots_.size() < reap_watermark_) return;
    std::erase_if(roots_, [](const Task<void>& t) { return t.done(); });
    // Back off geometrically: the next full scan happens only once the
    // surviving set has doubled, so N spawns cost O(N) amortized scanning
    // instead of the O(N^2) of sweeping every spawn past a fixed floor.
    reap_watermark_ = std::max<std::size_t>(64, roots_.size() * 2);
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t digest_ = 0x243f6a8885a308d3ull;  // pi, arbitrary non-zero
  std::uint64_t causal_digest_ = 0;
  std::uint64_t check_interval_ = 1024;
  std::uint64_t check_countdown_ = 1024;
  check::Registry checks_;
  obs::Registry metrics_;
  obs::Tracer tracer_;
  // Callable storage: fixed-size pages so slot addresses stay stable while
  // events run (a std::vector<EventFn> could reallocate under a running
  // event that schedules).  kSlotPageSize is a power of two so slot_ref()
  // is shift+mask.
  static constexpr std::uint32_t kSlotPageSize = 1024;
  [[nodiscard]] EventFn& slot_ref(std::uint32_t s) noexcept {
    return slot_pages_[s / kSlotPageSize][s & (kSlotPageSize - 1)];
  }

  // Near/far split: the near heap holds events with t < horizon_ and stays
  // small (tens of entries), so the per-event sifts run in cache; the far
  // heap absorbs long-dated timers and is touched only on schedule and on
  // horizon advances.  The window trades near-heap size against advance
  // frequency; 64 us spans the simulator's burst activity comfortably.
  static constexpr Duration kNearWindow = 65536;

  bool stop_ = false;
  std::vector<HeapItem> heap_;  // near 4-ary min-heap keyed on (t, seq)
  std::vector<HeapItem> far_;   // far 4-ary min-heap (t >= horizon_)
  Time horizon_ = 0;            // strict upper bound on near-heap times
  std::vector<HeapItem> lane_;  // FIFO of events scheduled at t == now_
  std::size_t lane_head_ = 0;   // next lane entry; lane_ clears on drain
  std::vector<std::unique_ptr<EventFn[]>> slot_pages_;
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::uint32_t slot_count_ = 0;           // slots ever created
  std::vector<Task<void>> roots_;
  std::size_t reap_watermark_ = 64;
  std::exception_ptr root_error_;
  Rng rng_;
};

}  // namespace ulsocks::sim
