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
// events, never inline, so causality always follows queue order.  A resume
// is a queue entry that holds the coroutine frame itself
// (schedule_resume()), not a callable.
//
// Serial streams: a serially-occupied resource (sim/resource.hpp) completes
// its jobs in (time, seq) order, so the engine keeps each resource's
// completions in a FIFO of its own and puts only the front in the heaps
// (see open_stream()).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
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

class ShardGroup;

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
    check_not_past(t);
    enqueue(Entry{t, next_seq_++, store(std::move(fn))});
  }

  /// Schedule `fn` to run `dt` from now.
  void schedule_after(Duration dt, EventFn fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Schedule a resume of the suspended coroutine `h` at absolute time `t`
  /// (>= now()).  The queue entry holds the frame address itself, so a
  /// wake-up costs no EventFn slot: step() hands the frame straight to the
  /// resume trampoline.  It draws a sequence number like any event.
  void schedule_resume(Time t, std::coroutine_handle<> h) {
    check_not_past(t);
    enqueue(Entry{t, next_seq_++, frame_ref(h)});
  }

  /// Handle of a serial stream (see open_stream()).
  enum class StreamId : std::uint32_t {};

  /// Open a serial stream: a FIFO of events that the caller promises to
  /// schedule in non-decreasing time order (sim::SerialResource's
  /// completions, whose free_at_ never decreases).  Sequence numbers are
  /// drawn at schedule time, so the stream is in (t, seq) order and only its
  /// front has to sit in the heaps, as a marker carrying that front's own
  /// (t, seq); a backlog of completions costs no heap sifting.  Each event
  /// keeps its time and sequence number, so the pop order is exactly the
  /// one plain schedule_at() calls would give.  The engine owns every
  /// stream, so a resource destroyed with completions still queued leaves
  /// them to run.
  [[nodiscard]] StreamId open_stream() {
    streams_.emplace_back();
    return static_cast<StreamId>(streams_.size() - 1);
  }

  /// schedule_at() through stream `s`.  Pre: `t` is no earlier than the
  /// time of any event still queued in `s` (an always-on invariant).
  void schedule_at(StreamId s, Time t, EventFn fn) {
    check_not_past(t);
    enqueue(s, Entry{t, next_seq_++, store(std::move(fn))});
  }

  /// schedule_resume() through stream `s`, under the same precondition.
  void schedule_resume(StreamId s, Time t, std::coroutine_handle<> h) {
    check_not_past(t);
    enqueue(s, Entry{t, next_seq_++, frame_ref(h)});
  }

  /// Adopt a detached simulated process.  The process is started through
  /// the event queue at the current time; uncaught exceptions stop the run
  /// and are rethrown from run().
  void spawn(Task<void> process) {
    roots_.push_back(wrap_root(std::move(process)));
    schedule_resume(now_, roots_.back().handle());
    maybe_reap();
  }

  /// Awaitable: suspend the current coroutine for `dt` simulated time.
  [[nodiscard]] auto delay(Duration dt) {
    struct Awaiter {
      Engine* eng;
      Duration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng->schedule_resume(eng->now() + dt, h);
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
  [[nodiscard]] bool stop_requested() const noexcept { return stop_; }

  /// The ShardGroup this engine is a shard of (null for a standalone
  /// engine) and its index there; set once by the group's constructor.
  [[nodiscard]] ShardGroup* shard_group() const noexcept { return group_; }
  [[nodiscard]] std::uint32_t shard_index() const noexcept {
    return shard_index_;
  }

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
  /// empty.  The shard scheduler uses this to pick the earliest shard.
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
  /// Every shard of a ShardGroup returns the group's one tracer, so a
  /// sharded run records one trace.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return *tracer_; }

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
  // A queue entry is a trivially-copyable 24-byte node; the (potentially
  // 100-byte) callable lives in a stable slot in `slot_pages_`.  Heap sift
  // moves are then plain POD copies the compiler turns into memmoves —
  // profiling showed sifting full fat events (inline-capture relocation
  // through an indirect call per move) dominated the hot loop.
  //
  // `ref` is a tagged reference, told apart by its two low bits:
  //   - kFrameTag: a coroutine frame address to resume (frames come from
  //     the block pool or ::operator new, both at least 16-byte aligned,
  //     so the tag bits of an address are clear; frame_ref() checks);
  //   - kSlotTag: an EventFn slot index, shifted past the tag;
  //   - kStreamTag: a serial stream index, shifted past the tag.  Such an
  //     entry is a stream's marker and carries its front's (t, seq).
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint64_t ref;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(sizeof(Entry) == 24);
  static constexpr std::uint64_t kFrameTag = 0;
  static constexpr std::uint64_t kSlotTag = 1;
  static constexpr std::uint64_t kStreamTag = 2;
  static constexpr unsigned kTagBits = 2;
  static constexpr std::uint64_t kTagMask = (1u << kTagBits) - 1;

  // Orders the heap so the front element is the minimum (t, seq).  (t, seq)
  // is a strict total order — seq is unique — so any valid heap over the
  // same pending set pops in exactly one order, which is why the digest is
  // insensitive to the heap's internal layout (binary vs. 4-ary, and any
  // sift implementation).
  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  // 4-ary min-heap.  Shallower than a binary heap (log4 vs log2 levels)
  // and the four children share a cache line pair, which matters because
  // queue sifting is the simulator's single hottest loop.  Sift-up and
  // sift-down move a hole instead of swapping, so each level costs one
  // 24-byte copy.
  static void heap_push(std::vector<Entry>& h, Entry it) {
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

  static Entry heap_pop(std::vector<Entry>& h) {
    Entry top = h[0];
    Entry last = h.back();
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

  // A serial stream: its entries in (t, seq) order.  A deque frees blocks
  // as the front advances, so a backlog holds about the memory of its live
  // entries.
  using Stream = std::deque<Entry>;

  void check_not_past(Time t) const {
    ULSOCKS_INVARIANT(
        t >= now_,
        check::msgf("schedule_at in the past: t=%llu < now=%llu",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(now_)));
  }

  /// Park `fn` in a free slot and return its tagged reference.
  [[nodiscard]] std::uint64_t store(EventFn&& fn) {
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
    return (std::uint64_t{slot} << kTagBits) | kSlotTag;
  }

  [[nodiscard]] static std::uint64_t frame_ref(std::coroutine_handle<> h) {
    const auto ref = reinterpret_cast<std::uintptr_t>(h.address());
    ULSOCKS_INVARIANT(ref != 0 && (ref & kTagMask) == kFrameTag,
                      "coroutine frame address is null or sets a tag bit");
    return ref;
  }

  /// Queue an entry.  Same-instant events (wake-ups, yields) skip the
  /// heaps: a FIFO keeps their seq order for free.  pop_next() explains
  /// why this stays exact.  The rest use a two-level queue: events inside
  /// the near horizon go to the small hot heap, far-future ones
  /// (retransmit timers, mostly) to the far heap.  The strict
  /// `t < horizon_` split keeps min(near) < horizon_ <= min(far), so the
  /// near heap's top is always the heaps' minimum and the pop order — and
  /// therefore the digest — is identical to a single queue's.
  void enqueue(const Entry& e) {
    if (e.t == now_) {
      lane_.push_back(e);
    } else {
      heap_push(e.t < horizon_ ? heap_ : far_, e);
    }
  }

  /// Queue an entry through stream `id`.  An entry due now takes the lane
  /// like any other, so every entry a stream holds was scheduled before
  /// its time was reached.  Only an empty stream arms a marker; a non-empty
  /// one already has its front's marker queued.
  void enqueue(StreamId id, const Entry& e) {
    if (e.t == now_) {
      lane_.push_back(e);
      return;
    }
    const auto index = static_cast<std::uint32_t>(id);
    Stream& s = streams_[index];
    if (s.empty()) {
      arm(e, index);
    } else {
      ULSOCKS_INVARIANT(
          e.t >= s.back().t,
          check::msgf("serial stream %u out of order: t=%llu < %llu", index,
                      static_cast<unsigned long long>(e.t),
                      static_cast<unsigned long long>(s.back().t)));
    }
    s.push_back(e);
  }

  /// Queue stream `index`'s marker for its front `front`.  A marker never
  /// takes the lane, even at t == now_: the front was scheduled before
  /// now_ was reached, so its seq is below every lane entry's and it must
  /// pop before them, from the heap.
  void arm(const Entry& front, std::uint32_t index) {
    heap_push(front.t < horizon_ ? heap_ : far_,
              Entry{front.t, front.seq,
                    (std::uint64_t{index} << kTagBits) | kStreamTag});
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
  Entry pop_next() {
    // Every lane entry has t == now_, and a heap entry at now_ was scheduled
    // before now_ was reached, so its seq is below every lane entry's.  Heap
    // entries at now_ therefore pop first, then the lane, which is exactly
    // (t, seq) order.  Only the near heap needs checking: far_ holds nothing
    // at now_, because now_ only ever reaches a time that was below the
    // horizon (or that nothing was queued at).
    if (lane_pending() && (heap_.empty() || heap_[0].t != now_)) {
      const Entry ev = lane_[lane_head_++];
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
    Entry ev = pop_next();
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
    if ((ev.ref & kTagMask) == kStreamTag) {
      // A marker: run its stream's front, which has the same (t, seq).
      // The next front is armed first, so an event that schedules into
      // this stream finds the marker invariant intact.
      const auto index = static_cast<std::uint32_t>(ev.ref >> kTagBits);
      Stream& s = streams_[index];
      ev = s.front();
      s.pop_front();
      if (!s.empty()) arm(s.front(), index);
    }
    if ((ev.ref & kTagMask) == kFrameTag) {
      detail::resume_chain(std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(static_cast<std::uintptr_t>(ev.ref))));
    } else {
      // Execute in place: slot pages are address-stable (the page
      // directory may grow during fn(), the pages never move), so no
      // relocating move of the inline capture is needed per event.  The
      // slot is recycled only after fn() returns, so an event scheduling
      // new events can never be handed its own still-running slot.
      const auto slot = static_cast<std::uint32_t>(ev.ref >> kTagBits);
      EventFn& fn = slot_ref(slot);
      fn();
      fn.reset();
      free_slots_.push_back(slot);
    }
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
  obs::Tracer own_tracer_;
  obs::Tracer* tracer_ = &own_tracer_;  // the group's tracer on a shard
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
  std::vector<Entry> heap_;     // near 4-ary min-heap keyed on (t, seq)
  std::vector<Entry> far_;      // far 4-ary min-heap (t >= horizon_)
  Time horizon_ = 0;            // strict upper bound on near-heap times
  std::vector<Entry> lane_;     // FIFO of events scheduled at t == now_
  std::size_t lane_head_ = 0;   // next lane entry; lane_ clears on drain
  std::vector<Stream> streams_;  // serial streams, indexed by StreamId
  std::vector<std::unique_ptr<EventFn[]>> slot_pages_;
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::uint32_t slot_count_ = 0;           // slots ever created
  std::vector<Task<void>> roots_;
  std::size_t reap_watermark_ = 64;
  std::exception_ptr root_error_;
  Rng rng_;
  ShardGroup* group_ = nullptr;
  std::uint32_t shard_index_ = 0;

  friend class ShardGroup;
};

}  // namespace ulsocks::sim
