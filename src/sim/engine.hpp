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

/// Identifies the simulation "domain" an event belongs to — the unit of
/// live migration between shards (apps::Cluster uses one domain per host).
/// Domain 0 is the ambient fabric (switch, links, harness glue): never
/// migrated, and the default for everything that never opts in.
using DomainId = std::uint32_t;
inline constexpr DomainId kAmbientDomain = 0;

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
    schedule_in_domain(t, current_domain_, std::move(fn));
  }

  /// schedule_at with an explicit domain tag, for the boundary crossings
  /// where the scheduling context is not the owning domain: link delivery
  /// (the transmit runs in the sender's domain, the arrival belongs to the
  /// receiver's) and cross-shard mailbox drains.  Everything scheduled from
  /// inside an event inherits that event's domain automatically.
  void schedule_in_domain(Time t, DomainId domain, EventFn fn) {
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
    const HeapItem item{t, next_seq_++, slot, domain};
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
    roots_.push_back(RootEntry{wrap_root(std::move(process)),
                               current_domain_});
    auto h = roots_.back().task.handle();
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

  /// Record a process failure (used by the root wrapper; also usable by
  /// tests to inject failures).
  void set_error(std::exception_ptr e) noexcept { root_error_ = e; }

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

  // ---- Domains and live migration ----------------------------------------
  //
  // Every queued event and every spawned root carries a DomainId.  Events
  // inherit the domain of the event that scheduled them (step() keeps the
  // executing event's tag current), so once a host's construction and
  // spawns run under a DomainScope the whole causal cone of that host stays
  // tagged — which is what lets ShardGroup lift a host out of one engine
  // and drop it into another at an epoch barrier (see sim/shard.hpp and
  // DESIGN.md §14).

  /// The domain tag new events are born with right now.
  [[nodiscard]] DomainId current_domain() const noexcept {
    return current_domain_;
  }
  void set_current_domain(DomainId d) noexcept { current_domain_ = d; }

  /// RAII domain tag: construction (and coroutine spawns) inside the scope
  /// are attributed to `d`.
  class DomainScope {
   public:
    DomainScope(Engine& eng, DomainId d) noexcept
        : eng_(&eng), prev_(eng.current_domain()) {
      eng.set_current_domain(d);
    }
    ~DomainScope() { eng_->set_current_domain(prev_); }
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    Engine* eng_;
    DomainId prev_;
  };

  /// Events executed so far on behalf of domain `d` — the load signal the
  /// rebalance policy samples.
  [[nodiscard]] std::uint64_t domain_events_executed(DomainId d) const
      noexcept {
    return d < domain_events_.size() ? domain_events_[d] : 0;
  }

  /// A domain lifted out of an engine: its pending events in (t, seq)
  /// order plus the root coroutines spawned under it.  Only ShardGroup's
  /// barrier-phase migration may call extract/adopt — moving live events
  /// anywhere else is unsound (ulsan-shard-affinity enforces this).
  struct MigratedEvent {
    Time t;
    EventFn fn;
  };
  struct MigratedDomain {
    DomainId domain = kAmbientDomain;
    std::vector<MigratedEvent> events;  // sorted by source (t, seq)
    std::vector<Task<void>> roots;
  };

  /// Remove every queued event and root tagged `d` from this engine.
  /// Events come back in their (t, seq) pop order, so adopt_domain can
  /// re-sequence them without reordering the domain's own causality.
  [[nodiscard]] MigratedDomain extract_domain(DomainId d) {
    MigratedDomain out;
    out.domain = d;
    std::vector<HeapItem> taken;
    auto strip = [&](std::vector<HeapItem>& heap) {
      std::vector<HeapItem> keep;
      keep.reserve(heap.size());
      for (const HeapItem& it : heap) {
        (it.domain == d ? taken : keep).push_back(it);
      }
      heap.clear();
      for (const HeapItem& it : keep) heap_push(heap, it);
    };
    strip(heap_);
    strip(far_);
    std::vector<HeapItem> lane_keep;
    for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
      (lane_[i].domain == d ? taken : lane_keep).push_back(lane_[i]);
    }
    lane_ = std::move(lane_keep);
    lane_head_ = 0;
    std::sort(taken.begin(), taken.end(), [](const HeapItem& a,
                                             const HeapItem& b) {
      return before(a, b);
    });
    out.events.reserve(taken.size());
    for (const HeapItem& it : taken) {
      EventFn& fn = slot_ref(it.slot);
      out.events.push_back(MigratedEvent{it.t, std::move(fn)});
      fn.reset();
      free_slots_.push_back(it.slot);
    }
    for (RootEntry& r : roots_) {
      if (r.domain == d) out.roots.push_back(std::move(r.task));
    }
    std::erase_if(roots_, [](const RootEntry& r) { return !r.task.handle(); });
    return out;
  }

  /// Adopt a domain extracted from another engine.  Pre: every event time
  /// is >= now() (the shard barrier protocol guarantees this before it
  /// applies a migration).  Events are re-sequenced in their original
  /// order, so the domain's same-timestamp causality is preserved.
  void adopt_domain(MigratedDomain&& m) {
    for (MigratedEvent& ev : m.events) {
      schedule_in_domain(ev.t, m.domain, std::move(ev.fn));
    }
    for (Task<void>& t : m.roots) {
      roots_.push_back(RootEntry{std::move(t), m.domain});
    }
    m.events.clear();
    m.roots.clear();
  }

  /// True while any event is queued.
  [[nodiscard]] bool has_pending() const noexcept { return pending(); }

  /// Cross-layer invariant checkers (see check/registry.hpp).  Protocol
  /// objects register themselves here; the engine sweeps the registry
  /// every `check_interval()` events and lets violations propagate out of
  /// run() as check::InvariantError.
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
  [[nodiscard]] std::uint64_t check_interval() const noexcept {
    return check_interval_;
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
    DomainId domain;  // fills what used to be padding: still 24 bytes
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
    // The executing event's domain becomes the ambient tag: everything it
    // schedules or spawns inherits it.  current_engine_ routes root-frame
    // error reporting to the engine actually stepping the coroutine, which
    // after a migration is not the engine that spawned it.
    current_domain_ = ev.domain;
    current_engine_ = this;
    if (ev.domain != kAmbientDomain) {
      if (ev.domain >= domain_events_.size()) {
        domain_events_.resize(ev.domain + 1, 0);
      }
      ++domain_events_[ev.domain];
    }
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

  // Static on purpose: a member coroutine would capture the engine that
  // SPAWNED the root, but a migrated root finishes on the engine that now
  // steps it.  current_engine_ (set by step()) is always the stepping
  // engine — roots only ever resume inside events.
  static Task<void> wrap_root(Task<void> process) {
    try {
      co_await process;
    } catch (...) {
      if (current_engine_ != nullptr) {
        current_engine_->root_error_ = std::current_exception();
        current_engine_->stop_ = true;
      }
    }
  }

  void maybe_reap() {
    if (roots_.size() < reap_watermark_) return;
    std::erase_if(roots_, [](const RootEntry& r) { return r.task.done(); });
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
  struct RootEntry {
    Task<void> task;
    DomainId domain;
  };
  std::vector<RootEntry> roots_;
  std::size_t reap_watermark_ = 64;
  std::exception_ptr root_error_;
  DomainId current_domain_ = kAmbientDomain;
  std::vector<std::uint64_t> domain_events_;  // executed, indexed by domain
  // The engine currently inside step() on this thread (run_points()
  // workers each step their own engines, so thread-local is exact).
  inline static thread_local Engine* current_engine_ = nullptr;
  Rng rng_;
};

}  // namespace ulsocks::sim
