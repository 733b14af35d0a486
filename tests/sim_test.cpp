// Unit tests for the discrete-event engine, coroutine tasks and
// synchronization primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {
namespace {

TEST(Time, LiteralsAndConversions) {
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_sec(3'000'000'000ull), 3.0);
}

TEST(Time, SerializationCost) {
  // 1500 bytes at 1 Gb/s = 12 us.
  EXPECT_EQ(serialization_ns(1500, 1'000'000'000ull), 12'000u);
  // 4 bytes at 1 Gb/s = 32 ns.
  EXPECT_EQ(serialization_ns(4, 1'000'000'000ull), 32u);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, EqualTimestampsRunInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedSchedulingAdvancesTime) {
  Engine eng;
  Time fired_at = 0;
  eng.schedule_at(5, [&] {
    eng.schedule_after(7, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired_at, 12u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    eng.schedule_at(t, [&] { ++count; });
  }
  bool drained = eng.run_until(50);
  EXPECT_FALSE(drained);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), 50u);
  drained = eng.run_until(1000);
  EXPECT_TRUE(drained);
  EXPECT_EQ(count, 10);
}

TEST(Engine, RequestStopHaltsRun) {
  Engine eng;
  int count = 0;
  eng.schedule_at(1, [&] {
    ++count;
    eng.request_stop();
  });
  eng.schedule_at(2, [&] { ++count; });
  eng.run();
  EXPECT_EQ(count, 1);
  eng.clear_stop();
  eng.run();
  EXPECT_EQ(count, 2);
}

TEST(Task, SpawnedProcessRuns) {
  Engine eng;
  bool ran = false;
  auto proc = [](Engine& e, bool& flag) -> Task<void> {
    co_await e.delay(10);
    flag = true;
  };
  eng.spawn(proc(eng, ran));
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 10u);
}

TEST(Task, NestedAwaitReturnsValue) {
  Engine eng;
  int result = 0;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.delay(5);
    co_return 42;
  };
  auto outer = [&inner](Engine& e, int& out) -> Task<void> {
    out = co_await inner(e);
  };
  eng.spawn(outer(eng, result));
  eng.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(eng.now(), 5u);
}

TEST(Task, DeeplyNestedAwaitIsStackSafe) {
  Engine eng;
  // Recursion depth that would overflow the stack if awaits recursed.
  struct Rec {
    static Task<int> chain(Engine& e, int depth) {
      if (depth == 0) co_return 0;
      int below = co_await chain(e, depth - 1);
      co_return below + 1;
    }
  };
  int result = -1;
  auto outer = [&result](Engine& e) -> Task<void> {
    result = co_await Rec::chain(e, 50'000);
  };
  eng.spawn(outer(eng));
  eng.run();
  EXPECT_EQ(result, 50'000);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Engine eng;
  auto thrower = [](Engine& e) -> Task<void> {
    co_await e.delay(1);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  auto outer = [&thrower, &caught](Engine& e) -> Task<void> {
    try {
      co_await thrower(e);
    } catch (const std::runtime_error& err) {
      caught = std::string(err.what()) == "boom";
    }
  };
  eng.spawn(outer(eng));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Task, UncaughtExceptionSurfacesFromRun) {
  Engine eng;
  auto thrower = [](Engine& e) -> Task<void> {
    co_await e.delay(1);
    throw std::runtime_error("unhandled");
  };
  eng.spawn(thrower(eng));
  // run() rethrows the process's own exception, not a wrapper around it.
  try {
    eng.run();
    FAIL() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unhandled");
  }
}

#ifdef __SANITIZE_ADDRESS__
// Frames are recycled through sim/block_pool.hpp, which poisons free-listed
// blocks, so a touch of a destroyed Task's frame is still an ASan report.
TEST(TaskDeathTest, DestroyedFrameTouchIsReportedByAsan) {
  auto body = []() -> Task<void> { co_return; };
  EXPECT_DEATH(
      {
        Task<void> t = body();
        auto* frame = static_cast<volatile char*>(t.handle().address());
        t = Task<void>{};
        (void)frame[0];
      },
      "AddressSanitizer: use-after-poison");
}
#endif

TEST(Task, ManySpawnedTasksAreReaped) {
  Engine eng;
  int done = 0;
  auto proc = [](Engine& e, int& counter) -> Task<void> {
    co_await e.delay(1);
    ++counter;
  };
  for (int i = 0; i < 1000; ++i) eng.spawn(proc(eng, done));
  eng.run();
  EXPECT_EQ(done, 1000);
}

TEST(Task, TwoProcessesInterleaveDeterministically) {
  Engine eng;
  std::vector<std::string> log;
  auto proc = [](Engine& e, std::vector<std::string>& lg, std::string name,
                 Duration step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(step);
      lg.push_back(name + std::to_string(i));
    }
  };
  eng.spawn(proc(eng, log, "a", 10));
  eng.spawn(proc(eng, log, "b", 15));
  eng.run();
  // a fires at 10,20,30; b at 15,30,45.  At t=30, b's resume was scheduled
  // earlier (at t=15) than a's (at t=20), so b1 precedes a2.
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2",
                                           "b2"}));
}

TEST(CondVar, NotifyAllWakesEveryWaiter) {
  Engine eng;
  CondVar cv(eng);
  int woken = 0;
  auto waiter = [](CondVar& c, int& count) -> Task<void> {
    co_await c.wait();
    ++count;
  };
  for (int i = 0; i < 5; ++i) eng.spawn(waiter(cv, woken));
  eng.schedule_at(50, [&] { cv.notify_all(); });
  eng.run();
  EXPECT_EQ(woken, 5);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(ManualEvent, WaitAfterSetDoesNotBlock) {
  Engine eng;
  ManualEvent ev(eng);
  ev.set();
  Time at = 1;
  auto waiter = [](Engine& e, ManualEvent& m, Time& t) -> Task<void> {
    co_await m.wait();
    t = e.now();
  };
  eng.spawn(waiter(eng, ev, at));
  eng.run();
  EXPECT_EQ(at, 0u);
}

TEST(ManualEvent, WaitBeforeSetResumesAtTheSetAfterOneEvent) {
  Engine eng;
  ManualEvent ev(eng);
  Time at = 0;
  auto waiter = [](Engine& e, ManualEvent& m, Time& t) -> Task<void> {
    co_await m.wait();
    t = e.now();
  };
  eng.spawn(waiter(eng, ev, at));
  eng.run();  // the start event parks the waiter
  ASSERT_EQ(eng.events_executed(), 1u);
  eng.schedule_at(40, [&ev] { ev.set(); });
  eng.run();
  EXPECT_EQ(at, 40u);
  // The set, then one resume at the set's instant.
  EXPECT_EQ(eng.events_executed(), 3u);
}

// The engine owns a resource's completion stream, so completions queued
// when the resource is destroyed still run, in order.
TEST(SerialResource, CompletionsOutliveTheResource) {
  Engine eng;
  std::vector<int> order;
  {
    SerialResource res(eng);
    res.run(10, [&order] { order.push_back(1); });
    res.run(5, [&order] { order.push_back(2); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), 15u);
}

TEST(Stats, OnlineStatsMoments) {
  OnlineStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(Stats, ResultTableFormatting) {
  ResultTable t({"size", "latency_us"});
  t.add_row({"4", ResultTable::num(28.5, 1)});
  std::string out = t.to_string();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("28.5"), std::string::npos);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

// Determinism property: the same seed gives the identical event trace.
TEST(Engine, RunsAreReproducible) {
  auto run_once = [](std::uint64_t seed) {
    Engine eng(seed);
    std::vector<Time> stamps;
    auto proc = [](Engine& e, std::vector<Time>& out) -> Task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await e.delay(e.rng().uniform(1, 100));
        out.push_back(e.now());
      }
    };
    eng.spawn(proc(eng, stamps));
    eng.spawn(proc(eng, stamps));
    eng.run();
    return stamps;
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

// ---------------------------------------------------------------------------
// InlineFunction (the engine's event callable)
// ---------------------------------------------------------------------------

TEST(InlineFunction, HoldsMoveOnlyCapturesInline) {
  auto payload = std::make_unique<int>(41);
  int result = 0;
  EventFn fn = [p = std::move(payload), &result] { result = *p + 1; };
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(result, 42);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, SpillsOversizedCapturesToTheHeap) {
  // A capture bigger than the inline buffer must still work (heap spill).
  struct Big {
    std::array<std::uint64_t, 32> words{};  // 256 B > the 88 B inline buffer
  };
  Big big;
  big.words[31] = 7;
  std::uint64_t seen = 0;
  EventFn fn = [big, &seen] { seen = big.words[31]; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7u);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  int calls = 0;
  EventFn a = [&calls] { ++calls; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace ulsocks::sim
