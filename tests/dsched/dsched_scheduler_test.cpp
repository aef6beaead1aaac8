// Unit tests of the dsched scheduler core and strategies, using toy
// logical threads that call schedule_point() directly — no trees — so
// the schedule-tree arithmetic (trace shapes, DFS enumeration counts,
// replay fidelity) can be checked exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_id.hpp"
#include "dsched/scheduler.hpp"
#include "dsched/strategies.hpp"

namespace lfbst::dsched {
namespace {

/// A logical thread that hits exactly `points` schedule points and
/// appends its tid to `log` between consecutive points — a fully
/// observable, branch-free workload.
scheduler::thread_fn stepper(unsigned tid, int points,
                             std::vector<unsigned>& log) {
  return [tid, points, &log] {
    for (int i = 0; i < points; ++i) {
      schedule_point();
      log.push_back(tid);
    }
  };
}

unsigned first_runnable(std::size_t, std::uint32_t mask) {
  return static_cast<unsigned>(__builtin_ctz(mask));
}

TEST(DschedScheduler, SchedulePointOutsideExecutionIsANoop) {
  schedule_point();  // must not crash or block on an unmanaged thread
  SUCCEED();
}

TEST(DschedScheduler, RunsSingleThreadToCompletion) {
  std::vector<unsigned> log;
  const trace t =
      scheduler::run({stepper(0, 5, log)}, &first_runnable);
  EXPECT_EQ(log.size(), 5u);
  // A thread with p schedule points takes p+1 scheduler steps: the
  // initial dispatch runs up to the first point, and the last step runs
  // from the final point to completion.
  EXPECT_EQ(t.size(), 6u);
  for (const choice& c : t) {
    EXPECT_EQ(c.chosen, 0u);
    EXPECT_EQ(c.runnable, 1u);
  }
}

TEST(DschedScheduler, SerializesInterleavingPerStrategy) {
  std::vector<unsigned> log;
  // Strict alternation between two 3-point threads.
  auto alternate = [](std::size_t step, std::uint32_t mask) -> unsigned {
    const unsigned want = step % 2;
    return (mask & (1u << want)) ? want
                                 : static_cast<unsigned>(__builtin_ctz(mask));
  };
  scheduler::run({stepper(0, 3, log), stepper(1, 3, log)}, alternate);
  ASSERT_EQ(log.size(), 6u);
  // Log entries follow the alternation (each entry is written by the
  // thread scheduled one step earlier).
  EXPECT_EQ(log, (std::vector<unsigned>{0, 1, 0, 1, 0, 1}));
}

TEST(DschedScheduler, IdenticalSeedsProduceIdenticalTraces) {
  for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
    std::vector<unsigned> log_a, log_b;
    random_walk wa(seed), wb(seed);
    const trace a = scheduler::run({stepper(0, 4, log_a),
                                    stepper(1, 4, log_a)},
                                   [&](std::size_t s, std::uint32_t m) {
                                     return wa(s, m);
                                   });
    const trace b = scheduler::run({stepper(0, 4, log_b),
                                    stepper(1, 4, log_b)},
                                   [&](std::size_t s, std::uint32_t m) {
                                     return wb(s, m);
                                   });
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].chosen, b[i].chosen) << "seed " << seed << " step " << i;
      EXPECT_EQ(a[i].runnable, b[i].runnable);
    }
    EXPECT_EQ(log_a, log_b);
  }
}

TEST(DschedScheduler, ReplayReproducesATraceExactly) {
  std::vector<unsigned> log_a;
  random_walk walk(42);
  const trace original = scheduler::run(
      {stepper(0, 5, log_a), stepper(1, 3, log_a), stepper(2, 4, log_a)},
      [&](std::size_t s, std::uint32_t m) { return walk(s, m); });

  // Round-trip through the printed form, then rerun.
  replay rep = replay::from_string(format_trace(original));
  std::vector<unsigned> log_b;
  const trace rerun = scheduler::run(
      {stepper(0, 5, log_b), stepper(1, 3, log_b), stepper(2, 4, log_b)},
      [&](std::size_t s, std::uint32_t m) { return rep(s, m); });

  ASSERT_EQ(rerun.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rerun[i].chosen, original[i].chosen) << "step " << i;
  }
  EXPECT_EQ(log_a, log_b);
}

TEST(DschedScheduler, PctIsDeterministicPerSeed) {
  for (const std::uint64_t seed : {3ull, 99ull}) {
    std::vector<unsigned> log_a, log_b;
    pct pa(seed, 3, 3, 16), pb(seed, 3, 3, 16);
    const trace a = scheduler::run(
        {stepper(0, 3, log_a), stepper(1, 3, log_a), stepper(2, 3, log_a)},
        [&](std::size_t s, std::uint32_t m) { return pa(s, m); });
    const trace b = scheduler::run(
        {stepper(0, 3, log_b), stepper(1, 3, log_b), stepper(2, 3, log_b)},
        [&](std::size_t s, std::uint32_t m) { return pb(s, m); });
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].chosen, b[i].chosen);
    }
    EXPECT_EQ(log_a, log_b);
  }
}

// The DFS count for two branch-free threads with a and b steps is the
// binomial C(a+b, a): every interleaving of the two step sequences.
// Thread i makes (points + 1) scheduler steps: the initial dispatch
// reaches the first schedule_point, and the final step runs from the
// last point to completion.
TEST(DschedScheduler, DfsEnumeratesTheFullBinomialSpace) {
  // 2+1=3 and 2+1=3 steps -> C(6,3) = 20 interleavings.
  dfs_explorer dfs(1000);
  std::size_t runs = 0;
  while (dfs.more()) {
    std::vector<unsigned> log;
    const trace t = scheduler::run({stepper(0, 2, log), stepper(1, 2, log)},
                                   dfs.strategy());
    dfs.commit(t);
    ++runs;
  }
  EXPECT_TRUE(dfs.exhausted());
  EXPECT_EQ(dfs.executions(), 20u);
  EXPECT_EQ(runs, 20u);
}

TEST(DschedScheduler, DfsEnumerates3ThreadSpaceExactly) {
  // Three 1-point threads: 2 steps each -> 6!/(2!2!2!) = 90 schedules.
  dfs_explorer dfs(1000);
  std::set<std::string> distinct;
  while (dfs.more()) {
    std::vector<unsigned> log;
    const trace t = scheduler::run(
        {stepper(0, 1, log), stepper(1, 1, log), stepper(2, 1, log)},
        dfs.strategy());
    dfs.commit(t);
    distinct.insert(format_trace(t));
  }
  EXPECT_TRUE(dfs.exhausted());
  EXPECT_EQ(dfs.executions(), 90u);
  EXPECT_EQ(distinct.size(), 90u);  // every explored trace is distinct
}

TEST(DschedScheduler, DfsRespectsItsBudget) {
  dfs_explorer dfs(7);  // space is 20, budget is 7
  while (dfs.more()) {
    std::vector<unsigned> log;
    const trace t = scheduler::run({stepper(0, 2, log), stepper(1, 2, log)},
                                   dfs.strategy());
    dfs.commit(t);
  }
  EXPECT_FALSE(dfs.exhausted());
  EXPECT_EQ(dfs.executions(), 7u);
}

TEST(DschedScheduler, StepBudgetExhaustionThrowsAfterUnblocking) {
  // No shared state in the threads: once the budget blows they are run
  // round-robin to completion, and then run() throws.
  auto spin = [] {
    for (int i = 0; i < 100; ++i) schedule_point();
  };
  EXPECT_THROW(scheduler::run({spin, spin}, &first_runnable,
                              /*max_steps=*/10),
               std::runtime_error);
}

TEST(DschedScheduler, StepBudgetDrainLetsASpinnerSeeAnotherThreadsStep) {
  // Thread 0 waits through schedule points for a flag that thread 1
  // sets several points in, the shape of any spin-wait on another
  // thread's store. The strategy starves thread 1 until the budget
  // blows; the drain must still run it, or run() never returns.
  std::atomic<bool> flag{false};
  auto waiter = [&flag] {
    while (!flag.load()) schedule_point();
  };
  auto setter = [&flag] {
    for (int i = 0; i < 5; ++i) schedule_point();
    flag.store(true);
  };
  EXPECT_THROW(scheduler::run({waiter, setter}, &first_runnable,
                              /*max_steps=*/10),
               std::runtime_error);
}

TEST(DschedScheduler, EachLogicalThreadRunsUnderItsOwnThreadIndex) {
  // Node pools, epoch records, hazard slots and gate stripes key on
  // this_thread_index(), so logical threads must not share one. Their
  // slots go back to the table after each run: 2000 runs of 32 threads
  // take far more than the table's max_threads slots in total.
  const unsigned coordinator = this_thread_index();
  constexpr unsigned kThreads = scheduler::max_logical_threads;
  random_walk walk(5);
  for (int run = 0; run < 2000; ++run) {
    std::vector<unsigned> before(kThreads), after(kThreads);
    std::vector<scheduler::thread_fn> fns;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      fns.push_back([tid, &before, &after] {
        before[tid] = this_thread_index();
        schedule_point();
        after[tid] = this_thread_index();
      });
    }
    scheduler::run(std::move(fns), [&walk](std::size_t s, std::uint32_t m) {
      return walk(s, m);
    });
    ASSERT_EQ(before, after) << "run " << run;
    std::set<unsigned> distinct(before.begin(), before.end());
    ASSERT_EQ(distinct.size(), kThreads) << "run " << run;
    ASSERT_EQ(distinct.count(coordinator), 0u) << "run " << run;
    ASSERT_EQ(this_thread_index(), coordinator) << "run " << run;
  }
}

}  // namespace
}  // namespace lfbst::dsched
