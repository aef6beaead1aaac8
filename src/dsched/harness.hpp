// lfbst dsched: scenario harness — run tree operations under the
// deterministic scheduler and decide linearizability of every terminal
// state.
//
// A scenario is: a sequential setup phase, N per-thread operation
// scripts, and a key universe. The harness runs the scripts under a
// strategy (strategies.hpp), records every operation as an interval on a
// logical clock, then:
//
//   * appends one contains(k) "observation op" per universe key holding
//     the tree's terminal membership, timestamped after everything — so
//     the terminal state must be explained by the same linearization
//     that explains the concurrent history;
//   * runs the repo's Wing–Gong checker (lincheck/lincheck.hpp) over
//     the combined history;
//   * runs the tree's structural validator.
//
// Timestamps: the recorder's clock, incremented at every invoke/response
// event. Logical threads execute one at a time on one OS thread, each
// switch made by the scheduler, so clock order equals real-time order
// exactly — including program order within a thread — and the checker's
// real-time constraint is tight, not merely conservative.
//
// Every failure carries the execution's trace; replaying it
// (strategies.hpp replay, or the printed `--trace` string) reproduces
// the interleaving bit for bit, because scheduling is the scenario's
// only source of nondeterminism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "dsched/scheduler.hpp"
#include "dsched/strategies.hpp"
#include "lincheck/lincheck.hpp"
#include "lincheck/recorder.hpp"

namespace lfbst::dsched {

/// Multiplier for exploration budgets, read once per call from the
/// LFBST_DSCHED_BUDGET_SCALE environment variable (default 1, minimum
/// 1). PR CI runs at scale 1; the nightly workflow raises it so the
/// same scenarios sweep far more interleavings without a code change.
[[nodiscard]] inline std::size_t budget_scale() {
  const char* raw = std::getenv("LFBST_DSCHED_BUDGET_SCALE");
  if (raw == nullptr) return 1;
  const long v = std::strtol(raw, nullptr, 10);
  return v < 1 ? std::size_t{1} : static_cast<std::size_t>(v);
}

/// Convenience: `n` executions scaled by budget_scale().
[[nodiscard]] inline std::size_t scaled_budget(std::size_t n) {
  return n * budget_scale();
}

/// Scripts record their operations through the one lincheck recorder
/// of the execution, shared by all its logical threads.
template <typename Tree>
using recorder = lincheck::recorder<Tree>;

/// One schedule-exploration scenario over a tree type built with
/// dsched::sched_atomics.
template <typename Tree>
struct scenario {
  using script = std::function<void(recorder<Tree>&)>;

  /// Sequential pre-population; runs outside the scheduler.
  std::function<void(Tree&)> setup;
  /// One operation script per logical thread.
  std::vector<script> threads;
  /// Keys whose terminal membership is folded into the linearizability
  /// check. Must cover every key the scripts touch.
  std::vector<int> universe;
  /// Optional post-execution observer, invoked after the terminal
  /// checks while the tree is still alive. Lets tests inspect
  /// per-instance state (e.g. obs::recording counters) that dies with
  /// the tree when run_scenario returns.
  std::function<void(Tree&)> on_terminal;
};

/// Outcome of one scheduled execution.
struct execution_report {
  trace schedule;
  bool linearizable = false;
  std::string validate_error;
  std::size_t steps = 0;

  [[nodiscard]] bool ok() const {
    return linearizable && validate_error.empty();
  }
  [[nodiscard]] std::string describe() const {
    std::string out;
    if (!linearizable) out += "terminal state not linearizable; ";
    if (!validate_error.empty()) {
      out += "structural validation failed: " + validate_error;
    }
    out += " replay trace: " + format_trace(schedule);
    return out;
  }
};

/// Runs `sc` once under `pick` and checks the terminal state.
template <typename Tree>
execution_report run_scenario(const scenario<Tree>& sc,
                              const scheduler::strategy_fn& pick) {
  Tree tree;
  if (sc.setup) sc.setup(tree);

  // Initial abstract state: membership after setup (sequential, exact).
  std::uint64_t initial_state = 0;
  for (const int k : sc.universe) {
    LFBST_ASSERT(k >= 0 && k < 64, "universe keys live in [0,64)");
    if (tree.contains(k)) initial_state |= std::uint64_t{1} << k;
  }

  recorder<Tree> rec(tree);
  std::vector<scheduler::thread_fn> fns;
  for (const auto& script : sc.threads) {
    fns.emplace_back([&script, &rec] { script(rec); });
  }

  execution_report report;
  report.schedule = scheduler::run(std::move(fns), pick);
  report.steps = report.schedule.size();

  // Terminal observations: once every logical thread has finished,
  // membership is quiescent; record it as contains ops timestamped
  // after everything else.
  for (const int k : sc.universe) rec.contains(k);
  const lincheck::history h = rec.take();

  report.validate_error = tree.validate();
  report.linearizable = lincheck::checker::is_linearizable(h, initial_state);
  if (sc.on_terminal) sc.on_terminal(tree);
  return report;
}

/// Aggregate of an exploration run. `first_failure` holds a replayable
/// description (trace, and seed where applicable) of the first failing
/// execution, empty when all executions were sound.
struct exploration_summary {
  std::size_t executions = 0;
  std::size_t failures = 0;
  bool exhausted = false;  // DFS only: the whole space was visited
  std::string first_failure;

  [[nodiscard]] bool all_ok() const { return failures == 0; }
};

/// Bounded exhaustive DFS over every interleaving of `sc`, up to
/// `max_executions`. Each execution is a distinct interleaving.
template <typename Tree>
exploration_summary explore_dfs(const scenario<Tree>& sc,
                                std::size_t max_executions) {
  dfs_explorer dfs(max_executions);
  exploration_summary sum;
  while (dfs.more()) {
    execution_report r = run_scenario(sc, dfs.strategy());
    dfs.commit(r.schedule);
    if (!r.ok()) {
      ++sum.failures;
      if (sum.first_failure.empty()) {
        sum.first_failure = "dfs execution #" +
                            std::to_string(dfs.executions()) + ": " +
                            r.describe();
      }
    }
  }
  sum.executions = dfs.executions();
  sum.exhausted = dfs.exhausted();
  return sum;
}

/// Runs `count` seeded random-walk executions (seeds base_seed,
/// base_seed+1, ...). A failure names the seed that reproduces it.
template <typename Tree>
exploration_summary explore_random(const scenario<Tree>& sc,
                                   std::uint64_t base_seed,
                                   std::size_t count) {
  exploration_summary sum;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    random_walk walk(seed);
    execution_report r = run_scenario(
        sc, [&walk](std::size_t s, std::uint32_t m) { return walk(s, m); });
    ++sum.executions;
    if (!r.ok()) {
      ++sum.failures;
      if (sum.first_failure.empty()) {
        sum.first_failure =
            "random walk seed " + std::to_string(seed) + ": " + r.describe();
      }
    }
  }
  return sum;
}

/// Runs `count` PCT executions with bug depth `depth` (seeds base_seed,
/// base_seed+1, ...). `expected_steps` tunes where the priority-change
/// points land; the first execution's observed length is a good value.
template <typename Tree>
exploration_summary explore_pct(const scenario<Tree>& sc,
                                std::uint64_t base_seed, std::size_t count,
                                unsigned depth,
                                std::uint64_t expected_steps = 0) {
  exploration_summary sum;
  const unsigned nthreads = static_cast<unsigned>(sc.threads.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    if (expected_steps == 0) expected_steps = 64;  // refined after run 1
    pct prio(seed, nthreads, depth, expected_steps);
    execution_report r = run_scenario(
        sc, [&prio](std::size_t s, std::uint32_t m) { return prio(s, m); });
    expected_steps = r.steps;
    ++sum.executions;
    if (!r.ok()) {
      ++sum.failures;
      if (sum.first_failure.empty()) {
        sum.first_failure =
            "pct seed " + std::to_string(seed) + " depth " +
            std::to_string(depth) + ": " + r.describe();
      }
    }
  }
  return sum;
}

}  // namespace lfbst::dsched
