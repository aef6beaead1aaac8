// lfbst dsched: a cooperative deterministic scheduler for schedule
// exploration of the lock-free trees.
//
// Problem: the NM-BST's correctness hangs on narrow interleavings — a
// helper finishing a stalled delete's cleanup, two deletes racing for
// the same injection edge, an insert CAS landing between a delete's flag
// CAS and its tag BTS (PAPER.md §3.3–3.4). Wall-clock stress tests only
// stumble into these windows probabilistically; dsched makes them a
// deterministic, replayable function of a seed or a choice sequence.
//
// Model: N *logical* threads execute under the control of one
// coordinator, with at most one logical thread running at any instant.
// Each logical thread is a ucontext fiber with its own fixed-size stack
// (guard page below it) on the coordinator's OS thread: the coordinator
// swapcontext()s into the fiber the strategy picks, and schedule_point()
// swaps back. Every shared-memory primitive of a tree built with the
// dsched::sched_atomics policy calls schedule_point(). The coordinator
// asks a *strategy* which runnable thread performs the next
// shared-memory step. The sequence of choices is the *trace*; scheduling
// is the only source of nondeterminism in a scenario, so trace ⇒
// execution, exactly.
//
// Identity: every fiber holds its own slot of the thread slot table
// (common/thread_id.hpp), installed as this_thread_index() while it runs,
// so node pools, epoch records, hazard slots, metric stripes and
// sharded_set's gate stripes see N distinct threads, exactly as they
// would see N OS threads. The coordinator's own index is restored after
// every switch.
//
// Sanitizers: every switch carries TSan's fiber annotations (a switch
// synchronizes, like the hand-off of a lock) and ASan's stack-switch
// annotations, so both sanitizers audit the scenarios.
//
// Granularity: one step = the code between two schedule points — i.e.
// exactly one shared-memory access (one tagged_word load/CAS/BTS) plus
// the thread-local computation around it. This is the same atomicity the
// hardware provides, so every interleaving dsched can produce is a real
// interleaving and vice versa (modulo weak-memory reorderings, which the
// NM proof does not rely on — see docs/DSCHED.md).
//
// Progress: because the trees are lock-free, a thread never blocks
// between schedule points; any strategy choice sequence terminates. A
// step budget guards against runaway scenarios that keep hitting
// schedule points: when it blows, the unfinished logical threads are
// run round-robin, one step each in turn, until all have finished, and
// run() throws. Schedule points keep switching during that drain, so a
// thread that spins on another's progress (sharded_set's quiescence
// wait) still lets it move. Scripts must terminate under a fair
// schedule — every finite sequence of lock-free tree operations does.
#pragma once

#include <sys/mman.h>
#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_id.hpp"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace lfbst::dsched {

/// One scheduling decision: which logical thread ran, and which were
/// runnable when it was chosen (the branch set — what DFS backtracks
/// over).
struct choice {
  unsigned chosen;
  std::uint32_t runnable;  // bitmask over logical thread ids
};

/// The full decision sequence of one execution. Feeding the same trace
/// back through a replay strategy reproduces the execution exactly.
using trace = std::vector<choice>;

/// Renders a trace as the compact string printed on failure, e.g.
/// "0:3 1:3 1:2 0:1" (chosen:runnable per step). Replay parses this.
inline std::string format_trace(const trace& t) {
  std::string out;
  for (const choice& c : t) {
    if (!out.empty()) out += ' ';
    out += std::to_string(c.chosen) + ':' + std::to_string(c.runnable);
  }
  return out;
}

class scheduler;

namespace detail {
/// The scheduler whose logical thread is running on the calling OS
/// thread, if any. Null in the coordinator and in unmanaged code, where
/// schedule_point() is a no-op — so scenario setup/teardown can call
/// tree operations freely.
inline thread_local scheduler* tl_scheduler = nullptr;
}  // namespace detail

/// Returns control from the calling logical thread to the coordinator
/// until the strategy schedules it again. Called by dsched::sched_atomics
/// before every shared-memory step; a no-op outside a logical thread.
void schedule_point() noexcept;

/// Runs N logical threads to completion under a strategy. One instance
/// per execution; not reusable.
class scheduler {
 public:
  using thread_fn = std::function<void()>;
  /// Strategy signature: (step index, runnable mask) -> chosen tid. The
  /// returned tid must have its bit set in the mask.
  using strategy_fn = std::function<unsigned(std::size_t, std::uint32_t)>;

  static constexpr unsigned max_logical_threads = 32;
  /// Usable stack of a logical thread, above a PROT_NONE guard page.
  /// Scenarios use under 9 KiB even under ASan, whose swapcontext hook
  /// clears the whole target stack's shadow at each switch.
  static constexpr std::size_t stack_bytes = std::size_t{256} << 10;

  /// Runs `fns` to completion, consulting `pick` at every schedule
  /// point. Returns the trace. Throws std::runtime_error if the step
  /// budget is exhausted (a scenario that never terminates — e.g. a
  /// lock-based tree — or a runaway strategy).
  static trace run(std::vector<thread_fn> fns, const strategy_fn& pick,
                   std::size_t max_steps = 1u << 20) {
    scheduler s(std::move(fns));
    return s.execute(pick, max_steps);
  }

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

 private:
  friend void schedule_point() noexcept;

  static constexpr std::size_t guard_bytes = 4096;

  /// Where a logical thread runs: a stack (guard page below it), its
  /// ucontext and its sanitizer fiber state. A context runs one script
  /// after another, suspending after each, and is kept per OS thread for
  /// later executions: a fresh one costs an mmap, page faults and, under
  /// TSan, ~0.6 ms to create — more than most executions.
  struct context {
    ucontext_t uc{};
    char* mapping = nullptr;
    void* tsan = nullptr;
    void* asan_fake_stack = nullptr;

    context() {
      void* m = mmap(nullptr, guard_bytes + stack_bytes,
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      LFBST_ASSERT(m != MAP_FAILED, "dsched: fiber stack mmap failed");
      mapping = static_cast<char*>(m);
      const int guarded = mprotect(mapping, guard_bytes, PROT_NONE);
      LFBST_ASSERT(guarded == 0, "dsched: guard page mprotect failed");
      getcontext(&uc);
      uc.uc_stack.ss_sp = mapping + guard_bytes;
      uc.uc_stack.ss_size = stack_bytes;
      uc.uc_link = nullptr;  // fiber_main never returns
      makecontext(&uc, &scheduler::fiber_main, 0);
#if defined(__SANITIZE_THREAD__)
      tsan = __tsan_create_fiber(0);
#endif
    }
    context(const context&) = delete;
    context& operator=(const context&) = delete;
    ~context() {
#if defined(__SANITIZE_THREAD__)
      __tsan_destroy_fiber(tsan);
#endif
#if defined(__SANITIZE_ADDRESS__)
      // The context's frames never return; clear their redzones before
      // the pages can be mapped again.
      ASAN_UNPOISON_MEMORY_REGION(mapping + guard_bytes, stack_bytes);
#endif
      munmap(mapping, guard_bytes + stack_bytes);
    }
  };

  /// Idle contexts of the calling OS thread.
  static std::vector<std::unique_ptr<context>>& idle_contexts() {
    thread_local std::vector<std::unique_ptr<context>> idle;
    return idle;
  }

  struct fiber {
    thread_fn fn;
    std::unique_ptr<context> ctx;
    unsigned slot = 0;  // thread slot table index
    bool finished = false;
  };

  explicit scheduler(std::vector<thread_fn> fns) : fibers_(fns.size()) {
    LFBST_ASSERT(!fns.empty() && fns.size() <= max_logical_threads,
                 "1..32 logical threads");
    auto& idle = idle_contexts();
    for (std::size_t i = 0; i < fns.size(); ++i) {
      fiber& f = fibers_[i];
      f.fn = std::move(fns[i]);
      if (idle.empty()) {
        f.ctx = std::make_unique<context>();
      } else {
        f.ctx = std::move(idle.back());
        idle.pop_back();
      }
      f.slot = lfbst::detail::thread_slot_table::instance().acquire();
    }
  }

  ~scheduler() {
    for (fiber& f : fibers_) {
      // Only a finished script's context is idle; one left mid-script
      // (the strategy threw) is unmapped instead.
      if (f.finished) idle_contexts().push_back(std::move(f.ctx));
      lfbst::detail::thread_slot_table::instance().release(f.slot);
    }
  }

  trace execute(const strategy_fn& pick, std::size_t max_steps) {
    const unsigned n = static_cast<unsigned>(fibers_.size());
    trace out;
    for (std::size_t step = 0;; ++step) {
      const std::uint32_t runnable = runnable_mask();
      if (runnable == 0) return out;
      if (step >= max_steps) break;
      const unsigned tid = pick(step, runnable);
      LFBST_ASSERT(tid < n && (runnable & (1u << tid)) != 0,
                   "strategy chose a non-runnable thread");
      out.push_back({tid, runnable});
      resume(tid);
    }
    // Budget blown: drain the unfinished threads round-robin.
    while (runnable_mask() != 0) {
      for (unsigned tid = 0; tid < n; ++tid) {
        if (!fibers_[tid].finished) resume(tid);
      }
    }
    throw std::runtime_error(
        "dsched: step budget exhausted — scenario does not terminate "
        "under cooperative scheduling (blocking synchronization?)");
  }

  /// Coordinator side: run logical thread `tid` until its next schedule
  /// point or its end, under its own thread index.
  void resume(unsigned tid) {
    context& c = *fibers_[tid].ctx;
    unsigned& index = lfbst::detail::thread_index_slot();
    const unsigned own_index = index;
    index = fibers_[tid].slot;
    running_ = tid;
    detail::tl_scheduler = this;
#if defined(__SANITIZE_THREAD__)
    coordinator_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(c.tsan, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, c.mapping + guard_bytes,
                                   stack_bytes);
#endif
    swapcontext(&coordinator_, &c.uc);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    detail::tl_scheduler = nullptr;
    index = own_index;
  }

  /// Logical thread side: hand control back to the coordinator. Returns
  /// when this context is resumed, possibly by a later execution.
  static void suspend(context& c) {
    scheduler* s = detail::tl_scheduler;
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(s->coordinator_tsan_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&c.asan_fake_stack, s->coordinator_stack_,
                                   s->coordinator_size_);
#endif
    swapcontext(&c.uc, &s->coordinator_);
    switched_in(c);
  }

  /// First thing a context runs after every switch into it.
  static void switched_in([[maybe_unused]] context& c) {
#if defined(__SANITIZE_ADDRESS__)
    scheduler* s = detail::tl_scheduler;
    __sanitizer_finish_switch_fiber(c.asan_fake_stack, &s->coordinator_stack_,
                                    &s->coordinator_size_);
#endif
  }

  /// Body of every context: run the script of whichever execution
  /// resumed it, then suspend until one does again. noexcept: a script's
  /// exception cannot unwind into the coordinator's stack.
  static void fiber_main() noexcept {
    scheduler* s = detail::tl_scheduler;
    switched_in(*s->fibers_[s->running_].ctx);
    for (;;) {
      s = detail::tl_scheduler;
      fiber& f = s->fibers_[s->running_];
      f.fn();
      f.finished = true;
      suspend(*f.ctx);
    }
  }

  [[nodiscard]] std::uint32_t runnable_mask() const {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      if (!fibers_[i].finished) mask |= 1u << i;
    }
    return mask;
  }

  std::vector<fiber> fibers_;
  ucontext_t coordinator_{};
  unsigned running_ = 0;
  void* coordinator_tsan_ = nullptr;
  const void* coordinator_stack_ = nullptr;
  std::size_t coordinator_size_ = 0;
};

inline void schedule_point() noexcept {
  if (scheduler* s = detail::tl_scheduler) {
    scheduler::suspend(*s->fibers_[s->running_].ctx);
  }
}

}  // namespace lfbst::dsched
