// lfbst dsched: the instrumented atomics policy.
//
// Trees instantiated with this policy hand control to the deterministic
// scheduler before every shared-memory step (every tagged_word
// load/CAS/BTS):
//
//   using sched_tree = lfbst::nm_tree<long, std::less<long>,
//                                     lfbst::reclaim::leaky,
//                                     lfbst::stats::none, void,
//                                     lfbst::dsched::sched_atomics>;
//
// Outside a scheduled execution (scenario setup, teardown, assertions)
// schedule_point() is a no-op, so the same tree object can be populated
// sequentially and inspected after the exploration without ceremony.
#pragma once

#include "dsched/scheduler.hpp"

namespace lfbst::dsched {

struct sched_atomics {
  static constexpr const char* name = "dsched";
  static void shared_step() noexcept { schedule_point(); }
};

}  // namespace lfbst::dsched
