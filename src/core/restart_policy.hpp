// lfbst: seek-restart policies for the NM-BST retry path.
//
// The conference version of Natarajan & Mittal restarts every failed
// modify operation with a fresh seek from the root ℝ. The full version
// observes that the seek record already carries the last untagged
// (ancestor → successor) edge of the previous attempt, and that this
// edge is a safe *anchor*: if it re-reads as clean and still addressing
// the successor, the ancestor has provably not been excised (a removed
// internal node always has both child edges marked before it becomes
// unreachable), so the retry may resume its descent from the successor
// instead of paying the full root-to-leaf path again. Under contention
// the retry path is where the operation spends its time, so shortening
// it is the paper's main contended-throughput lever (see also
// Chatterjee et al. and Aksenov et al. in PAPERS.md, which reach the
// same conclusion for their trees).
//
// The tree takes one of these policies as its `Restart` template
// parameter:
//
//   * restart::from_anchor (default) — validate the recorded anchor
//     edge on retry and resume locally; fall back to a root seek when
//     validation fails (edge marked, or swung away from the successor).
//   * restart::from_root — the conference paper's behavior: every retry
//     re-seeks from ℝ. Kept as the ablation / dsched reference and for
//     the Table 1 atomic-count pins.
//
// Both policies execute identical atomics on the uncontended path (the
// policy is only consulted after a failed CAS), so Table 1 counts are
// policy-independent. bench_micro_ops --json (study "restart_policy")
// and bench_ablation --study=contention quantify the contended difference;
// docs/PERF.md discusses it.
#pragma once

namespace lfbst::restart {

/// Conference-paper behavior: every retry seeks from the root.
struct from_root {
  static constexpr const char* name = "from_root";
  static constexpr bool resume_from_anchor = false;
};

/// Full-version behavior: retries re-validate the recorded
/// (ancestor → successor) edge and resume the descent there, falling
/// back to a root seek only when the anchor no longer holds.
struct from_anchor {
  static constexpr const char* name = "from_anchor";
  static constexpr bool resume_from_anchor = true;
};

}  // namespace lfbst::restart
