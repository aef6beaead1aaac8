// lfbst: software prefetch hint for pointer-chasing descents.
//
// A BST seek is a dependent-load chain: each step's address comes from
// the previous step's load, so the hardware prefetcher cannot run
// ahead. Issuing an explicit prefetch for a just-loaded child address
// overlaps its cache/TLB miss with the remaining work of the current
// iteration (key compare, tag test, seek-record bookkeeping). The NM
// plain seek goes further and prefetches both children of a node before
// its key compare resolves, so the next level's miss starts as soon as
// this node's line arrives. The win is bounded by that overlap — a few
// cycles per level on a hot cache, more when the tree spills out of
// LLC — and it can never hurt
// correctness: prefetch is purely a hint with no memory-ordering
// effects, so it is safe to issue for any address, including nodes that
// a concurrent delete is about to excise.
#pragma once

namespace lfbst {

/// Read-only prefetch of the cache line holding `addr`, into all cache
/// levels. No-op where the builtin is unavailable; safe on any address.
inline void prefetch_ro(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

}  // namespace lfbst
