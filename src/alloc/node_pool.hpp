// lfbst: thread-local slab allocator for fixed-size tree nodes.
//
// Role in the reproduction: the paper links every implementation against
// TCMalloc because glibc malloc serializes multi-threaded allocation and
// would dominate the measurement (paper §4, "Experimental Setup"). This
// pool is our TCMalloc stand-in (DESIGN.md substitution table): each
// thread bump-allocates out of a private slab and recycles freed blocks
// through a private free list, so the allocation fast path is a handful
// of thread-local instructions and never contends.
//
// Slabs come from the process-wide slab_arena (alloc/slab_arena.hpp),
// which carves them out of 2 MiB-aligned chunks advised for transparent
// huge pages, as TCMalloc's own hugepage-aware allocator does. A deep
// descent through a large tree then pays one TLB entry per 2 MiB of
// nodes instead of one per 4 KiB. The destructor hands the slabs back
// to the arena, which keeps them for the life of the process: the next
// pool of the same slab size reuses them warm, and nothing returns to
// the OS.
//
// Properties the trees rely on:
//   * Blocks are `alignment`-aligned (16 bytes by default, 8 at the
//     least) up to a 4 KiB page — the NM-BST steals the low three
//     pointer bits, so 8-byte alignment is the hard floor, and its
//     bare-key set leaves ask for exactly that; k-ary nodes ask for 64.
//   * Blocks are never returned to the arena while the pool lives; with
//     the `leaky` reclaimer this gives the paper's "no memory
//     reclamation" regime while still freeing everything at tree
//     destruction (ASAN poisons the returned slabs, so a use after
//     destruction still faults).
//   * footprint_bytes() counts exactly the slabs this pool holds
//     (slabs x blocks_per_slab x block_size), not the arena's chunks, so
//     bytes-per-key figures keep their meaning.
//   * deallocate() may be called from any thread (epoch reclamation
//     frees from whichever thread flushes the limbo list).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "alloc/slab_arena.hpp"
#include "common/assert.hpp"
#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "common/thread_id.hpp"
#include "obs/trace.hpp"

namespace lfbst {

/// Fixed-block-size pool. `block_size` is fixed at construction; all
/// allocate() calls must request at most that size. A tree keeps one pool
/// per node size (nm_tree: one for leaves, one for internal nodes).
class node_pool {
 public:
  /// `block_size` is rounded up to `alignment` bytes (16 by default, 8
  /// at the least, which also fits the free list's link; node types
  /// pass alignof(node) to ask for more or less); `slab_bytes` is
  /// how much each thread grabs from the arena at a time. Arena slabs are
  /// page-aligned, and the block size being a multiple of `alignment`
  /// keeps every bump-allocated block aligned too. The default slab is
  /// one 4 KiB page: each thread that allocates holds at most one
  /// partly used slab per pool, so a pool's slack stays under a page per
  /// thread, and a process with many small trees (a sharded set of NM
  /// trees keeps two pools per shard) does not pay pools x threads x a
  /// large slab.
  /// The arena still serves those pages out of 2 MiB huge-page chunks.
  explicit node_pool(std::size_t block_size,
                     std::size_t slab_bytes = slab_arena::page_bytes,
                     std::size_t alignment = 16)
      : block_size_(round_up(block_size, alignment < 8 ? 8 : alignment)),
        blocks_per_slab_(slab_bytes / block_size_) {
    LFBST_ASSERT(blocks_per_slab_ > 0, "slab must fit at least one block");
    LFBST_ASSERT((alignment & (alignment - 1)) == 0,
                 "pool alignment must be a power of two");
    LFBST_ASSERT(alignment <= slab_arena::page_bytes,
                 "pool alignment exceeds the arena's page alignment");
  }

  node_pool(const node_pool&) = delete;
  node_pool& operator=(const node_pool&) = delete;

  ~node_pool() {
    for (void* slab : slabs_) {
      slab_arena::instance().release(slab, slab_size());
    }
  }

  /// Allocates one block. Fast path: pop the calling thread's free list
  /// or bump the thread's slab cursor; slow path: grab a new slab.
  void* allocate(std::size_t size) {
    LFBST_ASSERT(size <= block_size_, "request exceeds pool block size");
    (void)size;
    local_state& local = locals_[this_thread_index()].value;
    if (local.free_list != nullptr) {
      free_node* head = local.free_list;
      local.free_list = head->next;
      return head;
    }
    if (local.remaining == 0) refill(local);
    void* block = local.cursor;
    local.cursor += block_size_;
    --local.remaining;
    return block;
  }

  /// Returns a block to the calling thread's free list. Safe from any
  /// thread; the block simply migrates to the deallocator's list.
  void deallocate(void* block) noexcept {
    if (block == nullptr) return;
    local_state& local = locals_[this_thread_index()].value;
    auto* node = static_cast<free_node*>(block);
    node->next = local.free_list;
    local.free_list = node;
  }

  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

  /// Total bytes currently held in slabs (diagnostics; racy but
  /// monotone, good enough for memory-footprint reporting).
  [[nodiscard]] std::size_t footprint_bytes() const {
    std::lock_guard<spinlock> g(slabs_lock_);
    return slabs_.size() * slab_size();
  }

  /// Number of slab grabs (allocation slow paths) — src/obs/ telemetry.
  [[nodiscard]] std::uint64_t refill_count() const noexcept {
    return refill_count_.load(std::memory_order_relaxed);
  }

 private:
  struct free_node {
    free_node* next;
  };

  struct local_state {
    std::byte* cursor = nullptr;
    std::size_t remaining = 0;
    free_node* free_list = nullptr;
  };

  static constexpr std::size_t round_up(std::size_t v,
                                        std::size_t align) noexcept {
    return (v + align - 1) / align * align;
  }

  std::size_t slab_size() const noexcept {
    return blocks_per_slab_ * block_size_;
  }

  void refill(local_state& local) {
    auto* slab =
        static_cast<std::byte*>(slab_arena::instance().acquire(slab_size()));
    {
      std::lock_guard<spinlock> g(slabs_lock_);
      slabs_.push_back(slab);
    }
    refill_count_.fetch_add(1, std::memory_order_relaxed);
    // Refills happen once per blocks_per_slab_ allocations; the trace
    // branch is invisible next to the arena lock above.
    obs::emit_global(obs::event_type::pool_refill,
                     static_cast<std::uint32_t>(blocks_per_slab_));
    local.cursor = slab;
    local.remaining = blocks_per_slab_;
  }

  const std::size_t block_size_;
  const std::size_t blocks_per_slab_;

  mutable spinlock slabs_lock_;
  std::vector<void*> slabs_;
  std::atomic<std::uint64_t> refill_count_{0};

  padded<local_state> locals_[max_threads];
};

}  // namespace lfbst
