// lfbst: two-tier slab allocator for fixed-size tree nodes.
//
// Role in the reproduction: the paper links every implementation against
// TCMalloc because glibc malloc serializes multi-threaded allocation and
// would dominate the measurement (paper §4, "Experimental Setup"). This
// pool is our TCMalloc stand-in (DESIGN.md substitution table) and keeps
// TCMalloc's two cache tiers for its one size class:
//
//   * Thread tier. Each thread keeps a free list with a count, and a
//     *run* of at most one batch of fresh, never-used blocks. allocate()
//     pops the list or else bumps the run; deallocate() pushes onto the
//     caller's list. Both are a few thread-local instructions with no
//     lock and no atomic. A list that grows past `cap_batches` batches
//     hands one batch to the central tier.
//   * Central tier, one per pool: a stack of `batch_blocks`-block
//     batches and the pool's one open slab. A thread whose list and run
//     are both empty takes a batch, or else carves a fresh run from the
//     open slab with one atomic add; only a spent open slab fetches a new
//     slab from the arena. The stack and the slab fetch sit behind a
//     spinlock that only these slow paths take.
//
// A block freed on one thread is therefore reused by the others (epoch
// reclamation frees on whichever thread flushes, so a thread that only
// inserts would otherwise refill from the arena for ever), and a pool's
// slack is one open slab plus, per thread, at most `cap_batches` batches
// and one run. No thread owns a slab.
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
//     destruction still faults). Under ASAN a block is also poisoned
//     from deallocate() until it is handed out again, so a read of a
//     freed node faults at the reader.
//   * footprint_bytes() counts exactly the slabs this pool holds
//     (slabs x blocks_per_slab x block_size), not the arena's chunks, so
//     bytes-per-key figures keep their meaning. At quiescence every
//     block of those slabs is live, cached (cached_blocks()) or
//     unbumped (unbumped_blocks()).
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
  /// Blocks in a batch moved between the tiers, and the most a fresh run
  /// holds.
  static constexpr std::size_t batch_blocks = 32;
  /// A thread's free list hands one batch to the central stack when it
  /// grows past this many batches.
  static constexpr std::size_t cap_batches = 2;

  /// `block_size` is rounded up to `alignment` bytes (16 by default, 8
  /// at the least, which also fits the free list's link; node types
  /// pass alignof(node) to ask for more or less); `slab_bytes` is how
  /// much the pool grabs from the arena at a time. Arena slabs are
  /// page-aligned, and the block size being a multiple of `alignment`
  /// keeps every carved block aligned too. The default slab is one
  /// 4 KiB page: a pool holds one open slab, so a process with many
  /// small trees (a sharded set of NM trees keeps two pools per shard)
  /// does not pay pools x a large slab.
  /// The arena still serves those pages out of 2 MiB huge-page chunks.
  explicit node_pool(std::size_t block_size,
                     std::size_t slab_bytes = slab_arena::page_bytes,
                     std::size_t alignment = 16)
      : block_size_(round_up(block_size, alignment < 8 ? 8 : alignment)),
        blocks_per_slab_(slab_bytes / block_size_),
        open_(blocks_per_slab_) {
    LFBST_ASSERT(blocks_per_slab_ > 0, "slab must fit at least one block");
    LFBST_ASSERT(blocks_per_slab_ + (max_threads + 1) * batch_blocks <=
                     index_mask,
                 "slab holds too many blocks for the open-slab word");
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
  /// or bump its run; slow path: take a batch or a fresh run from the
  /// central tier.
  void* allocate(std::size_t size) {
    LFBST_ASSERT(size <= block_size_, "request exceeds pool block size");
    (void)size;
    local_state& local = locals_[this_thread_index()].value;
    if (local.free_list != nullptr) return pop(local);
    if (local.remaining == 0 && refill(local)) return pop(local);
    void* block = local.cursor;
    local.cursor += block_size_;
    --local.remaining;
    return block;
  }

  /// Returns a block to the calling thread's free list. Safe from any
  /// thread; a list past `cap_batches` batches hands its newest batch to
  /// the central stack, where any thread's allocate() can take it.
  void deallocate(void* block) noexcept {
    if (block == nullptr) return;
    local_state& local = locals_[this_thread_index()].value;
    auto* node = static_cast<free_node*>(block);
    node->next = local.free_list;
    poison(node, block_size_);
    local.free_list = node;
    if (++local.free_count > cap_batches * batch_blocks) release_batch(local);
  }

  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

  /// Total bytes currently held in slabs (diagnostics; racy but
  /// monotone, good enough for memory-footprint reporting).
  [[nodiscard]] std::size_t footprint_bytes() const {
    std::lock_guard<spinlock> g(lock_);
    return slabs_.size() * slab_size();
  }

  /// Number of slabs taken from the arena — src/obs/ telemetry.
  [[nodiscard]] std::uint64_t refill_count() const noexcept {
    return refill_count_.load(std::memory_order_relaxed);
  }

  /// Freed blocks waiting for reuse: every thread's free list plus the
  /// central batch stack. Exact only at quiescence (no thread allocates
  /// or frees meanwhile).
  [[nodiscard]] std::size_t cached_blocks() const {
    std::size_t n = 0;
    for (const auto& local : locals_) n += local.value.free_count;
    return n + batch_count_.load(std::memory_order_relaxed) * batch_blocks;
  }

  /// Never-used blocks of the held slabs: every thread's run plus the
  /// rest of the open slab. Exact only at quiescence.
  [[nodiscard]] std::size_t unbumped_blocks() const {
    std::size_t n = 0;
    for (const auto& local : locals_) n += local.value.remaining;
    const std::size_t next = open_.load(std::memory_order_relaxed) & index_mask;
    return n + (next < blocks_per_slab_ ? blocks_per_slab_ - next : 0);
  }

 private:
  struct free_node {
    free_node* next;
  };

  struct local_state {
    free_node* free_list = nullptr;
    std::size_t free_count = 0;
    std::byte* cursor = nullptr;  // the run: `remaining` fresh blocks
    std::size_t remaining = 0;
  };

  // The open slab is one word, the slab's page number above the index of
  // its next fresh block, so one fetch_add carves a run. refill() adds
  // only to a slab it saw unspent, so while one slab is open the index
  // stays below blocks_per_slab_ + (max_threads + 1) x batch_blocks: the
  // last carving add, then at most one add past the end per thread. The
  // index bits leave room for that, so an add never carries into the page.
  static constexpr unsigned index_bits = 20;
  static constexpr std::uint64_t index_mask =
      (std::uint64_t{1} << index_bits) - 1;
  static constexpr unsigned page_shift = 12;
  static_assert(slab_arena::page_bytes == std::size_t{1} << page_shift);

  static constexpr std::size_t round_up(std::size_t v,
                                        std::size_t align) noexcept {
    return (v + align - 1) / align * align;
  }

  // A cached block stays poisoned under ASan; the pool's own link
  // accesses open only the link word, and only while they touch it.
  static void poison(void* p, std::size_t bytes) noexcept {
#ifdef LFBST_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(p, bytes);
#else
    (void)p, (void)bytes;
#endif
  }
  static void unpoison(void* p, std::size_t bytes) noexcept {
#ifdef LFBST_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
    (void)p, (void)bytes;
#endif
  }
  static free_node* link_of(free_node* node) noexcept {
    unpoison(node, sizeof(free_node));
    free_node* next = node->next;
    poison(node, sizeof(free_node));
    return next;
  }

  std::size_t slab_size() const noexcept {
    return blocks_per_slab_ * block_size_;
  }

  void* pop(local_state& local) noexcept {
    free_node* head = local.free_list;
    unpoison(head, block_size_);
    local.free_list = head->next;
    --local.free_count;
    return head;
  }

  /// Moves the list's newest `batch_blocks` blocks to the central stack.
  void release_batch(local_state& local) noexcept {
    free_node* head = local.free_list;
    free_node* tail = head;
    for (std::size_t i = 1; i < batch_blocks; ++i) tail = link_of(tail);
    unpoison(tail, sizeof(free_node));
    local.free_list = tail->next;
    tail->next = nullptr;
    poison(tail, sizeof(free_node));
    local.free_count -= batch_blocks;
    std::lock_guard<spinlock> g(lock_);
    batches_.push_back(head);  // capacity reserved by open_slab()
    batch_count_.store(batches_.size(), std::memory_order_relaxed);
  }

  /// Slow path of allocate(), for a thread whose list and run are both
  /// empty. Takes a batch from the central stack (returns true), or else
  /// carves a fresh run from the open slab (returns false). A new slab is
  /// opened only under the lock, with the stack empty.
  bool refill(local_state& local) {
    if (batch_count_.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<spinlock> g(lock_);
      if (take_batch(local)) return true;
    }
    for (;;) {
      // Add only to a slab seen unspent: the index only grows until the
      // slab is replaced, so each thread adds past its end at most once.
      std::uint64_t word = open_.load(std::memory_order_acquire);
      if ((word & index_mask) < blocks_per_slab_) {
        word = open_.fetch_add(batch_blocks, std::memory_order_acq_rel);
        const std::size_t next = word & index_mask;
        if (next < blocks_per_slab_) {
          auto* slab =
              reinterpret_cast<std::byte*>((word >> index_bits) << page_shift);
          const std::size_t left = blocks_per_slab_ - next;
          local.cursor = slab + next * block_size_;
          local.remaining = left < batch_blocks ? left : batch_blocks;
          return false;
        }
      }
      std::lock_guard<spinlock> g(lock_);
      if (take_batch(local)) return true;
      // The slab is spent; open the next one unless a thread already has.
      if ((open_.load(std::memory_order_relaxed) >> index_bits) ==
          (word >> index_bits)) {
        open_slab();
      }
    }
  }

  /// Moves a batch from the central stack to the thread's empty list.
  /// Caller holds lock_.
  bool take_batch(local_state& local) {
    if (batches_.empty()) return false;
    local.free_list = batches_.back();
    batches_.pop_back();
    batch_count_.store(batches_.size(), std::memory_order_relaxed);
    local.free_count = batch_blocks;
    return true;
  }

  /// Replaces the spent open slab with a new one from the arena. Caller
  /// holds lock_.
  void open_slab() {
    auto* slab =
        static_cast<std::byte*>(slab_arena::instance().acquire(slab_size()));
    slabs_.push_back(slab);
    // Room for every block of every slab in batches, so release_batch()
    // never allocates.
    const std::size_t batches = slabs_.size() * blocks_per_slab_ / batch_blocks;
    if (batches_.capacity() < batches) batches_.reserve(2 * batches);
    refill_count_.fetch_add(1, std::memory_order_relaxed);
    // One slab grab per blocks_per_slab_ fresh blocks; the trace branch
    // is invisible next to the arena lock above.
    obs::emit_global(obs::event_type::pool_refill,
                     static_cast<std::uint32_t>(blocks_per_slab_));
    const auto page = reinterpret_cast<std::uint64_t>(slab) >> page_shift;
    LFBST_ASSERT(page >> (64 - index_bits) == 0,
                 "slab address does not fit the open-slab word");
    open_.store(page << index_bits, std::memory_order_release);
  }

  const std::size_t block_size_;
  const std::size_t blocks_per_slab_;

  // Central tier. lock_ guards slabs_ and batches_; open_ is written
  // under it and carved without it.
  mutable spinlock lock_;
  std::vector<void*> slabs_;
  std::vector<free_node*> batches_;  // each a null-terminated list
  std::atomic<std::size_t> batch_count_{0};  // batches_.size()
  std::atomic<std::uint64_t> open_;          // page number | next index
  std::atomic<std::uint64_t> refill_count_{0};

  padded<local_state> locals_[max_threads];

  friend struct node_pool_test_access;
};

}  // namespace lfbst
