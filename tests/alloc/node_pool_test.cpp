// Unit tests for the slab node pool and the slab arena under it:
// alignment (the NM tree steals three pointer bits, so < 8-byte alignment
// would corrupt edges; k-ary nodes need 64), reuse, cross-thread
// deallocate and reuse of its frees, footprint accounting, slab reuse
// across pool lifetimes, huge-page advice and ASan poisoning of cached
// blocks and destroyed pools.
#include "alloc/node_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace lfbst {

// Reads the index of the open slab's next fresh block, and reaches the
// lock of the pool's central tier.
struct node_pool_test_access {
  static std::size_t open_index(const node_pool& pool) {
    return pool.open_.load(std::memory_order_relaxed) & node_pool::index_mask;
  }
  static spinlock& lock(node_pool& pool) { return pool.lock_; }
};

namespace {

TEST(NodePool, BlocksAreAtLeast16ByteAligned) {
  node_pool pool(24);
  for (int i = 0; i < 1000; ++i) {
    void* p = pool.allocate(24);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
  }
}

TEST(NodePool, BlockSizeRoundsUp) {
  node_pool pool(17);
  EXPECT_EQ(pool.block_size(), 32u);
}

TEST(NodePool, DistinctBlocksDoNotOverlap) {
  node_pool pool(32);
  std::vector<char*> blocks;
  for (int i = 0; i < 4096; ++i) {
    blocks.push_back(static_cast<char*>(pool.allocate(32)));
    std::memset(blocks.back(), i & 0xFF, 32);
  }
  // Writing a pattern into each block must not disturb any other block.
  for (int i = 0; i < 4096; ++i) {
    for (int b = 0; b < 32; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i][b]), i & 0xFF);
    }
  }
}

TEST(NodePool, DeallocatedBlocksAreReused) {
  node_pool pool(64);
  void* a = pool.allocate(64);
  pool.deallocate(a);
  void* b = pool.allocate(64);
  EXPECT_EQ(a, b);  // LIFO free list returns the same block
}

TEST(NodePool, DeallocateNullIsNoop) {
  node_pool pool(64);
  pool.deallocate(nullptr);
  SUCCEED();
}

TEST(NodePool, CrossThreadDeallocateIsSafe) {
  // One thread allocates, another frees, first reallocates: the block
  // migrates to the freeing thread's list and stays usable.
  node_pool pool(48);
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) blocks.push_back(pool.allocate(48));
  std::thread freer([&] {
    for (void* p : blocks) pool.deallocate(p);
    // This thread can now reuse them.
    for (int i = 0; i < 1000; ++i) {
      void* p = pool.allocate(48);
      std::memset(p, 0xAB, 48);
    }
  });
  freer.join();
  SUCCEED();
}

TEST(NodePool, CrossThreadFreesAreReused) {
  // Thread A allocates, thread B frees everything, then A allocates the
  // same number again: B's list keeps at most its cap and hands the rest
  // to the central stack, where A finds them before any new slab.
  constexpr int kBlocks = 100'000;
  node_pool pool(32);
  std::vector<void*> blocks;
  std::size_t first = 0, second = 0;
  std::thread a([&] {
    for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.allocate(32));
    first = pool.footprint_bytes();
    std::thread b([&] {
      for (void* p : blocks) pool.deallocate(p);
    });
    b.join();
    for (int i = 0; i < kBlocks; ++i) blocks[i] = pool.allocate(32);
    second = pool.footprint_bytes();
  });
  a.join();
  EXPECT_EQ(second, first);
  EXPECT_EQ(std::set<void*>(blocks.begin(), blocks.end()).size(),
            static_cast<std::size_t>(kBlocks));
}

// Runs closures one at a time on one long-lived thread, so the pool's
// per-thread state of that thread persists from call to call.
class worker {
 public:
  worker() : thread_([this] { loop(); }) {}
  ~worker() {
    start([this] { stop_ = true; });
    thread_.join();
  }
  /// Hands `fn` to the thread and returns at once.
  void start(std::function<void()> fn) {
    std::lock_guard<std::mutex> g(mu_);
    job_ = std::move(fn);
    cv_.notify_all();
  }
  /// Returns once the last started closure has run.
  void wait() {
    std::unique_lock<std::mutex> g(mu_);
    cv_.wait(g, [this] { return !job_; });
  }
  void run(std::function<void()> fn) {
    start(std::move(fn));
    wait();
  }

 private:
  void loop() {
    while (!stop_) {
      std::unique_lock<std::mutex> g(mu_);
      cv_.wait(g, [this] { return static_cast<bool>(job_); });
      g.unlock();
      job_();
      g.lock();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> job_;
  bool stop_ = false;  // written and read by the thread only
  std::thread thread_;
};

TEST(NodePool, RefillThatTakesALateBatchLeavesNoAddBehind) {
  // A producer allocates and a consumer frees, over slabs of one run.
  // Each round, with the pool's lock held, the producer runs dry while
  // the open slab is spent and the stack empty, and then the consumer
  // hands over a batch; on release the consumer, spinning for less time,
  // mostly takes the lock first, so the producer's refill takes that
  // late batch. It must not leave an add to the spent slab behind:
  // repeated, such adds would carry the open-slab index into the slab's
  // page number. With one refilling thread the index stays below one
  // slab plus two runs.
  constexpr std::size_t kBlock = 16, kBatch = node_pool::batch_blocks;
  constexpr int kRounds = 40;
  node_pool pool(kBlock, /*slab_bytes=*/kBlock * kBatch);
  worker producer, consumer;
  std::vector<void*> held;  // the producer's blocks
  const auto allocate = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) held.push_back(pool.allocate(kBlock));
  };
  const auto hand_over = [&](std::size_t n) {
    consumer.run([&, n] {
      for (std::size_t i = 0; i < n; ++i) {
        pool.deallocate(held.back());
        held.pop_back();
      }
    });
  };
  // Three spent slabs; the consumer's list is one free short of its cap.
  producer.run([&] { allocate(3 * kBatch); });
  hand_over(node_pool::cap_batches * kBatch);
  std::size_t max_index = 0;
  for (int round = 0; round < kRounds; ++round) {
    void* last = held.back();
    held.pop_back();
    spinlock& lock = node_pool_test_access::lock(pool);
    lock.lock();
    producer.start([&] { allocate(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    consumer.start([&] { pool.deallocate(last); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    lock.unlock();
    producer.wait();
    consumer.wait();
    max_index = std::max(max_index, node_pool_test_access::open_index(pool));
    // The consumer kept 1 + kBatch blocks. Drain the producer's list, run
    // and the stack, then bring the consumer back to one short of its cap.
    const std::size_t kept = kBatch + 1;
    producer.run([&] {
      allocate(pool.cached_blocks() - kept + pool.unbumped_blocks());
    });
    ASSERT_EQ(pool.cached_blocks(), kept);
    ASSERT_EQ(pool.unbumped_blocks(), 0u);
    hand_over(node_pool::cap_batches * kBatch - kept);
  }
  EXPECT_LT(max_index, 3 * kBatch);
}

TEST(NodePool, BlocksAreLiveCachedOrUnbumped) {
  // Every block of the held slabs is handed out, cached on a free list
  // (a thread's or the central stack) or never used.
  node_pool pool(24, slab_arena::page_bytes, /*alignment=*/8);
  std::vector<void*> live;
  for (int i = 0; i < 5000; ++i) live.push_back(pool.allocate(24));
  std::thread freer([&] {
    for (std::size_t i = 0; i < live.size(); i += 3) pool.deallocate(live[i]);
  });
  freer.join();
  std::size_t freed = 0;
  for (std::size_t i = 0; i < live.size(); i += 3, ++freed) live[i] = nullptr;
  EXPECT_EQ(pool.cached_blocks(), freed);
  const std::size_t held = live.size() - freed;
  EXPECT_EQ(pool.footprint_bytes() / pool.block_size(),
            held + pool.cached_blocks() + pool.unbumped_blocks());
  for (int i = 0; i < 100; ++i) live.push_back(pool.allocate(24));
  EXPECT_EQ(pool.footprint_bytes() / pool.block_size(),
            held + 100 + pool.cached_blocks() + pool.unbumped_blocks());
}

TEST(NodePool, ConcurrentAllocationProducesDistinctBlocks) {
  node_pool pool(32);
  constexpr int kThreads = 4, kPerThread = 20'000;
  std::vector<std::vector<void*>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &v = per_thread[t]] {
      v.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) v.push_back(pool.allocate(32));
    });
  }
  for (auto& t : threads) t.join();
  std::set<void*> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(NodePool, FootprintGrowsWithAllocations) {
  node_pool pool(64, /*slab_bytes=*/1 << 12);
  const std::size_t before = pool.footprint_bytes();
  for (int i = 0; i < 1000; ++i) pool.allocate(64);
  EXPECT_GT(pool.footprint_bytes(), before);
}

TEST(NodePool, SmallSlabStillWorks) {
  node_pool pool(64, /*slab_bytes=*/64);  // one block per slab
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  EXPECT_NE(a, b);
}

TEST(NodePool, AlignedPoolBlocksAre64ByteAligned) {
  // A k-ary-style node: 64-byte aligned, size not a multiple of 64, and
  // a slab size that is not a page multiple.
  struct alignas(64) node {
    char bytes[72];
  };
  node_pool pool(sizeof(node), /*slab_bytes=*/10'000, alignof(node));
  EXPECT_EQ(pool.block_size(), 128u);
  for (int i = 0; i < 1000; ++i) {
    void* p = pool.allocate(sizeof(node));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  }
}

TEST(NodePool, EightByteBlocksFillAPage) {
  // The NM-BST's set leaves: an 8-byte key, 8-byte aligned.
  node_pool pool(8, slab_arena::page_bytes, /*alignment=*/8);
  EXPECT_EQ(pool.block_size(), 8u);
  std::set<std::uintptr_t> blocks;
  for (std::size_t i = 0; i < slab_arena::page_bytes / 8; ++i) {
    const auto p = reinterpret_cast<std::uintptr_t>(pool.allocate(8));
    EXPECT_EQ(p % 8, 0u);
    blocks.insert(p);
  }
  EXPECT_EQ(blocks.size(), 512u);
  EXPECT_EQ(pool.footprint_bytes(), slab_arena::page_bytes);
  EXPECT_EQ(*blocks.rbegin() - *blocks.begin(), slab_arena::page_bytes - 8);
  void* freed = reinterpret_cast<void*>(*blocks.begin());
  pool.deallocate(freed);
  EXPECT_EQ(pool.allocate(8), freed);
  EXPECT_EQ(pool.footprint_bytes(), slab_arena::page_bytes);
}

TEST(NodePool, LaterPoolReusesDestroyedPoolsSlabs) {
  // A slab size no other test uses, so the arena's free list for it holds
  // exactly the first pool's slabs.
  constexpr std::size_t kBlock = 64, kSlab = 5 * 4096;
  constexpr int kBlocks = 3 * static_cast<int>(kSlab / kBlock);
  std::set<void*> first_blocks;
  std::size_t first_footprint = 0;
  {
    node_pool first(kBlock, kSlab);
    for (int i = 0; i < kBlocks; ++i) {
      first_blocks.insert(first.allocate(kBlock));
    }
    first_footprint = first.footprint_bytes();
  }
  EXPECT_EQ(first_footprint, 3 * kSlab);
  node_pool second(kBlock, kSlab);
  for (int i = 0; i < kBlocks; ++i) {
    void* p = second.allocate(kBlock);
    EXPECT_EQ(first_blocks.count(p), 1u) << "block " << i << " is not reused";
    std::memset(p, 0x5A, kBlock);
  }
  // The pool counts the slabs it holds, not the arena's chunks.
  EXPECT_EQ(second.footprint_bytes(), first_footprint);
}

TEST(NodePool, ConcurrentPoolLifecyclesGetDistinctBlocks) {
  // Eight threads create, fill and destroy pools of one slab size at
  // once, so slabs move between threads through the arena. Each thread
  // stamps its blocks and checks the stamps before destroying its pool:
  // a slab handed to two live pools would show another thread's stamp.
  constexpr int kThreads = 8, kRounds = 20, kBlocks = 600;
  std::vector<std::thread> threads;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &bad] {
      for (int round = 0; round < kRounds; ++round) {
        node_pool pool(32, /*slab_bytes=*/4096);
        std::vector<std::uint64_t*> blocks;
        const std::uint64_t stamp = (static_cast<std::uint64_t>(t) << 32) |
                                    static_cast<std::uint64_t>(round);
        for (int i = 0; i < kBlocks; ++i) {
          auto* p = static_cast<std::uint64_t*>(pool.allocate(32));
          p[0] = stamp;
          p[1] = static_cast<std::uint64_t>(i);
          blocks.push_back(p);
        }
        for (int i = 0; i < kBlocks; ++i) {
          if (blocks[i][0] != stamp ||
              blocks[i][1] != static_cast<std::uint64_t>(i)) {
            ++bad[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
}

/// The `THPeligible:` field of the /proc/self/smaps mapping holding `p`,
/// or "" when no mapping or field is found.
std::string thp_eligible_of(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= addr && addr < hi;
      continue;
    }
    if (inside && line.rfind("THPeligible:", 0) == 0) {
      std::istringstream field(line.substr(12));
      std::string value;
      field >> value;
      return value;
    }
  }
  return "";
}

TEST(NodePool, SlabsAreAdvisedForHugePages) {
  std::ifstream mode_file("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  if (!std::getline(mode_file, mode) ||
      mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are off or unsupported";
  }
  node_pool pool(32);
  void* block = pool.allocate(32);
  const std::string eligible = thp_eligible_of(block);
  if (eligible.empty()) GTEST_SKIP() << "kernel reports no THPeligible field";
  EXPECT_EQ(eligible, "1") << "THP mode: " << mode;
}

#ifdef LFBST_ARENA_ASAN  // set, with the ASan interface, by slab_arena.hpp
TEST(NodePool, DestroyedPoolsBlocksArePoisoned) {
  void* block = nullptr;
  {
    node_pool pool(64);
    block = pool.allocate(64);
    EXPECT_FALSE(__asan_address_is_poisoned(block));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  // The next pool of that slab size gets the slab back usable.
  node_pool next(64);
  void* reused = next.allocate(64);
  EXPECT_FALSE(__asan_address_is_poisoned(reused));
}

TEST(NodePool, CachedBlocksArePoisoned) {
  node_pool pool(64);
  void* block = pool.allocate(64);
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  pool.deallocate(block);
  // The whole block, link word included, faults while it is cached.
  EXPECT_EQ(__asan_region_is_poisoned(block, 64), block);
  EXPECT_EQ(pool.allocate(64), block);
  EXPECT_EQ(__asan_region_is_poisoned(block, 64), nullptr);
  // A batch that moves through the central stack stays poisoned too.
  std::vector<void*> blocks;
  for (std::size_t i = 0; i <= 3 * node_pool::batch_blocks; ++i) {
    blocks.push_back(pool.allocate(64));
  }
  std::thread freer([&] {
    for (void* p : blocks) pool.deallocate(p);
  });
  freer.join();
  for (void* p : blocks) {
    EXPECT_EQ(__asan_region_is_poisoned(p, 64), p);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    void* p = pool.allocate(64);
    EXPECT_EQ(__asan_region_is_poisoned(p, 64), nullptr);
    std::memset(p, 0x5A, 64);
  }
}
#endif

}  // namespace
}  // namespace lfbst
