// Unit tests for the slab node pool and the slab arena under it:
// alignment (the NM tree steals three pointer bits, so < 8-byte alignment
// would corrupt edges; k-ary nodes need 64), reuse, cross-thread
// deallocate, footprint accounting, slab reuse across pool lifetimes,
// huge-page advice and ASan poisoning of destroyed pools.
#include "alloc/node_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace lfbst {
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
#endif

}  // namespace
}  // namespace lfbst
