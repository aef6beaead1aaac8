// Tests for the restart-policy axis (core/restart_policy.hpp): anchor
// validation, local resume, root fallback, and the counter attribution
// that distinguishes them.
//
// The deterministic scenarios all use the degenerate right-spine shape
// that inserting {1, 2, 3} in ascending order produces:
//
//         𝕊 ── A(∞₀) ── B(2) ── C(3)
//                        │ \      │ \
//                  leaf(1) ..  leaf(2) leaf(3)
//
// A seek for 3 records (ancestor=B, successor=C, parent=C, leaf=leaf 3).
// Erasing 2 excises C (B.right swings to leaf 3) — the anchor edge
// changes address. A stalled delete of 1 tags B.right — the anchor edge
// becomes marked. Both must force the root fallback; an undisturbed
// anchor must not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "core/restart_policy.hpp"
#include "obs/metrics.hpp"
#include "reclaim/hazard_reclaimer.hpp"
#include "nm_test_access.hpp"

namespace lfbst {
namespace {

using access = nm_tree_test_access;

using hazard_anchor =
    nm_tree<int, std::less<int>, reclaim::hazard, stats::none, void,
            atomics::native, restart::from_anchor>;
using hazard_root =
    nm_tree<int, std::less<int>, reclaim::hazard, stats::none, void,
            atomics::native, restart::from_root>;
using recording_anchor =
    nm_tree<int, std::less<int>, reclaim::leaky, obs::recording, void,
            atomics::native, restart::from_anchor>;
using recording_root =
    nm_tree<int, std::less<int>, reclaim::leaky, obs::recording, void,
            atomics::native, restart::from_root>;

template <typename Tree>
void build_spine(Tree& t) {
  ASSERT_TRUE(t.insert(1));
  ASSERT_TRUE(t.insert(2));
  ASSERT_TRUE(t.insert(3));
}

// --- local resume ----------------------------------------------------

TEST(NmRestart, RetrySeekResumesLocallyWhenAnchorIntact) {
  recording_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  const auto rec = t.stats().counters().delta_across(
      [&] { access::retry_seek(t, 3, sr); });

  const auto fresh = access::seek(t, 3);
  EXPECT_TRUE(access::records_equal(sr, fresh));
  EXPECT_EQ(rec[obs::counter::seek_resumes_local], 1u);
  EXPECT_EQ(rec[obs::counter::seek_anchor_fallbacks], 0u);
}

TEST(NmRestart, AnchorHoldsOnUndisturbedRecord) {
  recording_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  EXPECT_TRUE(access::anchor_holds(t, 3, sr));
  EXPECT_TRUE(access::record_leaf_matches(t, 3, sr));
}

// --- root fallback: anchor edge swung to a different address ---------

TEST(NmRestart, RetrySeekFallsBackWhenAnchorExcised) {
  recording_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  // Erasing 2 excises internal node C: the recorded anchor edge
  // (B.right) now addresses leaf 3 directly, not the successor.
  ASSERT_TRUE(t.erase(2));
  const auto rec = t.stats().counters().delta_across(
      [&] { access::retry_seek(t, 3, sr); });

  EXPECT_TRUE(access::record_leaf_matches(t, 3, sr));
  EXPECT_EQ(rec[obs::counter::seek_resumes_local], 0u);
  EXPECT_EQ(rec[obs::counter::seek_anchor_fallbacks], 1u);
}

TEST(NmRestart, AnchorValidationRejectsExcisedEdge) {
  recording_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  ASSERT_TRUE(t.erase(2));
  EXPECT_FALSE(access::anchor_holds(t, 3, sr));
}

// --- root fallback: anchor edge marked by a concurrent delete --------

TEST(NmRestart, RetrySeekFallsBackWhenAnchorMarked) {
  recording_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  // A delete of 1 stalled between its BTS and its ancestor CAS leaves
  // B.left flagged and B.right — the recorded anchor edge for key 3 —
  // tagged. A marked edge is frozen and proves nothing about
  // reachability, so validation must reject it.
  ASSERT_TRUE(access::inject_stalled_delete_tagged(t, 1));
  const auto rec = t.stats().counters().delta_across(
      [&] { access::retry_seek(t, 3, sr); });

  EXPECT_TRUE(access::record_leaf_matches(t, 3, sr));
  // The fallback root seek walked through the tagged anchor edge, so
  // its record skips that region: successor ≠ parent.
  EXPECT_TRUE(access::record_skipped_tagged_region(sr));
  EXPECT_EQ(rec[obs::counter::seek_resumes_local], 0u);
  EXPECT_EQ(rec[obs::counter::seek_anchor_fallbacks], 1u);
}

// --- from_root: the retry path is a root seek by policy --------------

TEST(NmRestart, FromRootPolicyNeverTouchesAnchorCounters) {
  recording_root t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  ASSERT_TRUE(t.erase(2));
  const auto rec = t.stats().counters().delta_across(
      [&] { access::retry_seek(t, 3, sr); });

  EXPECT_TRUE(access::record_leaf_matches(t, 3, sr));
  EXPECT_EQ(rec[obs::counter::seek_resumes_local], 0u);
  EXPECT_EQ(rec[obs::counter::seek_anchor_fallbacks], 0u);
}

TEST(NmRestart, PoliciesAgreeOnSequentialHistory) {
  recording_anchor a;
  recording_root r;
  for (int k = 0; k < 64; k += 2) {
    EXPECT_EQ(a.insert(k), r.insert(k));
  }
  for (int k = 0; k < 64; k += 3) {
    EXPECT_EQ(a.erase(k), r.erase(k));
  }
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(a.contains(k), r.contains(k)) << k;
  }
  EXPECT_EQ(a.validate(), "");
  EXPECT_EQ(r.validate(), "");
}

// --- hazard reclamation: the protected anchored descent --------------

TEST(NmRestart, HazardRetrySeekResumesLocally) {
  hazard_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  access::retry_seek(t, 3, sr);
  const auto fresh = access::seek(t, 3);
  EXPECT_TRUE(access::records_equal(sr, fresh));
}

TEST(NmRestart, HazardRetrySeekFallsBackAfterExcision) {
  hazard_anchor t;
  build_spine(t);
  auto sr = access::seek(t, 3);
  // The excised successor stays protected by this thread's own
  // hp_successor announcement, so the validation load is safe even
  // though the node has been retired.
  ASSERT_TRUE(t.erase(2));
  access::retry_seek(t, 3, sr);
  EXPECT_TRUE(access::record_leaf_matches(t, 3, sr));
}

// --- contended runs: the counter algebra must hold exactly -----------
//
// Every attributed restart (injection_fail or cleanup_mode) is followed
// by exactly one seek_retry, which under from_anchor resolves to either
// a local resume or a root fallback — and to neither under from_root.

template <typename Tree>
void churn(Tree& t, unsigned threads, int keys, int iters) {
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < threads; ++i) {
    ts.emplace_back([&t, &go, keys, iters, i] {
      // Independent random streams over the same tiny key range: all
      // threads hammer the same few leaves, so injection CASes collide
      // and cleanups contend.
      pcg32 rng(0x2545f491u + i);
      while (!go.load(std::memory_order_acquire)) {}
      for (int n = 0; n < iters; ++n) {
        const int k = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(keys)));
        if (rng.bounded(2) != 0) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : ts) th.join();
}

TEST(NmRestart, ContendedCounterAlgebraFromAnchor) {
  recording_anchor t;
  churn(t, 4, 4, 20000);
  EXPECT_EQ(t.validate(), "");
  const auto s = t.stats().counters().snapshot();
  EXPECT_EQ(s[obs::counter::seek_restarts],
            s[obs::counter::restarts_injection_fail] +
                s[obs::counter::restarts_cleanup_mode]);
  EXPECT_EQ(s[obs::counter::seek_restarts],
            s[obs::counter::seek_resumes_local] +
                s[obs::counter::seek_anchor_fallbacks]);
}

TEST(NmRestart, ContendedCounterAlgebraFromRoot) {
  recording_root t;
  churn(t, 4, 4, 20000);
  EXPECT_EQ(t.validate(), "");
  const auto s = t.stats().counters().snapshot();
  EXPECT_EQ(s[obs::counter::seek_restarts],
            s[obs::counter::restarts_injection_fail] +
                s[obs::counter::restarts_cleanup_mode]);
  EXPECT_EQ(s[obs::counter::seek_resumes_local], 0u);
  EXPECT_EQ(s[obs::counter::seek_anchor_fallbacks], 0u);
}

// --- seek-depth attribution ------------------------------------------
//
// A from_anchor resume walks only the tail below the anchor, but the
// seek_depth histogram must report the *root-relative* path length —
// anchor base + tail — or attack-stream telemetry (and the perf gate
// built on it) would under-count exactly the deep seeks it exists to
// catch. seek_record::anchor_depth carries the base; these tests pin
// that it is seeded and summed, using a deep spine where the two
// answers differ by ~the whole tree height.

TEST(NmRestart, LocalResumeRecordsRootRelativeDepth) {
  recording_anchor t;
  constexpr int kSpine = 48;  // < 64 keeps histogram buckets exact
  for (int k = 1; k <= kSpine; ++k) ASSERT_TRUE(t.insert(k));
  auto sr = access::seek(t, kSpine);

  // Reference: the depth a fresh root seek of the same key records.
  const auto before = t.stats().seek_depth_histogram();
  (void)access::seek(t, kSpine);
  const auto mid = t.stats().seek_depth_histogram();
  const std::uint64_t root_depth = mid.delta_since(before).max();
  ASSERT_GE(root_depth, static_cast<std::uint64_t>(kSpine) - 2);

  // The resume must attribute the same depth, not just the short tail
  // below the anchor (the anchor sits a couple of edges above the
  // leaf, so a tail-only count would be ~2).
  const auto counters_before = t.stats().counters().snapshot();
  access::retry_seek(t, kSpine, sr);
  const auto counters_after = t.stats().counters().snapshot();
  ASSERT_EQ(counters_after[obs::counter::seek_resumes_local],
            counters_before[obs::counter::seek_resumes_local] + 1);

  const auto resumed = t.stats().seek_depth_histogram().delta_since(mid);
  EXPECT_EQ(resumed.count(), 1u);
  EXPECT_GE(resumed.max() + 2, root_depth);
}

TEST(NmRestart, RootFallbackRecordsFullDepth) {
  recording_anchor t;
  constexpr int kSpine = 48;
  for (int k = 1; k <= kSpine; ++k) ASSERT_TRUE(t.insert(k));
  auto sr = access::seek(t, kSpine);
  // Excise the anchor edge so the retry must fall back to a root seek;
  // the fallback traverses from ℝ and records accordingly.
  ASSERT_TRUE(t.erase(kSpine - 1));

  const auto before = t.stats().seek_depth_histogram();
  access::retry_seek(t, kSpine, sr);
  const auto counters = t.stats().counters().snapshot();
  EXPECT_GE(counters[obs::counter::seek_anchor_fallbacks], 1u);

  const auto fell_back = t.stats().seek_depth_histogram().delta_since(before);
  EXPECT_EQ(fell_back.count(), 1u);
  EXPECT_GE(fell_back.max() + 4, static_cast<std::uint64_t>(kSpine));
}

TEST(NmRestart, FromRootRetryRecordsFullDepth) {
  recording_root t;
  constexpr int kSpine = 48;
  for (int k = 1; k <= kSpine; ++k) ASSERT_TRUE(t.insert(k));
  auto sr = access::seek(t, kSpine);

  const auto before = t.stats().seek_depth_histogram();
  access::retry_seek(t, kSpine, sr);
  const auto retried = t.stats().seek_depth_histogram().delta_since(before);
  EXPECT_EQ(retried.count(), 1u);
  EXPECT_GE(retried.max() + 2, static_cast<std::uint64_t>(kSpine));
}

TEST(NmRestart, ContendedHazardSmokeBothPolicies) {
  {
    hazard_anchor t;
    churn(t, 4, 8, 10000);
    EXPECT_EQ(t.validate(), "");
  }
  {
    hazard_root t;
    churn(t, 4, 8, 10000);
    EXPECT_EQ(t.validate(), "");
  }
}

}  // namespace
}  // namespace lfbst
