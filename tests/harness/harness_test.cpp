// Tests for the measurement harness itself: mix arithmetic,
// pre-population, counter plumbing, determinism of workload streams, and
// the table formatter. A benchmark harness with a bug produces
// confident-looking garbage, so it gets the same testing as the trees.
#include <gtest/gtest.h>

#include <string>

#include "harness/algorithms.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "lfbst/lfbst.hpp"

namespace lfbst::harness {
namespace {

TEST(Workload, PaperMixesSumTo100) {
  for (const op_mix& m : paper_mixes) {
    EXPECT_EQ(m.search_pct + m.insert_pct + m.erase_pct, 100u) << m.name;
  }
}

TEST(Workload, MixByNameRoundTrips) {
  EXPECT_EQ(mix_by_name("write-dominated").insert_pct, 50u);
  EXPECT_EQ(mix_by_name("mixed").search_pct, 70u);
  EXPECT_EQ(mix_by_name("read-dominated").search_pct, 90u);
  EXPECT_EQ(mix_by_name("nonsense").search_pct, mixed.search_pct);
}

TEST(Workload, LabelIsHumanReadable) {
  workload_config cfg;
  cfg.key_range = 1000;
  cfg.mix = write_dominated;
  cfg.threads = 8;
  EXPECT_NE(cfg.label().find("write-dominated"), std::string::npos);
  EXPECT_NE(cfg.label().find("1000"), std::string::npos);
  EXPECT_NE(cfg.label().find("8"), std::string::npos);
}

TEST(Runner, PrepopulateReachesHalfRange) {
  nm_tree<long> t;
  prepopulate_half(t, 1000, /*seed=*/1);
  EXPECT_EQ(t.size_slow(), 500u);
  EXPECT_EQ(t.validate(), "");
}

TEST(Runner, PrepopulateIsDeterministic) {
  nm_tree<long> a, b;
  prepopulate_half(a, 500, 7);
  prepopulate_half(b, 500, 7);
  std::vector<long> ka, kb;
  a.for_each_slow([&ka](long k) { ka.push_back(k); });
  b.for_each_slow([&kb](long k) { kb.push_back(k); });
  EXPECT_EQ(ka, kb);
}

TEST(Runner, CountsAddUp) {
  nm_tree<long> t;
  workload_config cfg;
  cfg.key_range = 1000;
  cfg.mix = mixed;
  cfg.threads = 2;
  cfg.duration = std::chrono::milliseconds(50);
  const run_result r = run_workload(t, cfg);
  EXPECT_EQ(r.total_ops, r.searches + r.inserts + r.erases);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_GT(r.ops_per_second(), 0.0);
  EXPECT_LE(r.successful_inserts, r.inserts);
  EXPECT_LE(r.successful_erases, r.erases);
  EXPECT_EQ(t.validate(), "");
}

TEST(Runner, FinalSizeMatchesConservation) {
  nm_tree<long> t;
  workload_config cfg;
  cfg.key_range = 256;
  cfg.mix = write_dominated;
  cfg.threads = 4;
  cfg.duration = std::chrono::milliseconds(80);
  const run_result r = run_workload(t, cfg);
  // size = prepopulated + successful inserts - successful erases.
  const long expected = static_cast<long>(cfg.key_range / 2) +
                        static_cast<long>(r.successful_inserts) -
                        static_cast<long>(r.successful_erases);
  EXPECT_EQ(static_cast<long>(r.final_size), expected);
}

TEST(Runner, MixPercentagesAreRespected) {
  nm_tree<long> t;
  workload_config cfg;
  cfg.key_range = 1000;
  cfg.mix = read_dominated;  // 90/9/1
  cfg.threads = 2;
  cfg.duration = std::chrono::milliseconds(120);
  const run_result r = run_workload(t, cfg);
  const double search_frac =
      static_cast<double>(r.searches) / static_cast<double>(r.total_ops);
  const double erase_frac =
      static_cast<double>(r.erases) / static_cast<double>(r.total_ops);
  EXPECT_NEAR(search_frac, 0.90, 0.02);
  EXPECT_NEAR(erase_frac, 0.01, 0.01);
}

TEST(Runner, WriteDominatedDoesNoSearches) {
  nm_tree<long> t;
  workload_config cfg;
  cfg.key_range = 128;
  cfg.mix = write_dominated;
  cfg.threads = 1;
  cfg.duration = std::chrono::milliseconds(30);
  const run_result r = run_workload(t, cfg);
  EXPECT_EQ(r.searches, 0u);
  EXPECT_GT(r.inserts, 0u);
  EXPECT_GT(r.erases, 0u);
}

TEST(Runner, WorksAcrossAllAlgorithms) {
  workload_config cfg;
  cfg.key_range = 512;
  cfg.mix = mixed;
  cfg.threads = 2;
  cfg.duration = std::chrono::milliseconds(25);
  int count = 0;
  for_each_algorithm<long>([&]<typename Tree>() {
    Tree t;
    const run_result r = run_workload(t, cfg);
    EXPECT_GT(r.total_ops, 0u) << Tree::algorithm_name;
    EXPECT_EQ(t.validate(), "") << Tree::algorithm_name;
    ++count;
  });
  EXPECT_EQ(count, 6);
}

TEST(Runner, WorksAcrossShardedAlgorithms) {
  workload_config cfg;
  cfg.key_range = 512;
  cfg.mix = mixed;
  cfg.threads = 2;
  cfg.duration = std::chrono::milliseconds(25);
  int count = 0;
  for_each_sharded_algorithm<long>([&]<typename Set>() {
    Set set(/*shard_count=*/4, 0, static_cast<long>(cfg.key_range));
    const run_result r = run_workload(set, cfg);
    EXPECT_GT(r.total_ops, 0u) << Set::algorithm_name;
    EXPECT_EQ(set.validate(), "") << Set::algorithm_name;
    ++count;
  });
  EXPECT_EQ(count, 4);
}

TEST(Runner, ShardedConservationMatchesPlainTree) {
  shard::sharded_set<nm_tree<long>> set(8, 0, 256);
  workload_config cfg;
  cfg.key_range = 256;
  cfg.mix = uniform_50_25_25;
  cfg.threads = 4;
  cfg.duration = std::chrono::milliseconds(80);
  const run_result r = run_workload(set, cfg);
  const long expected = static_cast<long>(cfg.key_range / 2) +
                        static_cast<long>(r.successful_inserts) -
                        static_cast<long>(r.successful_erases);
  EXPECT_EQ(static_cast<long>(r.final_size), expected);
  EXPECT_EQ(set.validate(), "");
}

TEST(Table, AlignsAndEmitsCsv) {
  text_table tbl({"algo", "threads", "mops"});
  tbl.add_row({"NM-BST", "4", "1.23"});
  tbl.add_row({"EFRB-BST", "16", "0.98"});
  // Render into a memstream-like file.
  char buf[4096] = {};
  std::FILE* f = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(f, nullptr);
  tbl.print(f);
  tbl.print_csv(f);
  std::fclose(f);
  const std::string out(buf);
  EXPECT_NE(out.find("NM-BST"), std::string::npos);
  EXPECT_NE(out.find("EFRB-BST"), std::string::npos);
  EXPECT_NE(out.find("algo,threads,mops"), std::string::npos);
  EXPECT_NE(out.find("NM-BST,4,1.23"), std::string::npos);
}

TEST(Table, FormatHelper) {
  EXPECT_EQ(format("%.2f", 1.234), "1.23");
  EXPECT_EQ(format("%s/%d", "x", 7), "x/7");
}

}  // namespace
}  // namespace lfbst::harness
