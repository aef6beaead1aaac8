// Workload explorer: run any (algorithm × workload × key range × thread
// count) point from the paper's evaluation grid and print the full
// measurement breakdown — the interactive companion to bench_figure4.
//
//   $ ./workload_explorer --algo nm --workload write-dominated \
//         --keyrange 1000 --threads 4 --millis 1000
//
// Algorithms: nm | nm-epoch | efrb | hj | bcco | coarse
#include <cstdio>
#include <string>

#include "harness/flags.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "lfbst/lfbst.hpp"

namespace {

using namespace lfbst;
using namespace lfbst::harness;

template <typename Tree>
int explore(const workload_config& cfg) {
  std::printf("algorithm : %s\n", Tree::algorithm_name);
  std::printf("workload  : %s\n", cfg.label().c_str());
  Tree tree;
  const run_result r = run_workload(tree, cfg);

  text_table tbl({"metric", "value"});
  tbl.add_row({"throughput", format("%.3f Mops/s", r.mops_per_second())});
  tbl.add_row({"total ops", std::to_string(r.total_ops)});
  tbl.add_row({"searches", std::to_string(r.searches)});
  tbl.add_row({"inserts (ok)", format("%llu (%llu)",
                                      (unsigned long long)r.inserts,
                                      (unsigned long long)r.successful_inserts)});
  tbl.add_row({"erases (ok)", format("%llu (%llu)",
                                     (unsigned long long)r.erases,
                                     (unsigned long long)r.successful_erases)});
  tbl.add_row({"elapsed", format("%.3f s", r.elapsed_seconds)});
  tbl.add_row({"final size", std::to_string(r.final_size)});
  tbl.print();

  const std::string health = tree.validate();
  std::printf("structural check: %s\n",
              health.empty() ? "clean" : health.c_str());
  return health.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "algo", "help", "keyrange", "millis", "seed", "threads", "workload"});
  if (flags.has("help")) {
    std::printf(
        "usage: workload_explorer [--algo nm|nm-epoch|efrb|hj|bcco|coarse]\n"
        "                        [--workload write-dominated|mixed|"
        "read-dominated]\n                        [--keyrange N] [--threads N]"
        " [--millis N] [--seed N]\n");
    return 0;
  }
  workload_config cfg;
  cfg.key_range = static_cast<std::uint64_t>(flags.get_int("keyrange", 10'000));
  cfg.mix = mix_by_name(flags.get("workload", "mixed"));
  cfg.threads = static_cast<unsigned>(flags.get_int("threads", 4));
  cfg.duration = std::chrono::milliseconds(flags.get_int("millis", 500));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  const std::string algo = flags.get("algo", "nm");
  if (algo == "nm") return explore<nm_tree<long>>(cfg);
  if (algo == "nm-epoch") {
    return explore<nm_tree<long, std::less<long>, reclaim::epoch>>(cfg);
  }
  if (algo == "efrb") return explore<efrb_tree<long>>(cfg);
  if (algo == "hj") return explore<hj_tree<long>>(cfg);
  if (algo == "bcco") return explore<bcco_tree<long>>(cfg);
  if (algo == "coarse") return explore<coarse_tree<long>>(cfg);
  std::fprintf(stderr, "unknown --algo '%s' (try --help)\n", algo.c_str());
  return 2;
}
