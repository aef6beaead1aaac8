// Differential fuzzer: drives identical randomized operation streams
// through every tree in the repo simultaneously and cross-checks every
// result, with periodic structural validation. Where the unit tests run
// bounded soups, this runs until told to stop — the tool you leave
// running overnight after touching anything lock-free.
//
//   fuzz_diff [--seconds 10] [--seed N] [--keyrange 512] [--phase-ops 20000]
//
// Exit code 0 = no divergence found. Any divergence prints the seed,
// phase and operation index needed to replay it deterministically.
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "lfbst/lfbst.hpp"

namespace {

using namespace lfbst;

/// Type-erased adapter so all trees sit in one vector.
class any_set {
 public:
  template <typename Tree>
  static std::unique_ptr<any_set> make() {
    struct model final : any_set {
      Tree tree;
      bool insert(long k) override { return tree.insert(k); }
      bool erase(long k) override { return tree.erase(k); }
      bool contains(long k) override { return tree.contains(k); }
      std::size_t size_slow() override { return tree.size_slow(); }
      std::string validate() override { return tree.validate(); }
      const char* name() override { return Tree::algorithm_name; }
    };
    return std::make_unique<model>();
  }

  virtual ~any_set() = default;
  virtual bool insert(long k) = 0;
  virtual bool erase(long k) = 0;
  virtual bool contains(long k) = 0;
  virtual std::size_t size_slow() = 0;
  virtual std::string validate() = 0;
  virtual const char* name() = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "keyrange", "phase-ops", "seconds", "seed"});
  const auto seconds = flags.get_int("seconds", 10);
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto key_range =
      static_cast<std::uint32_t>(flags.get_int("keyrange", 512));
  const auto phase_ops = flags.get_int("phase-ops", 20'000);

  std::vector<std::unique_ptr<any_set>> impls;
  impls.push_back(any_set::make<nm_tree<long>>());
  impls.push_back(
      any_set::make<nm_tree<long, std::less<long>, reclaim::epoch>>());
  impls.push_back(
      any_set::make<nm_tree<long, std::less<long>, reclaim::hazard>>());
  impls.push_back(any_set::make<efrb_tree<long>>());
  impls.push_back(any_set::make<hj_tree<long>>());
  impls.push_back(any_set::make<bcco_tree<long>>());
  impls.push_back(any_set::make<kary_tree<long, 4>>());
  impls.push_back(any_set::make<kary_tree<long, 16>>());
  impls.push_back(any_set::make<coarse_tree<long>>());

  std::printf("fuzz_diff: %zu implementations, base seed %llu, "
              "key range %u, %lld ops per phase, ~%llds budget\n",
              impls.size(), (unsigned long long)base_seed, key_range,
              (long long)phase_ops, (long long)seconds);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(seconds);
  std::set<long> oracle;
  std::uint64_t phase = 0;
  std::uint64_t total_ops = 0;

  while (std::chrono::steady_clock::now() < deadline) {
    pcg32 rng(base_seed + phase);
    for (long i = 0; i < phase_ops; ++i) {
      const long k = rng.bounded(key_range);
      const int kind = static_cast<int>(rng.bounded(3));
      const bool expected = (kind == 0)   ? oracle.insert(k).second
                            : (kind == 1) ? oracle.erase(k) > 0
                                          : oracle.count(k) > 0;
      for (auto& impl : impls) {
        const bool got = (kind == 0)   ? impl->insert(k)
                         : (kind == 1) ? impl->erase(k)
                                       : impl->contains(k);
        if (got != expected) {
          std::fprintf(stderr,
                       "DIVERGENCE: %s op=%d key=%ld got=%d expected=%d "
                       "(replay: --seed %llu, phase %llu, op %ld)\n",
                       impl->name(), kind, k, got, expected,
                       (unsigned long long)base_seed,
                       (unsigned long long)phase, i);
          return 1;
        }
      }
      ++total_ops;
    }
    // Phase boundary: full structural validation + size agreement.
    for (auto& impl : impls) {
      const std::string err = impl->validate();
      if (!err.empty()) {
        std::fprintf(stderr, "INVALID STRUCTURE: %s: %s (phase %llu)\n",
                     impl->name(), err.c_str(),
                     (unsigned long long)phase);
        return 2;
      }
      if (impl->size_slow() != oracle.size()) {
        std::fprintf(stderr, "SIZE DIVERGENCE: %s %zu vs oracle %zu "
                             "(phase %llu)\n",
                     impl->name(), impl->size_slow(), oracle.size(),
                     (unsigned long long)phase);
        return 3;
      }
    }
    ++phase;
    if (phase % 10 == 0) {
      std::printf("  phase %llu: %llu ops x %zu impls, all agree "
                  "(size %zu)\n",
                  (unsigned long long)phase, (unsigned long long)total_ops,
                  impls.size(), oracle.size());
    }
  }

  std::printf("fuzz_diff: PASS — %llu phases, %llu ops per "
              "implementation, zero divergences\n",
              (unsigned long long)phase, (unsigned long long)total_ops);
  return 0;
}
