// What bench_ablation's translation units share. A study whose numbers
// depend on how GCC inlines its trees gets a unit of its own: the same
// tree compiles differently inside a larger one.
#pragma once

#include <cstdint>

#include "harness/table.hpp"
#include "obs/export.hpp"

namespace ablation {

/// Appends a study's table to the --json report, tagging every row with
/// the study name so all studies share one flat results array.
void export_table(lfbst::obs::bench_report* report, const char* study,
                  const lfbst::harness::text_table& tbl);

/// --study=contention (bench_ablation_contention.cpp).
void study_contention(std::uint64_t millis, std::uint64_t seed,
                      lfbst::obs::bench_report* report);

}  // namespace ablation
