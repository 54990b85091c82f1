// Ablation A2 (DESIGN.md): does sample size drive the cross-scale
// correlation gap? The paper argues it does not (State has a smaller median
// user count than Metropolitan yet correlates better). This bench
// subsamples users and re-runs the population estimation at each fraction.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/population_estimator.h"
#include "core/scales.h"

namespace twimob {
namespace {

int Run() {
  auto table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }

  const double fractions[] = {0.05, 0.1, 0.25, 0.5, 1.0};
  TablePrinter tp({"user fraction", "National r", "State r", "Metro r",
                   "Metro median users"});
  for (double fraction : fractions) {
    // Deterministic subsample on the user id hash.
    tweetdb::TweetTable subset;
    const uint64_t keep = static_cast<uint64_t>(fraction * 1000.0);
    table->ForEachRow([&](const tweetdb::Tweet& t) {
      // SplitMix-style hash so the subset is unbiased by id assignment.
      uint64_t h = t.user_id * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 31;
      if (h % 1000 < keep) (void)subset.Append(t);
    });
    subset.SealActive();

    auto estimator = core::PopulationEstimator::Build(
        tweetdb::TweetDataset::FromTable(std::move(subset)));
    if (!estimator.ok()) {
      std::fprintf(stderr, "estimator failed: %s\n",
                   estimator.status().ToString().c_str());
      return 1;
    }
    std::vector<double> rs;
    double metro_median = 0.0;
    for (const core::ScaleSpec& spec : core::PaperScales()) {
      auto result = estimator->Estimate(spec);
      if (!result.ok()) {
        std::fprintf(stderr, "estimate failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      rs.push_back(result->correlation.r);
      if (spec.scale == census::Scale::kMetropolitan) {
        metro_median = result->median_users;
      }
    }
    tp.AddRow({StrFormat("%.0f%%", fraction * 100.0), StrFormat("%.3f", rs[0]),
               StrFormat("%.3f", rs[1]), StrFormat("%.3f", rs[2]),
               StrFormat("%.0f", metro_median)});
  }

  std::printf(
      "=== ABLATION A2: population correlation vs corpus subsample ===\n%s\n"
      "Expected shape: National/State correlations are robust down to small\n"
      "fractions while Metropolitan stays the weakest — sample size alone\n"
      "does not explain the scale gap (paper §III's argument).\n",
      tp.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
