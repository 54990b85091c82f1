// Extension E3: responsiveness. The paper's introduction motivates Twitter
// over census data by its "near-instantaneous updates" — how much
// collection time does the population estimate actually need? This bench
// truncates the corpus to growing prefixes of the collection window and
// re-runs the Figure 3 analysis on each, with bootstrap confidence
// intervals on the pooled correlation.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/time_util.h"
#include "core/population_estimator.h"
#include "core/scales.h"
#include "stats/bootstrap.h"
#include "tweetdb/query.h"

namespace twimob {
namespace {

int Run() {
  auto table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }

  const tweetdb::TweetDataset corpus =
      tweetdb::TweetDataset::FromTable(std::move(*table));
  const int window_days[] = {7, 14, 30, 60, 120, 242};
  TablePrinter tp({"window", "tweets", "National r", "State r", "Metro r",
                   "pooled r [95% CI]"});
  for (int days : window_days) {
    // Truncate to the first `days` of the collection window.
    tweetdb::ScanSpec spec;
    spec.max_time = kCollectionStart + static_cast<int64_t>(days) * kSecondsPerDay;
    tweetdb::TweetDataset prefix(tweetdb::PartitionSpec::Single(),
                                 corpus.block_capacity());
    tweetdb::ScanDataset(corpus, spec, [&prefix](const tweetdb::Tweet& t) {
      (void)prefix.Append(t);
    });
    prefix.SealAll();

    auto estimator = core::PopulationEstimator::Build(prefix);
    if (!estimator.ok()) {
      std::fprintf(stderr, "estimator failed: %s\n",
                   estimator.status().ToString().c_str());
      return 1;
    }
    std::vector<double> rs;
    std::vector<double> pooled_twitter, pooled_census;
    for (const core::ScaleSpec& scale : core::PaperScales()) {
      auto result = estimator->Estimate(scale);
      if (!result.ok()) {
        std::fprintf(stderr, "estimate failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      rs.push_back(result->correlation.r);
      for (const auto& area : result->areas) {
        pooled_twitter.push_back(area.rescaled_estimate);
        pooled_census.push_back(area.census_population);
      }
    }
    auto ci = stats::BootstrapPearsonCI(pooled_twitter, pooled_census, 0.95,
                                        1000, 17);
    tp.AddRow({StrFormat("%d days", days),
               WithThousandsSep(static_cast<int64_t>(prefix.num_rows())),
               StrFormat("%.3f", rs[0]), StrFormat("%.3f", rs[1]),
               StrFormat("%.3f", rs[2]),
               ci.ok() ? StrFormat("%.3f [%.3f, %.3f]", ci->point, ci->lo, ci->hi)
                       : std::string("-")});
  }

  std::printf(
      "=== EXTENSION E3: population correlation vs collection-window length "
      "===\n%s\n"
      "Expected shape: the national/state estimates are already usable after\n"
      "1-2 weeks of collection — the responsiveness the paper's introduction\n"
      "claims over census processes (metro needs more data).\n",
      tp.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
