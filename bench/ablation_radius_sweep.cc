// Ablation A1 (DESIGN.md): sensitivity of the population estimate to the
// search radius ε. The paper argues (§III) that the metro-scale scatter is
// driven by sensitivity to area edges and search radius, and demonstrates
// it by shrinking ε to 0.5 km. This bench sweeps ε at every scale.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "common/string_util.h"
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
  auto estimator = core::PopulationEstimator::Build(
      tweetdb::TweetDataset::FromTable(std::move(*table)));
  if (!estimator.ok()) {
    std::fprintf(stderr, "estimator failed: %s\n",
                 estimator.status().ToString().c_str());
    return 1;
  }

  struct Sweep {
    census::Scale scale;
    std::vector<double> radii_m;
  };
  const Sweep sweeps[] = {
      {census::Scale::kNational, {10000, 25000, 50000, 75000, 100000}},
      {census::Scale::kState, {5000, 12500, 25000, 50000}},
      {census::Scale::kMetropolitan, {250, 500, 1000, 2000, 4000, 8000}},
  };

  std::printf("=== ABLATION A1: population correlation vs search radius ===\n");
  for (const Sweep& sweep : sweeps) {
    TablePrinter tp({"radius (km)", "Pearson r", "p-value", "median users",
                     "rescale C"});
    for (double radius : sweep.radii_m) {
      const core::ScaleSpec spec = core::MakeScaleSpec(sweep.scale, radius);
      auto result = estimator->Estimate(spec);
      if (!result.ok()) {
        std::fprintf(stderr, "estimate failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      tp.AddRow({StrFormat("%.2f", radius / 1000.0),
                 StrFormat("%.3f", result->correlation.r),
                 StrFormat("%.3g", result->correlation.p_value),
                 StrFormat("%.0f", result->median_users),
                 StrFormat("%.1f", result->rescale_factor)});
    }
    std::printf("%s (paper default marked by the scale definition)\n%s\n",
                census::ScaleName(sweep.scale).c_str(), tp.ToString().c_str());
  }
  std::printf(
      "Expected shape: correlations degrade for very small ε (paper Figure\n"
      "3(b): metro at 0.5 km shows a significant error increase).\n");
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
