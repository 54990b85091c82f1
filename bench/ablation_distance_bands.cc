// Ablation A6 (paper future work: "at more varieties of distances scales"):
// per-distance-band model performance. Gravity's known weakness is long
// range; radiation's is sparse intervening population. This bench splits
// the national OD pairs into distance bands and evaluates each model per
// band.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/stage_engine.h"

namespace twimob {
namespace {

int Run() {
  auto table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }
  core::AnalysisContext ctx;
  const tweetdb::TweetDataset dataset =
      tweetdb::TweetDataset::FromTable(std::move(*table));
  auto estimator = core::PopulationEstimator::Build(dataset, &ctx.pool());
  if (!estimator.ok()) {
    std::fprintf(stderr, "estimator failed: %s\n",
                 estimator.status().ToString().c_str());
    return 1;
  }
  const core::ScaleSpec national = core::MakeScaleSpec(census::Scale::kNational);
  auto mob = core::AnalyzeScaleMobility(dataset, national, *estimator, ctx.pool());
  if (!mob.ok()) {
    std::fprintf(stderr, "mobility failed: %s\n", mob.status().ToString().c_str());
    return 1;
  }

  // Distance bands in km.
  const double edges_km[] = {0.0, 300.0, 700.0, 1500.0, 3000.0, 1e9};
  const char* labels[] = {"< 300 km", "300-700 km", "700-1500 km",
                          "1500-3000 km", "> 3000 km"};
  constexpr int kBands = 5;

  TablePrinter tp({"Distance band", "pairs", "G4 r", "G2 r", "Rad r",
                   "G2 hit@50", "Rad hit@50"});
  for (int band = 0; band < kBands; ++band) {
    std::vector<double> obs, g4, g2, rad;
    for (size_t i = 0; i < mob->observations.size(); ++i) {
      const double km = mob->observations[i].d_meters / 1000.0;
      if (km < edges_km[band] || km >= edges_km[band + 1]) continue;
      obs.push_back(mob->observations[i].flow);
      g4.push_back(mob->models[0].estimated[i]);
      g2.push_back(mob->models[1].estimated[i]);
      rad.push_back(mob->models[2].estimated[i]);
    }
    if (obs.size() < 4) {
      tp.AddRow({labels[band], std::to_string(obs.size()), "-", "-", "-", "-",
                 "-"});
      continue;
    }
    auto m4 = mobility::EvaluateModel(g4, obs);
    auto m2 = mobility::EvaluateModel(g2, obs);
    auto mr = mobility::EvaluateModel(rad, obs);
    auto fmt = [](const Result<mobility::ModelMetrics>& m, bool hit) {
      if (!m.ok()) return std::string("-");
      return StrFormat("%.3f", hit ? m->hit_rate : m->pearson_r);
    };
    tp.AddRow({labels[band], std::to_string(obs.size()), fmt(m4, false),
               fmt(m2, false), fmt(mr, false), fmt(m2, true), fmt(mr, true)});
  }

  std::printf(
      "=== ABLATION A6: National-scale model performance by distance band ===\n"
      "%s\n"
      "Expected shape: Gravity stays competitive across bands; Radiation's\n"
      "deficit is largest where Australia's emptiness breaks its intervening-\n"
      "population assumption (long coastal hops).\n",
      tp.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
