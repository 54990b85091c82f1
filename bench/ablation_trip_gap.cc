// Ablation A8: sensitivity of the mobility analysis to the consecutive-
// tweet time gap. The paper counts every same-user consecutive pair as a
// trip; much of the Twitter-mobility literature caps the gap (a tweet pair
// 5 weeks apart is not a trip). This bench sweeps the cap at the national
// scale and re-fits the three models.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/population_estimator.h"
#include "core/scales.h"
#include "core/stage_engine.h"
#include "mobility/gravity_model.h"
#include "mobility/model_eval.h"
#include "mobility/radiation_model.h"
#include "mobility/trip_extractor.h"

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

  const core::ScaleSpec spec = core::MakeScaleSpec(census::Scale::kNational);
  std::vector<double> masses;
  for (const census::Area& a : spec.areas) {
    masses.push_back(static_cast<double>(
        estimator->CountUniqueUsers(a.center, spec.radius_m)));
  }
  const std::vector<double> distances = core::PairwiseDistances(spec.areas, ctx.pool());

  struct GapCase {
    const char* label;
    int64_t seconds;
  };
  const GapCase cases[] = {{"unlimited (paper)", 0},
                           {"7 days", 7 * 86400},
                           {"24 hours", 86400},
                           {"6 hours", 6 * 3600}};

  TablePrinter tp({"max gap", "trips", "OD pairs", "G2 gamma", "G2 r",
                   "Rad r", "G2 hit@50"});
  for (const GapCase& c : cases) {
    mobility::TripOptions options;
    options.max_gap_seconds = c.seconds;
    mobility::ExtractionStats stats;
    auto od = mobility::ExtractTrips(dataset, spec.areas, spec.radius_m,
                                     ctx.pool(), &stats, options);
    if (!od.ok()) {
      std::fprintf(stderr, "extract failed: %s\n", od.status().ToString().c_str());
      return 1;
    }
    auto obs = mobility::BuildObservations(*od, masses, distances);
    std::vector<double> observed;
    for (const auto& o : obs) observed.push_back(o.flow);

    auto g2 = mobility::GravityModel::Fit(obs, mobility::GravityVariant::kTwoParam);
    auto rad = mobility::RadiationModel::Fit(obs, spec.areas, masses);
    std::string g2_gamma = "-", g2_r = "-", rad_r = "-", g2_hit = "-";
    if (g2.ok()) {
      auto metrics = mobility::EvaluateModel(g2->PredictAll(obs), observed);
      if (metrics.ok()) {
        g2_gamma = StrFormat("%.2f", g2->gamma());
        g2_r = StrFormat("%.3f", metrics->pearson_r);
        g2_hit = StrFormat("%.3f", metrics->hit_rate);
      }
    }
    if (rad.ok()) {
      auto metrics = mobility::EvaluateModel(rad->PredictAll(obs), observed);
      if (metrics.ok()) rad_r = StrFormat("%.3f", metrics->pearson_r);
    }
    tp.AddRow({c.label, std::to_string(stats.inter_area_trips),
               std::to_string(obs.size()), g2_gamma, g2_r, rad_r, g2_hit});
  }

  std::printf(
      "=== ABLATION A8: trip definition — consecutive-tweet gap cap "
      "(National) ===\n%s\n"
      "Expected shape: capping the gap removes stale long-distance pairs\n"
      "(slightly steeper fitted gamma) but leaves the paper's conclusion —\n"
      "Gravity over Radiation — unchanged at every cap.\n",
      tp.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
