// Extension E2 (the paper's future work: "evaluate model performances with
// more metrics"): the paper's three models plus two literature baselines —
// the intervening-opportunities model and the doubly-constrained gravity
// model (IPF) — scored with the paper's metrics and the extended set
// (Spearman, Kendall tau-b, CPC, mean |log error|).

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/stage_engine.h"
#include "mobility/constrained_gravity.h"
#include "mobility/intervening_opportunities.h"
#include "mobility/model_eval.h"

namespace twimob {
namespace {

struct Scored {
  std::string name;
  mobility::ModelMetrics basic;
  mobility::ExtendedMetrics extended;
};

Result<Scored> Score(const std::string& name, const std::vector<double>& estimated,
                     const std::vector<double>& observed) {
  Scored s;
  s.name = name;
  auto basic = mobility::EvaluateModel(estimated, observed);
  if (!basic.ok()) return basic.status();
  s.basic = *basic;
  auto extended = mobility::EvaluateModelExtended(estimated, observed);
  if (!extended.ok()) return extended.status();
  s.extended = *extended;
  return s;
}

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

  for (const core::ScaleSpec& spec : core::PaperScales()) {
    // Paper pipeline pieces: trips, masses, distances, observations.
    auto mob = core::AnalyzeScaleMobility(dataset, spec, *estimator, ctx.pool());
    if (!mob.ok()) {
      std::fprintf(stderr, "mobility failed: %s\n",
                   mob.status().ToString().c_str());
      return 1;
    }
    std::vector<double> observed;
    for (const auto& o : mob->observations) observed.push_back(o.flow);

    std::vector<double> masses;
    for (const census::Area& a : spec.areas) {
      masses.push_back(
          static_cast<double>(estimator->CountUniqueUsers(a.center, spec.radius_m)));
    }
    const size_t n = spec.areas.size();
    const std::vector<double> distances =
        core::PairwiseDistances(spec.areas, ctx.pool());
    auto observed_od = mobility::OdMatrix::Create(n);
    for (const auto& o : mob->observations) {
      observed_od->SetFlow(o.src, o.dst, o.flow);
    }

    std::vector<Scored> rows;
    // The paper's three (reuse the pipeline's fits).
    for (const core::ModelSummary& m : mob->models) {
      auto scored = Score(m.model_name, m.estimated, observed);
      if (!scored.ok()) {
        std::fprintf(stderr, "%s\n", scored.status().ToString().c_str());
        return 1;
      }
      rows.push_back(std::move(*scored));
    }
    // Intervening opportunities.
    auto io = mobility::InterveningOpportunitiesModel::Fit(mob->observations,
                                                           spec.areas, masses);
    if (io.ok()) {
      auto scored = Score("Interv. Opportunities",
                          io->PredictAll(mob->observations), observed);
      if (scored.ok()) rows.push_back(std::move(*scored));
    }
    // Doubly-constrained gravity.
    auto dc = mobility::ConstrainedGravityModel::Fit(*observed_od, distances);
    if (dc.ok()) {
      auto scored = Score(StrFormat("Gravity DC-IPF (g=%.2f)", dc->gamma()),
                          dc->PredictAll(mob->observations), observed);
      if (scored.ok()) rows.push_back(std::move(*scored));
    }

    TablePrinter tp({"Model", "Pearson", "Hit@50%", "RMSLE", "Spearman",
                     "Kendall", "CPC", "|logErr|"});
    for (const Scored& s : rows) {
      tp.AddRow({s.name, StrFormat("%.3f", s.basic.pearson_r),
                 StrFormat("%.3f", s.basic.hit_rate),
                 StrFormat("%.3f", s.basic.rmsle),
                 StrFormat("%.3f", s.extended.spearman_r),
                 StrFormat("%.3f", s.extended.kendall_tau),
                 StrFormat("%.3f", s.extended.cpc),
                 StrFormat("%.3f", s.extended.mean_abs_log_err)});
    }
    std::printf("=== EXTENSION E2 (%s, %zu OD pairs) ===\n%s\n",
                spec.name.c_str(), mob->observations.size(),
                tp.ToString().c_str());
  }
  std::printf(
      "Note: the doubly-constrained fit uses the observed marginals, so its\n"
      "scores are an upper reference rather than a fair out-of-sample\n"
      "competitor; the paper's conclusion concerns the unconstrained fits.\n");
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
