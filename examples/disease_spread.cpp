// Disease-spread scenario — the application motivating the paper: estimate
// human mobility from geo-tagged tweets, fit a gravity model, and use it to
// predict how an outbreak seeded in one city spreads across Australia.
//
//   ./build/examples/disease_spread [num_users] [seed_city]
//
// Example: ./build/examples/disease_spread 60000 Cairns

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/string_util.h"
#include "core/population_estimator.h"
#include "core/stage_engine.h"
#include "epi/seir.h"

using namespace twimob;

int main(int argc, char** argv) {
  const size_t num_users =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;
  const std::string seed_city = argc > 2 ? argv[2] : "Sydney";

  // 1. Synthesize a corpus (stand-in for a live Twitter collection).
  synth::CorpusConfig corpus;
  corpus.num_users = num_users;
  corpus.seed = 2025;
  auto generator = synth::TweetGenerator::Create(corpus);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  auto table = generator->Generate();
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  table->CompactByUserTime();
  std::printf("corpus: %zu tweets from %zu users\n", table->num_rows(),
              table->CountDistinctUsers());

  // 2. Estimate mobility between the 20 national cities.
  core::AnalysisContext ctx;
  const tweetdb::TweetDataset dataset =
      tweetdb::TweetDataset::FromTable(std::move(*table));
  auto estimator = core::PopulationEstimator::Build(dataset, &ctx.pool());
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
    return 1;
  }
  const core::ScaleSpec national = core::MakeScaleSpec(census::Scale::kNational);
  auto mobility = core::AnalyzeScaleMobility(dataset, national, *estimator, ctx.pool());
  if (!mobility.ok()) {
    std::fprintf(stderr, "%s\n", mobility.status().ToString().c_str());
    return 1;
  }
  const core::ModelSummary& gravity = mobility->models[1];  // Gravity 2Param
  std::printf(
      "gravity 2-param fit: gamma=%.2f, Pearson r=%.3f on %zu OD pairs\n",
      gravity.gamma, gravity.metrics.pearson_r, mobility->observations.size());

  // 3. Build the gravity-predicted OD matrix and drive a metapopulation
  //    SEIR model with it (the paper proposes swapping census masses in;
  //    here the fitted model generalises to all 380 directed pairs).
  auto flows = mobility::OdMatrix::Create(national.areas.size());
  if (!flows.ok()) return 1;
  for (size_t i = 0; i < mobility->observations.size(); ++i) {
    const auto& o = mobility->observations[i];
    flows->SetFlow(o.src, o.dst, gravity.estimated[i]);
  }

  std::vector<double> populations;
  size_t seed_area = 0;
  for (const census::Area& a : national.areas) {
    populations.push_back(a.population);
    if (a.name == seed_city) seed_area = a.id;
  }

  epi::SeirParams params;
  params.beta = 0.45;    // R0 ~ 4.5 with gamma = 0.1 — an aggressive virus
  params.mobility_rate = 0.03;
  auto seir = epi::MetapopulationSeir::Create(populations, *flows, params);
  if (!seir.ok()) {
    std::fprintf(stderr, "%s\n", seir.status().ToString().c_str());
    return 1;
  }
  (void)seir->SeedInfection(seed_area, 50.0);
  std::printf("\nseeding 50 infections in %s...\n\n",
              national.areas[seed_area].name.c_str());

  // 4. Simulate one year; print the national epidemic curve monthly and
  //    the per-city arrival times.
  auto trajectory = seir->Run(4 * 365);
  std::printf("%8s %14s %14s %14s\n", "day", "exposed", "infectious",
              "recovered");
  for (size_t k = 0; k < trajectory.size(); k += 4 * 30) {
    const auto& t = trajectory[k];
    std::printf("%8.0f %14.0f %14.0f %14.0f\n", t.t, t.e, t.i, t.r);
  }

  std::printf("\narrival of the wave (first day infectious > 10):\n");
  for (const census::Area& a : national.areas) {
    const double day = seir->ArrivalTime(a.id, 10.0);
    std::printf("  %-16s %s\n", a.name.c_str(),
                day < 0 ? "not reached" : StrFormat("day %.0f", day).c_str());
  }
  return 0;
}
