// Custom-region analysis: the paper's method applied to a user-defined
// area set (Queensland's coastal cities) with a custom search radius —
// the API a downstream analyst would use for their own region of interest.
//
//   ./build/examples/custom_region [num_users]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/population_estimator.h"
#include "core/report.h"
#include "core/stage_engine.h"

using namespace twimob;

int main(int argc, char** argv) {
  const size_t num_users =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;

  synth::CorpusConfig corpus;
  corpus.num_users = num_users;
  corpus.seed = 404;
  auto generator = synth::TweetGenerator::Create(corpus);
  if (!generator.ok()) return 1;
  auto table = generator->Generate();
  if (!table.ok()) return 1;
  table->CompactByUserTime();

  // A custom scale: Queensland's major coastal centres, ε = 40 km.
  core::ScaleSpec queensland;
  queensland.name = "Queensland coast";
  queensland.radius_m = 40000.0;
  const struct {
    const char* name;
    double lat, lon, pop;
  } cities[] = {
      {"Brisbane", -27.4698, 153.0251, 2274560},
      {"Gold Coast", -28.0167, 153.4000, 614379},
      {"Sunshine Coast", -26.6500, 153.0667, 297380},
      {"Townsville", -19.2590, 146.8169, 178649},
      {"Cairns", -16.9186, 145.7781, 146778},
      {"Toowoomba", -27.5598, 151.9507, 113625},
  };
  for (uint32_t i = 0; i < 6; ++i) {
    census::Area a;
    a.id = i;
    a.name = cities[i].name;
    a.center = geo::LatLon{cities[i].lat, cities[i].lon};
    a.population = cities[i].pop;
    queensland.areas.push_back(std::move(a));
  }

  core::AnalysisContext ctx;
  const tweetdb::TweetDataset dataset =
      tweetdb::TweetDataset::FromTable(std::move(*table));
  auto estimator = core::PopulationEstimator::Build(dataset, &ctx.pool());
  if (!estimator.ok()) return 1;

  // Population estimation over the custom areas.
  auto population = estimator->Estimate(queensland);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", core::RenderAreaTable(*population).c_str());
  std::printf("Twitter-vs-census correlation: r = %.3f (p = %.3g)\n\n",
              population->correlation.r, population->correlation.p_value);

  // Mobility estimation and the three-model comparison on the same areas.
  auto mobility = core::AnalyzeScaleMobility(dataset, queensland, *estimator, ctx.pool());
  if (!mobility.ok()) {
    std::fprintf(stderr, "%s\n", mobility.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", core::RenderMobilityScale(*mobility).c_str());

  std::printf("strongest corridors (observed trips):\n");
  std::vector<mobility::FlowObservation> obs = mobility->observations;
  std::sort(obs.begin(), obs.end(),
            [](const auto& a, const auto& b) { return a.flow > b.flow; });
  for (size_t i = 0; i < obs.size() && i < 5; ++i) {
    std::printf("  %-14s -> %-14s %6.0f trips (%.0f km apart)\n",
                queensland.areas[obs[i].src].name.c_str(),
                queensland.areas[obs[i].dst].name.c_str(), obs[i].flow,
                obs[i].d_meters / 1000.0);
  }
  return 0;
}
