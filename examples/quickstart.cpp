// Quickstart: generate a small synthetic corpus, run the full paper
// pipeline into an immutable analysis snapshot, print the population and
// mobility reports, serve a few live queries from the snapshot through
// the embedded query service, then replay the corpus through the
// incremental-ingest loop (delta commits -> compaction -> snapshot
// refresh) to show the live lifecycle end to end.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [num_users] [num_shards]
//
// num_shards > 1 stores the corpus as that many time-partitioned shards
// (results are byte-identical for every shard count).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/report.h"
#include "serve/query_service.h"
#include "serve/refresh_supervisor.h"
#include "serve/whatif_service.h"
#include "serve/snapshot_catalog.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/ingest.h"

int main(int argc, char** argv) {
  using namespace twimob;

  core::PipelineConfig config;
  config.corpus.num_users = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40000;
  config.corpus.seed = 7;
  config.num_shards = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  std::cout << "Generating a synthetic corpus of " << config.corpus.num_users
            << " users";
  if (config.num_shards > 1) {
    std::cout << " into " << config.num_shards << " time shards";
  }
  std::cout << " and running the paper pipeline...\n\n";

  auto built = core::AnalysisSnapshot::Build(config);
  if (!built.ok()) {
    std::cerr << "pipeline failed: " << built.status() << "\n";
    return 1;
  }
  const auto snapshot =
      std::make_shared<const core::AnalysisSnapshot>(std::move(*built));
  const core::PipelineResult& result = snapshot->result();

  std::cout << core::RenderTableI(result.generation, config.corpus) << "\n";
  std::cout << core::RenderPopulationReport(result) << "\n";
  for (const auto& scale : result.mobility) {
    std::cout << core::RenderMobilityScale(scale) << "\n";
  }
  std::cout << core::RenderTableII(result) << "\n";
  std::cout << core::RenderTraceTable(result.trace);

  // Serve demo: the same snapshot now answers ad-hoc queries through the
  // embedded query service (concurrent-safe; see src/serve).
  std::cout << "\nServing live queries from the sealed snapshot...\n";
  const serve::QueryService service(snapshot);

  const geo::LatLon sydney{-33.8688, 151.2093};
  if (auto population = service.Population(sydney, 25000.0); population.ok()) {
    std::cout << "  population within 25 km of Sydney CBD: "
              << population->unique_users << " unique users, "
              << population->tweets << " tweets\n";
  }
  if (auto point = service.PointEstimate(0, sydney); point.ok()) {
    std::cout << "  Sydney CBD maps to national-scale area #" << point->area
              << " (census " << point->census_population << ", estimated "
              << point->rescaled_estimate << ")\n";
  }
  if (auto flow = service.OdFlow(0, 0, 1); flow.ok()) {
    std::cout << "  observed national flow area 0 -> 1: " << flow->observed
              << "\n";
  }
  if (auto predicted = service.Predict(0, 0, 0, 1); predicted.ok()) {
    std::cout << "  Gravity-4P predicted flow area 0 -> 1: "
              << predicted->estimated << "\n";
  }
  const serve::ServiceStats stats = service.stats();
  std::cout << "  served " << (stats.population_queries + stats.point_queries +
                               stats.od_queries + stats.predict_queries)
            << " queries\n";

  // What-if demo: the epidemic sweep engine answers intervention questions
  // against the snapshot's fitted flows (see src/epi/scenario_sweep.h).
  const serve::WhatIfService whatif(snapshot);
  epi::SweepGrid whatif_grid;
  whatif_grid.scales = {snapshot->specs().size() - 1};  // metropolitan
  whatif_grid.betas = {0.45};
  whatif_grid.mobility_reductions = {0.0, 0.3};
  whatif_grid.seed_areas = {0};
  if (auto answer = whatif.WhatIf(whatif_grid); answer.ok()) {
    const auto& what_if = (*answer)->results;
    std::cout << "  what-if: metropolitan epidemic peaks on day "
              << what_if[0].peak_day << "; a 30% mobility reduction moves it"
              << " to day " << what_if[1].peak_day << "\n";
  }

  // Live-ingest demo: replay the same corpus through the append/compact/
  // refresh lifecycle — delta commits land in O(batch), compaction merges
  // them into the next sealed generation, and the serving catalog picks up
  // each commit without disturbing in-flight readers.
  std::cout << "\nReplaying the corpus through the live-ingest loop...\n";
  std::vector<tweetdb::Tweet> rows;
  rows.reserve(snapshot->num_rows());
  snapshot->ForEachRow(
      [&rows](const tweetdb::Tweet& t) { rows.push_back(t); });

  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/twimob_quickstart_ingest.twdb";
  std::remove(path.c_str());
  tweetdb::IngestOptions ingest_options;
  ingest_options.partition = tweetdb::PartitionSpec::ForWindow(
      config.corpus.window_start, config.corpus.window_end,
      config.num_shards == 0 ? 1 : config.num_shards);
  auto writer = tweetdb::IngestWriter::Open(path, ingest_options);
  if (!writer.ok()) {
    std::cerr << "ingest open failed: " << writer.status() << "\n";
    return 1;
  }

  const size_t batch = rows.size() / 4 + 1;
  std::vector<tweetdb::Tweet> held_back(
      rows.begin() + static_cast<ptrdiff_t>(3 * batch < rows.size() ? 3 * batch
                                                                    : rows.size()),
      rows.end());
  size_t committed = 0;
  for (size_t off = 0; off + held_back.size() < rows.size(); off += batch) {
    const size_t end = std::min(rows.size() - held_back.size(), off + batch);
    const std::vector<tweetdb::Tweet> slice(rows.begin() + off, rows.begin() + end);
    if (auto s = (*writer)->AppendBatch(slice); !s.ok()) {
      std::cerr << "append failed: " << s << "\n";
      return 1;
    }
    ++committed;
  }
  std::cout << "  committed " << committed << " delta batches ("
            << (*writer)->pending_deltas() << " deltas pending)\n";
  if (auto compacted = (*writer)->Compact(); !compacted.ok()) {
    std::cerr << "compact failed: " << compacted.status() << "\n";
    return 1;
  }
  std::cout << "  compacted into sealed generation "
            << (*writer)->manifest().generation << "\n";

  serve::CatalogOptions catalog_options;
  catalog_options.analysis = config;
  auto catalog = serve::SnapshotCatalog::Open(path, catalog_options);
  if (!catalog.ok()) {
    std::cerr << "catalog open failed: " << catalog.status() << "\n";
    return 1;
  }
  std::cout << "  catalog serves " << (*catalog)->Current()->num_rows()
            << " rows (generation " << (*catalog)->current_generation() << ")\n";

  if (auto s = (*writer)->AppendBatch(held_back); !s.ok()) {
    std::cerr << "append failed: " << s << "\n";
    return 1;
  }
  auto swapped = (*catalog)->Refresh();
  if (!swapped.ok()) {
    std::cerr << "refresh failed: " << swapped.status() << "\n";
    return 1;
  }
  std::cout << "  appended " << held_back.size()
            << " more rows; refresh swapped=" << (*swapped ? "yes" : "no")
            << ", catalog now serves "
            << (*catalog)->Current()->num_rows()
            << " rows (generation " << (*catalog)->current_generation()
            << ", ingest seq " << (*catalog)->current_ingest_seq() << ")\n";

  // The supervised refresher is what a long-running server would Start();
  // one manual step here reports the live loop's health line.
  serve::RefreshSupervisor supervisor(catalog->get());
  (void)supervisor.Step();
  std::cout << "  " << supervisor.health().ToString() << "\n";

  auto described = tweetdb::DescribeDataset(path);
  if (!described.ok()) {
    std::cerr << "describe failed: " << described.status() << "\n";
    return 1;
  }
  std::cout << "\nOn-disk dataset after the ingest loop:\n"
            << described->ToString();
  return 0;
}
