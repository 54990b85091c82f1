#include "reference/paper_oracle.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "core/population_estimator.h"
#include "core/stage_engine.h"
#include "geo/geodesic.h"
#include "mobility/gravity_model.h"

namespace twimob::reference {

std::vector<tweetdb::Tweet> StoredRows(const tweetdb::TweetDataset& dataset) {
  std::vector<tweetdb::Tweet> rows;
  rows.reserve(dataset.num_rows());
  dataset.ForEachRow([&rows](const tweetdb::Tweet& t) { rows.push_back(t); });
  return rows;
}

PopulationCounts CountPopulation(const std::vector<tweetdb::Tweet>& rows,
                                 const std::vector<census::Area>& areas,
                                 double radius_m) {
  PopulationCounts counts;
  for (const census::Area& area : areas) {
    std::unordered_set<uint64_t> users;
    size_t tweets = 0;
    for (const tweetdb::Tweet& t : rows) {
      if (geo::HaversineMeters(area.center, t.pos) <= radius_m) {
        users.insert(t.user_id);
        ++tweets;
      }
    }
    counts.unique_users.push_back(users.size());
    counts.tweets.push_back(tweets);
  }
  return counts;
}

std::optional<size_t> NearestArea(const geo::LatLon& p,
                                  const std::vector<census::Area>& areas,
                                  double radius_m) {
  std::optional<size_t> nearest;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < areas.size(); ++i) {
    const double d = geo::HaversineMeters(p, areas[i].center);
    if (d <= radius_m && d < best) {
      best = d;
      nearest = i;
    }
  }
  return nearest;
}

mobility::OdMatrix CountTrips(const std::vector<tweetdb::Tweet>& rows,
                              const std::vector<census::Area>& areas,
                              double radius_m, const mobility::TripOptions& options,
                              mobility::ExtractionStats* stats) {
  std::vector<tweetdb::Tweet> sorted = rows;
  std::sort(sorted.begin(), sorted.end(), tweetdb::UserTimeLess);

  mobility::OdMatrix od = *mobility::OdMatrix::Create(areas.size());
  *stats = mobility::ExtractionStats{};
  std::vector<std::optional<size_t>> assigned;
  assigned.reserve(sorted.size());
  for (const tweetdb::Tweet& t : sorted) {
    assigned.push_back(NearestArea(t.pos, areas, radius_m));
    ++stats->tweets_seen;
    if (assigned.back().has_value()) ++stats->tweets_in_some_area;
  }
  for (size_t k = 1; k < sorted.size(); ++k) {
    const tweetdb::Tweet& from = sorted[k - 1];
    const tweetdb::Tweet& to = sorted[k];
    if (from.user_id != to.user_id) continue;
    ++stats->consecutive_pairs;
    if (options.max_gap_seconds > 0 &&
        to.timestamp - from.timestamp > options.max_gap_seconds) {
      ++stats->gap_filtered_pairs;
      continue;
    }
    const std::optional<size_t>& a = assigned[k - 1];
    const std::optional<size_t>& b = assigned[k];
    if (!a.has_value() || !b.has_value()) continue;
    if (*a != *b) {
      od.AddFlow(*a, *b, 1.0);
      ++stats->inter_area_trips;
    } else {
      ++stats->intra_area_pairs;
    }
  }
  return od;
}

Result<core::ScaleMobilityResult> FitScale(const core::ScaleSpec& spec,
                                           const mobility::OdMatrix& od,
                                           const mobility::ExtractionStats& extraction,
                                           const PopulationCounts& population) {
  const size_t n = spec.areas.size();
  std::vector<double> masses;
  for (const size_t users : population.unique_users) {
    masses.push_back(static_cast<double>(users));
  }
  std::vector<double> distances(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) {
        distances[i * n + j] =
            geo::HaversineMeters(spec.areas[i].center, spec.areas[j].center);
      }
    }
  }

  core::ScaleMobilityResult scale;
  scale.scale_name = spec.name;
  scale.radius_m = spec.radius_m;
  scale.extraction = extraction;
  scale.observations = mobility::BuildObservations(od, masses, distances);
  std::vector<double> observed;
  for (const mobility::FlowObservation& o : scale.observations) {
    observed.push_back(o.flow);
  }
  ThreadPool serial(1);
  auto models =
      core::FitPaperModels(scale.observations, spec.areas, masses, observed, serial);
  if (!models.ok()) return models.status();
  scale.models = std::move(*models);
  return scale;
}

Result<core::PipelineResult> AnalyzeRows(const std::vector<tweetdb::Tweet>& rows,
                                         const std::vector<core::ScaleSpec>& specs) {
  core::PipelineResult result;
  std::vector<PopulationCounts> counts;
  for (const core::ScaleSpec& spec : specs) {
    counts.push_back(CountPopulation(rows, spec.areas, spec.radius_m));
    auto population = core::AssemblePopulationEstimate(
        spec, counts.back().unique_users, counts.back().tweets);
    if (!population.ok()) return population.status();
    result.population.push_back(std::move(*population));
  }
  auto pooled = core::PooledPopulationCorrelation(result.population);
  if (!pooled.ok()) return pooled.status();
  result.pooled_population_correlation = *pooled;

  for (size_t s = 0; s < specs.size(); ++s) {
    mobility::ExtractionStats extraction;
    const mobility::OdMatrix od = CountTrips(
        rows, specs[s].areas, specs[s].radius_m, mobility::TripOptions{}, &extraction);
    auto scale = FitScale(specs[s], od, extraction, counts[s]);
    if (!scale.ok()) return scale.status();
    result.mobility.push_back(std::move(*scale));
  }
  return result;
}

}  // namespace twimob::reference
