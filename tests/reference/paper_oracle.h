#ifndef TWIMOB_TESTS_REFERENCE_PAPER_ORACLE_H_
#define TWIMOB_TESTS_REFERENCE_PAPER_ORACLE_H_

// A brute-force reference for the paper's two definitions (PAPER.md §1):
//
//   * Twitter population of an area: the distinct users (and the tweets)
//     within ε of the area centre;
//   * a trip: a pair of consecutive tweets by the same user that land in
//     two different areas.
//
// Nothing here uses an index, a zone map, a block, a shard or a thread
// pool: population tests every row against every centre, and trips walk a
// sorted copy of the rows. The model fits reuse the production fit code on
// the oracle's own OD matrix, masses and distances, so a disagreement
// with the pipeline always points at the data path that fed the fits.

#include <optional>
#include <vector>

#include "census/area.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "core/scales.h"
#include "mobility/od_matrix.h"
#include "mobility/trip_extractor.h"
#include "tweetdb/dataset.h"

namespace twimob::reference {

/// Every stored row of `dataset`, read back through ForEachRow so each
/// coordinate carries the store's fixed-point quantisation.
std::vector<tweetdb::Tweet> StoredRows(const tweetdb::TweetDataset& dataset);

/// Per-area population counts of one scale, in area order.
struct PopulationCounts {
  std::vector<size_t> unique_users;  ///< distinct users within ε
  std::vector<size_t> tweets;        ///< tweets within ε
};

/// Counts, for every area, the rows with HaversineMeters(centre, p) <= ε.
PopulationCounts CountPopulation(const std::vector<tweetdb::Tweet>& rows,
                                 const std::vector<census::Area>& areas,
                                 double radius_m);

/// The nearest centre within ε of `p`, the lowest index winning ties, or
/// nullopt when no centre is that close.
std::optional<size_t> NearestArea(const geo::LatLon& p,
                                  const std::vector<census::Area>& areas,
                                  double radius_m);

/// Extracts the OD matrix from a (user, time, lat, lon)-sorted copy of
/// `rows`: every same-user consecutive pair whose points map to two
/// different areas is one trip, unless `options.max_gap_seconds` is set and
/// the pair is further apart in time. Fills every ExtractionStats counter.
mobility::OdMatrix CountTrips(const std::vector<tweetdb::Tweet>& rows,
                              const std::vector<census::Area>& areas,
                              double radius_m, const mobility::TripOptions& options,
                              mobility::ExtractionStats* stats);

/// One scale's mobility result from the oracle's OD matrix, with the
/// oracle's unique users as masses and serially computed pairwise centre
/// distances, through BuildObservations and FitPaperModels.
Result<core::ScaleMobilityResult> FitScale(const core::ScaleSpec& spec,
                                           const mobility::OdMatrix& od,
                                           const mobility::ExtractionStats& extraction,
                                           const PopulationCounts& population);

/// The whole paper analysis of `rows` at `specs` — population, the pooled
/// correlation, and trips and fits per scale. The pipeline must reproduce
/// every field bit for bit (the trace and the generation report aside).
Result<core::PipelineResult> AnalyzeRows(const std::vector<tweetdb::Tweet>& rows,
                                         const std::vector<core::ScaleSpec>& specs);

}  // namespace twimob::reference

#endif  // TWIMOB_TESTS_REFERENCE_PAPER_ORACLE_H_
