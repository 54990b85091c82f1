#ifndef TWIMOB_CORE_DELTA_ACCUMULATOR_H_
#define TWIMOB_CORE_DELTA_ACCUMULATOR_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/analysis_context.h"
#include "core/pipeline.h"
#include "core/population_estimator.h"
#include "core/scales.h"
#include "mobility/od_matrix.h"
#include "mobility/trip_extractor.h"
#include "tweetdb/tweet.h"

namespace twimob::core {

/// What one DeltaAccumulator::Refresh produces: the per-scale population
/// estimates, pooled correlation and mobility results of the rows ingested
/// so far — the analysis slice of a PipelineResult, without the synthesis
/// metadata and stage trace a full pipeline run carries.
struct IncrementalAnalysis {
  std::vector<PopulationEstimateResult> population;
  stats::CorrelationResult pooled_population_correlation;
  std::vector<ScaleMobilityResult> mobility;
};

/// Incremental analysis state for the live-ingest loop: per-area
/// unique-user sets, tweet counts and OD-trip matrices at every paper
/// scale, maintained in O(new data) per batch so a model refresh never
/// rescans the corpus.
///
/// Equivalence contract: after ingesting any sequence of batches, Refresh()
/// returns results bitwise-identical to a from-scratch
/// AnalysisSnapshot::Build/Analyze over the merged corpus (swept by
/// delta_accumulator_test.cc across batch sizes and shard counts). The
/// contract holds because every aggregate is integral — unique-user set
/// sizes, tweet counts, unit trip flows — so incremental add/subtract is
/// exact, and the floating-point tail (rescaling, correlation, distances,
/// model fits) runs through the exact same code the staged pipeline uses
/// (AssemblePopulationEstimate, PairwiseDistances, BuildObservations,
/// FitPaperModels) on identical inputs. Ingested positions are quantised
/// through the storage fixed-point codec so in-memory state matches what a
/// rebuild reads back from disk.
///
/// Trip semantics are the pipeline's defaults (TripOptions{}: unlimited
/// gap). Per-user tweet sequences are kept in (time, lat, lon) order — the
/// same total order a globally compacted table stores — and a
/// batch touching a user replays only that user's sequence (subtract old
/// contributions, merge rows, add new ones).
///
/// Not thread-safe: one writer thread ingests and refreshes (the serving
/// layer publishes refreshed snapshots, not this accumulator).
class DeltaAccumulator {
 public:
  /// Creates an accumulator analysing ResolveScaleSpecs(config) — the same
  /// scales a pipeline run with `config` analyses.
  static Result<DeltaAccumulator> Create(const PipelineConfig& config);

  DeltaAccumulator(DeltaAccumulator&&) noexcept = default;
  DeltaAccumulator& operator=(DeltaAccumulator&&) noexcept = default;
  DeltaAccumulator(const DeltaAccumulator&) = delete;
  DeltaAccumulator& operator=(const DeltaAccumulator&) = delete;

  /// Folds one batch of validated rows into every scale's state. Cost is
  /// O(batch + touched users' sequences), independent of corpus size.
  Status Ingest(const std::vector<tweetdb::Tweet>& batch);

  /// Assembles the current analysis: population estimates, pooled
  /// correlation, observations and model fits per scale. When `ctx` is
  /// null a context with the default thread count is created for the call;
  /// results are identical for any thread count.
  Result<IncrementalAnalysis> Refresh(AnalysisContext* ctx = nullptr);

  /// Rows ingested so far.
  size_t num_rows() const { return num_rows_; }
  /// Distinct users ingested so far.
  size_t num_users() const { return user_rows_.size(); }
  /// The scales the accumulator analyses (paper order).
  const std::vector<ScaleSpec>& specs() const { return specs_; }

 private:
  /// Incremental state of one scale.
  struct ScaleState {
    explicit ScaleState(const ScaleSpec& spec)
        : assigner(spec.areas, spec.radius_m),
          area_users(spec.areas.size()),
          area_tweets(spec.areas.size(), 0) {}

    mobility::AreaAssigner assigner;  ///< trip assignment (nearest within ε)
    /// Per-area distinct users with a tweet within ε (inclusive, all areas
    /// — the population-count predicate, not the nearest-centre one).
    std::vector<std::unordered_set<uint64_t>> area_users;
    std::vector<size_t> area_tweets;
    std::optional<mobility::OdMatrix> od;
    mobility::ExtractionStats stats;
    std::vector<double> distances;  ///< cached pairwise centre distances
  };

  DeltaAccumulator() = default;

  /// Replays one user's full sequence through the trip state machine of
  /// scale `s`, adding (`sign` +1) or subtracting (`sign` -1) its flow and
  /// counter contributions.
  void ReplayUserTrips(size_t s, const std::vector<tweetdb::Tweet>& rows,
                       int sign);

  std::vector<ScaleSpec> specs_;
  std::vector<ScaleState> scales_;  ///< parallel to specs_
  /// Per-user sequences in (time, lat, lon) order — each user's slice of
  /// the compacted dataset's global (user, time, lat, lon) order.
  std::unordered_map<uint64_t, std::vector<tweetdb::Tweet>> user_rows_;
  size_t num_rows_ = 0;
};

}  // namespace twimob::core

#endif  // TWIMOB_CORE_DELTA_ACCUMULATOR_H_
