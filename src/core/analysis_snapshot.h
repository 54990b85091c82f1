#ifndef TWIMOB_CORE_ANALYSIS_SNAPSHOT_H_
#define TWIMOB_CORE_ANALYSIS_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/analysis_context.h"
#include "epi/scenario_sweep.h"
#include "core/pipeline.h"
#include "core/population_estimator.h"
#include "core/scales.h"
#include "tweetdb/dataset.h"
#include "tweetdb/generation_pins.h"

namespace twimob::core {

/// Where a snapshot's dataset came from. Default-constructed means an
/// in-memory corpus (generation 0, nothing pinned); the serve layer fills
/// it from the `TWDM` manifest when opening a dataset path.
struct SnapshotSource {
  /// The dataset generation the snapshot analysed (0 = in-memory corpus).
  uint64_t generation = 0;
  /// The manifest's append cursor when the dataset was opened;
  /// (generation, ingest_seq) is the monotonic commit version the serve
  /// layer keys refreshes on, so delta appends within one generation are
  /// picked up just like compactions.
  uint64_t ingest_seq = 0;
  /// Keeps the generation's shard files exempt from writer GC for the
  /// snapshot's lifetime (see tweetdb/generation_pins.h).
  tweetdb::GenerationPin pin;
  /// Recovery outcome when the dataset was opened from storage.
  std::optional<tweetdb::RecoveryReport> recovery;
  /// Wall seconds spent opening/recovering the dataset.
  double recovery_seconds = 0.0;
};

/// Dense per-scale lookup tables the query service answers OD-flow and
/// model-prediction requests from: the observed Twitter flows and every
/// fitted model's estimates, spread from the sparse observation list into
/// row-major `n x n` matrices at build time so a lookup is one load.
struct ScaleServingTables {
  std::string scale_name;
  size_t num_areas = 0;
  /// Observed (extracted) flows, row-major; absent pairs are 0.
  std::vector<double> observed;
  /// models[m] is the dense estimate matrix of result.mobility.models[m]
  /// (paper column order: Gravity 4P, Gravity 2P, Radiation).
  std::vector<std::vector<double>> model_estimates;
  std::vector<std::string> model_names;
};

/// The part of a snapshot that one full analysis builds and every snapshot
/// derived from it by a delta run shares: immutable, held by shared_ptr.
struct AnalysisBase {
  /// The compacted dataset the full analysis ran on.
  tweetdb::TweetDataset dataset;
  /// The sealed index over `dataset`.
  std::optional<PopulationEstimator> estimator;
  /// The analysed scales (paper order, with the metro override applied).
  std::vector<ScaleSpec> specs;
  /// Per scale and area (parallel to `specs`): the sorted distinct user
  /// ids within ε of the centre, and the tweet count, over `dataset`.
  std::vector<std::vector<std::vector<uint64_t>>> area_users;
  std::vector<std::vector<size_t>> area_tweets;
  /// Per scale, when the analysis ran mobility (else empty): the trip
  /// assigner and the flat row-major pairwise centre distances.
  std::vector<mobility::AreaAssigner> assigners;
  std::vector<std::vector<double>> distances;
};

/// Every delta row committed since a snapshot's base, routed to its time
/// shard and compacted, with a sealed index over those rows alone. One per
/// derived snapshot; compaction (a new generation, so a full analysis)
/// folds it into the next base.
struct AnalysisOverlay {
  tweetdb::TweetDataset rows;
  std::optional<PopulationEstimator> estimator;
};

/// An immutable, self-contained analysis artifact: the pinned dataset, the
/// sealed spatial index, the per-scale population estimates and the fitted
/// mobility models of one pipeline run, packaged for concurrent serving.
///
/// A snapshot is a shared base (AnalysisBase: the dataset, index and
/// per-area user lists of the last full analysis) plus, for a snapshot
/// derived by Derive, an overlay (AnalysisOverlay) of the delta rows
/// committed since, and its own results. Either way it answers exactly as a
/// full analysis of the same rows does.
///
/// Immutability contract: after Build/Analyze/Derive returns, nothing in
/// the snapshot ever changes — every accessor is const, queries share one
/// snapshot from many threads without synchronisation, and refreshing to a
/// newer commit means building a NEW snapshot and atomically swapping the
/// pointer (serve::SnapshotCatalog), never mutating this one. In-flight
/// readers keep the old snapshot alive via shared ownership; its storage
/// generation stays pinned (exempt from writer GC) until the last
/// reference drops.
class AnalysisSnapshot {
 public:
  /// Synthesizes a corpus per `config.corpus` and analyses it (the full
  /// staged pipeline). When `ctx` is null a context with the default
  /// thread count is created for the call.
  static Result<AnalysisSnapshot> Build(const PipelineConfig& config,
                                        AnalysisContext* ctx = nullptr);

  /// Analyses an existing dataset (e.g. one opened from storage with
  /// tweetdb::ReadDatasetFiles): compaction, spatial index, population
  /// estimates and — when `config.run_mobility` — trip extraction and
  /// model fits. `source` records the dataset's provenance and carries the
  /// generation pin the snapshot keeps for its lifetime.
  static Result<AnalysisSnapshot> Analyze(tweetdb::TweetDataset dataset,
                                          const PipelineConfig& config,
                                          SnapshotSource source = {},
                                          AnalysisContext* ctx = nullptr);

  /// Derives the successor of `installed` from the rows of the delta files
  /// committed since it, `delta_rows` (tweetdb::ReadDeltaFiles), in
  /// O(new data + overlay + touched users' rows) rather than O(history):
  /// the result shares installed's base, carries a new overlay, and equals
  /// a full Analyze of the base, overlay and delta rows bitwise (see
  /// DESIGN.md §3.7). `config` must be the one installed was analysed
  /// with. `source.recovery`, when set, is the cumulative report of the
  /// derived commit; the trace's `recover` record covers only its deltas
  /// from installed.ingest_seq() on.
  static Result<AnalysisSnapshot> Derive(const AnalysisSnapshot& installed,
                                         tweetdb::TweetDataset delta_rows,
                                         const PipelineConfig& config,
                                         SnapshotSource source = {},
                                         AnalysisContext* ctx = nullptr);

  AnalysisSnapshot(AnalysisSnapshot&&) noexcept = default;
  AnalysisSnapshot& operator=(AnalysisSnapshot&&) noexcept = default;
  AnalysisSnapshot(const AnalysisSnapshot&) = delete;
  AnalysisSnapshot& operator=(const AnalysisSnapshot&) = delete;

  /// Rows the snapshot analysed: the base's plus the overlay's.
  size_t num_rows() const {
    return base_->dataset.num_rows() +
           (overlay_ != nullptr ? overlay_->rows.num_rows() : 0);
  }

  /// Invokes `fn(const tweetdb::Tweet&)` for every row the snapshot
  /// analysed: the base's in storage order, then the overlay's.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    base_->dataset.ForEachRow(fn);
    if (overlay_ != nullptr) overlay_->rows.ForEachRow(fn);
  }

  /// The shared base, and the overlay (null unless the snapshot was
  /// derived by Derive).
  const std::shared_ptr<const AnalysisBase>& base() const { return base_; }
  const std::shared_ptr<const AnalysisOverlay>& overlay() const {
    return overlay_;
  }

  /// Per-scale OD matrices of the extracted trips (parallel to
  /// result().mobility; empty without mobility).
  const std::vector<mobility::OdMatrix>& trips() const { return trips_; }

  /// The dataset generation (0 for in-memory corpora).
  uint64_t generation() const { return source_.generation; }

  /// The append cursor the snapshot was analysed at; with generation()
  /// this is the commit version of the analysed data.
  uint64_t ingest_seq() const { return source_.ingest_seq; }

  /// Recovery outcome of opening the dataset, when it came from storage.
  const std::optional<tweetdb::RecoveryReport>& recovery() const {
    return source_.recovery;
  }

  /// The sealed-index population estimator (radius queries at any ε),
  /// over the base's rows and the overlay's.
  const PopulationEstimator& estimator() const { return *estimator_; }

  /// The scales the snapshot was analysed at (paper order, with the
  /// config's metro override applied).
  const std::vector<ScaleSpec>& specs() const { return base_->specs; }

  /// Everything the pipeline computed (population, mobility, trace).
  const PipelineResult& result() const { return result_; }

  /// Serving tables of scale `i` (parallel to specs()); empty vector when
  /// the snapshot was built with `run_mobility = false`.
  const std::vector<ScaleServingTables>& serving_tables() const {
    return serving_tables_;
  }

  /// The epidemic what-if sweep engine over this snapshot's fitted OD
  /// matrices — one SweepScaleInput per serving-tables scale (census
  /// populations + observed extracted flows), lowered to CSR once at seal
  /// time. Null when the snapshot has no mobility analysis
  /// (`run_mobility = false`) or a scale was un-sweepable (e.g. a
  /// zero-population area). Shared so what-if answers can outlive a
  /// catalog swap along with the snapshot.
  const std::shared_ptr<const epi::ScenarioSweep>& scenario_sweep() const {
    return scenario_sweep_;
  }

 private:
  AnalysisSnapshot() = default;

  /// Assembles the immutable artifact from a finished pipeline run.
  static AnalysisSnapshot Seal(struct PipelineState&& state,
                               SnapshotSource source);

  std::shared_ptr<const AnalysisBase> base_;
  std::shared_ptr<const AnalysisOverlay> overlay_;
  SnapshotSource source_;
  std::optional<PopulationEstimator> estimator_;
  std::vector<mobility::OdMatrix> trips_;
  PipelineResult result_;
  std::vector<ScaleServingTables> serving_tables_;
  std::shared_ptr<const epi::ScenarioSweep> scenario_sweep_;
};

}  // namespace twimob::core

#endif  // TWIMOB_CORE_ANALYSIS_SNAPSHOT_H_
