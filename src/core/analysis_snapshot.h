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

/// The per-scale context every snapshot of one lineage shares: built by
/// the full analysis that opened it, then carried by every snapshot derived
/// or rebased from it. Immutable, held by shared_ptr.
struct AnalysisScales {
  /// The analysed scales (paper order, with the metro override applied).
  std::vector<ScaleSpec> specs;
  /// Per scale: the one map from a point to its area. Trip extraction, the
  /// delta path's trip replays and served point queries all assign by it.
  std::vector<mobility::AreaAssigner> assigners;
  /// Per scale, when the analysis ran mobility (else empty): the flat
  /// row-major pairwise centre distances.
  std::vector<std::vector<double>> distances;
};

/// One sealed run of a snapshot's rows: immutable, held by shared_ptr and
/// shared by every later snapshot that still holds those rows. The runs of
/// a snapshot partition its rows, oldest first; the oldest is the rows the
/// opening full analysis read.
struct AnalysisRun {
  /// The run's rows, routed to time shards and compacted by (user, time).
  tweetdb::TweetDataset rows;
  /// The sealed index over `rows`.
  std::optional<PopulationEstimator> estimator;
  /// Per scale and area (parallel to AnalysisScales::specs): the sorted ids
  /// of the users within ε of the centre in this run that no older run
  /// holds — so the runs' lists are disjoint and their union is the area's
  /// distinct users — and the run's tweets within ε.
  std::vector<std::vector<std::vector<uint64_t>>> new_users;
  std::vector<std::vector<size_t>> tweets;
  /// Delta batches (one per Derive that brought rows) merged into the run;
  /// 0 for the oldest run's own rows. The merge rule reads it.
  size_t batches = 0;
};

/// An immutable, self-contained analysis artifact: the pinned dataset, the
/// sealed spatial index, the per-scale population estimates and the fitted
/// mobility models of one pipeline run, packaged for concurrent serving.
///
/// A snapshot is a log of sealed runs (AnalysisRun) over shared per-scale
/// context (AnalysisScales), plus its own results. It comes from one of
/// three paths, and answers exactly as a full analysis of its rows does on
/// each:
///   * **full** (Build, Analyze): the whole dataset analysed; one run.
///   * **delta** (Derive, same generation): the installed snapshot's runs
///     plus the new delta rows sealed as one more run, runs then merged by
///     size (the logarithmic method, see DESIGN.md §3.7).
///   * **rebase** (Derive onto a generation compacted from the installed
///     one): the installed runs and results carried verbatim under the new
///     generation's pin, then the delta path for the deltas since.
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
  /// O(new data + touched users' rows), amortized, never O(history): the
  /// result carries installed's runs, seals the delta rows as a new run
  /// (merging runs by size), and equals a full Analyze of the same rows
  /// bitwise (see DESIGN.md §3.7). `config` must be the one installed was
  /// analysed with. When `source.generation` differs from installed's, the
  /// run is a rebase: the caller vouches that the new generation's rows are
  /// exactly installed's minus the deltas from installed.ingest_seq() on
  /// (serve::SnapshotCatalog checks the v8 manifest provenance), and the
  /// trace gains a `rebase` record. `source.recovery`, when set, is the
  /// cumulative report of the derived commit; the trace's `recover` record
  /// covers only its deltas from installed.ingest_seq() on.
  static Result<AnalysisSnapshot> Derive(const AnalysisSnapshot& installed,
                                         tweetdb::TweetDataset delta_rows,
                                         const PipelineConfig& config,
                                         SnapshotSource source = {},
                                         AnalysisContext* ctx = nullptr);

  AnalysisSnapshot(AnalysisSnapshot&&) noexcept = default;
  AnalysisSnapshot& operator=(AnalysisSnapshot&&) noexcept = default;
  AnalysisSnapshot(const AnalysisSnapshot&) = delete;
  AnalysisSnapshot& operator=(const AnalysisSnapshot&) = delete;

  /// Rows the snapshot analysed: every run's.
  size_t num_rows() const {
    size_t rows = 0;
    for (const auto& run : runs_) rows += run->rows.num_rows();
    return rows;
  }

  /// Invokes `fn(const tweetdb::Tweet&)` for every row the snapshot
  /// analysed: run by run, oldest first, each in storage order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (const auto& run : runs_) run->rows.ForEachRow(fn);
  }

  /// The sealed runs, oldest first, and the shared per-scale context.
  const std::vector<std::shared_ptr<const AnalysisRun>>& runs() const {
    return runs_;
  }
  const std::shared_ptr<const AnalysisScales>& scales() const { return scales_; }

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
  /// over every run's index.
  const PopulationEstimator& estimator() const { return *estimator_; }

  /// The scales the snapshot was analysed at (paper order, with the
  /// config's metro override applied).
  const std::vector<ScaleSpec>& specs() const { return scales_->specs; }

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

  std::shared_ptr<const AnalysisScales> scales_;
  std::vector<std::shared_ptr<const AnalysisRun>> runs_;
  SnapshotSource source_;
  std::optional<PopulationEstimator> estimator_;
  std::vector<mobility::OdMatrix> trips_;
  PipelineResult result_;
  std::vector<ScaleServingTables> serving_tables_;
  std::shared_ptr<const epi::ScenarioSweep> scenario_sweep_;
};

}  // namespace twimob::core

#endif  // TWIMOB_CORE_ANALYSIS_SNAPSHOT_H_
