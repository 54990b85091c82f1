#ifndef TWIMOB_CORE_STAGE_ENGINE_H_
#define TWIMOB_CORE_STAGE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/analysis_context.h"
#include "core/pipeline.h"
#include "tweetdb/dataset.h"

namespace twimob::core {

struct AnalysisRun;
struct AnalysisScales;
class AnalysisSnapshot;

/// The per-scale intermediates of one mobility analysis, handed from trip
/// extraction to the model fits and, in a full run, kept by the sealed
/// snapshot (the OD matrix) and its shared per-scale context (assigner and
/// distances) for the delta path.
struct ScaleWork {
  std::vector<double> masses;     ///< per-area Twitter population
  std::vector<double> distances;  ///< flat row-major pairwise matrix
  std::vector<double> observed;   ///< observed flows, parallel to the
                                  ///< scale result's observations
  std::optional<mobility::OdMatrix> od;  ///< the extracted trips
  std::optional<mobility::AreaAssigner> assigner;  ///< full runs only
};

/// Mutable state shared by the stages of one pipeline run. Create one per
/// run; stages fill it in sequence, and `result` holds the final output.
struct PipelineState {
  explicit PipelineState(const PipelineConfig& c) : config(c) {}

  PipelineState(const PipelineState&) = delete;
  PipelineState& operator=(const PipelineState&) = delete;

  PipelineConfig config;

  /// The partitioned store this run analyses: filled by the `synthesize`
  /// stage (streaming ingest, config.num_shards time shards) or moved in
  /// by the caller (AnalysisSnapshot::Analyze).
  tweetdb::TweetDataset dataset;

  /// Recovery outcome of loading `dataset` from storage, set by the caller
  /// (alongside `recovery_seconds`) when the run analyses a dataset opened
  /// with tweetdb::ReadDatasetFiles. The engine prepends a "recover" trace
  /// record from it, and a degraded report marks every stage record of the
  /// run as running on partial data (StageRecord::degraded).
  std::optional<tweetdb::RecoveryReport> recovery;
  /// Wall seconds the caller spent opening/recovering the dataset.
  double recovery_seconds = 0.0;

  /// Filled by the `index` stage; later stages require it.
  std::optional<PopulationEstimator> estimator;

  /// The paper scales (with the config's metro override applied), filled on
  /// first use by any stage that needs them.
  std::vector<ScaleSpec> specs;

  /// Intermediates handed from `trips@<scale>` to `fit@<scale>`, one entry
  /// per completed trips stage (parallel to `result.mobility`).
  std::vector<ScaleWork> scale_work;

  /// Each scale's per-area sorted distinct user ids, kept by the
  /// `population` stage for the snapshot's first run (parallel to `specs`).
  std::vector<std::vector<std::vector<uint64_t>>> area_users;

  /// A delta run's input (StageEngine::DeltaStages): the snapshot it
  /// derives from; `dataset` then holds only the new delta rows. Null for
  /// a full run.
  const AnalysisSnapshot* installed = nullptr;
  /// A rebase run's input: the rows of the compacted generation's shards,
  /// every one of them already held by `installed` (the `rebase` record's
  /// `merged_rows`).
  size_t merged_rows = 0;
  /// A delta run's output: the installed snapshot's per-scale context,
  /// shared, and the derived snapshot's runs. A full run leaves both
  /// empty; sealing builds them.
  std::shared_ptr<const AnalysisScales> scales;
  std::vector<std::shared_ptr<const AnalysisRun>> runs;

  PipelineResult result;
};

/// A named pipeline unit. Stages run sequentially on the orchestration
/// thread and parallelise internally via ctx.pool(); every implementation
/// must keep its result independent of the pool's thread count (fixed
/// chunking, ordered merges — see DESIGN.md "Staged execution engine").
class Stage {
 public:
  virtual ~Stage() = default;

  /// Stable stage name, e.g. "compact" or "trips@National".
  virtual const std::string& name() const = 0;

  /// Runs the stage. `record` is this stage's trace record (wall time is
  /// filled by the engine); composite stages may append extra sub-records
  /// to ctx.trace() before returning.
  virtual Status Run(AnalysisContext& ctx, PipelineState& state,
                     StageRecord& record) = 0;
};

using StageList = std::vector<std::unique_ptr<Stage>>;

/// Assembles and executes named stages over a shared AnalysisContext. The
/// benches and examples compose stage lists instead of hand-wiring the
/// corpus → population → trips → fit sequence.
class StageEngine {
 public:
  /// The full paper pipeline: synthesize, then AnalysisStages().
  static StageList FullPipeline(const PipelineConfig& config);

  /// The analysis stages for an existing dataset: `compact`, `index`,
  /// `population`, and (when config.run_mobility) `trips@<scale>` +
  /// `fit@<scale>` per paper scale.
  static StageList AnalysisStages(const PipelineConfig& config);

  /// The delta run of state.installed's successor: with `rebase`, a
  /// `rebase` stage that carries the installed runs onto the compacted
  /// generation; one `delta` stage — the new rows sealed as a run, runs
  /// merged by size, population from the runs' disjoint per-area user
  /// lists, trips of the touched users replayed — then (when
  /// config.run_mobility) `fit@<scale>` per paper scale.
  static StageList DeltaStages(const PipelineConfig& config, bool rebase = false);

  /// Runs the stages in order, timing each into ctx.trace() (and
  /// state.result.trace). Stops at the first failing stage; its partial
  /// record is still appended to the trace.
  static Status Run(AnalysisContext& ctx, const StageList& stages,
                    PipelineState& state);
};

/// The scales a run with `config` analyses: the paper scales with the
/// config's metropolitan radius override applied (looked up by scale, never
/// by position).
std::vector<ScaleSpec> ResolveScaleSpecs(const PipelineConfig& config);

/// Pool-parallel flat row-major pairwise great-circle distance matrix of
/// the area centres. Each pair is computed once (upper triangle) and
/// mirrored, matching the serial evaluation exactly.
std::vector<double> PairwiseDistances(const std::vector<census::Area>& areas,
                                      ThreadPool& pool);

/// Fits the paper's three models (Gravity 4P, Gravity 2P, Radiation — in
/// paper column order) concurrently on the pool. `per_model_seconds`, when
/// non-null, receives three per-model wall times.
Result<std::vector<ModelSummary>> FitPaperModels(
    const std::vector<mobility::FlowObservation>& observations,
    const std::vector<census::Area>& areas, const std::vector<double>& masses,
    const std::vector<double>& observed, ThreadPool& pool,
    double* per_model_seconds = nullptr);

/// Trip extraction of one scale — the `trips@<scale>` stage's work: extracts
/// the OD matrix from the compacted `dataset`, then builds the off-diagonal
/// observations with `population`'s unique users as the per-area masses
/// (the paper's Twitter population) and the pairwise centre distances.
/// `population` must be the estimate of `spec`. Fills `scale` (name,
/// radius, extraction counters, observations) and `work` (the OD matrix
/// and the scale's assigner included).
Status ExtractScaleTrips(const tweetdb::TweetDataset& dataset,
                         const ScaleSpec& spec,
                         const PopulationEstimateResult& population,
                         ThreadPool& pool, ScaleMobilityResult* scale,
                         ScaleWork* work);

/// The mobility analysis of one scale outside a staged run (custom scales,
/// experiments): `estimator`'s estimate of `spec`, then ExtractScaleTrips
/// and FitPaperModels — the helpers the `population`, `trips@<scale>` and
/// `fit@<scale>` stages run, so the result equals the staged run's for the
/// same dataset and spec. `estimator` must index `dataset`.
Result<ScaleMobilityResult> AnalyzeScaleMobility(
    const tweetdb::TweetDataset& dataset, const ScaleSpec& spec,
    const PopulationEstimator& estimator, ThreadPool& pool);

}  // namespace twimob::core

#endif  // TWIMOB_CORE_STAGE_ENGINE_H_
