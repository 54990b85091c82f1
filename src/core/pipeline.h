#ifndef TWIMOB_CORE_PIPELINE_H_
#define TWIMOB_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/analysis_context.h"
#include "core/population_estimator.h"
#include "core/scales.h"
#include "mobility/gravity_model.h"
#include "mobility/model_eval.h"
#include "mobility/radiation_model.h"
#include "mobility/trip_extractor.h"
#include "synth/tweet_generator.h"

namespace twimob::core {

/// Fitted parameters + Table II metrics of one model at one scale.
struct ModelSummary {
  std::string model_name;
  mobility::ModelMetrics metrics;
  double log10_c = 0.0;
  double alpha = 1.0;   ///< gravity origin exponent (1 for 2P / radiation)
  double beta = 1.0;    ///< gravity destination exponent
  double gamma = 0.0;   ///< gravity distance exponent (0 for radiation)
  /// Per-pair estimated flows, parallel to the scale's observations.
  std::vector<double> estimated;
};

/// Everything the mobility analysis produced at one scale (Figure 4 column
/// and Table II row).
struct ScaleMobilityResult {
  std::string scale_name;
  double radius_m = 0.0;
  mobility::ExtractionStats extraction;
  /// Off-diagonal pairs with positive observed flow.
  std::vector<mobility::FlowObservation> observations;
  /// Gravity 4P, Gravity 2P, Radiation — in paper column order.
  std::vector<ModelSummary> models;
};

/// End-to-end output of the paper's pipeline on one corpus.
struct PipelineResult {
  synth::GenerationReport generation;
  /// Per-scale population estimates (paper order).
  std::vector<PopulationEstimateResult> population;
  /// Figure 3(a)'s pooled 60-sample correlation.
  stats::CorrelationResult pooled_population_correlation;
  /// Per-scale mobility results (paper order).
  std::vector<ScaleMobilityResult> mobility;
  /// Per-stage instrumentation of this run (wall time, scan statistics,
  /// row/trip/pair counters), in stage-completion order.
  PipelineTrace trace;
};

/// Pipeline configuration: the corpus plus optional scale-radius overrides.
struct PipelineConfig {
  synth::CorpusConfig corpus;
  /// When > 0, replaces the metropolitan ε (Figure 3(b) uses 500 m).
  double metro_radius_override_m = 0.0;
  /// Skip the mobility stage (population-only runs are much faster).
  bool run_mobility = true;
  /// Number of time shards the synthesized corpus is partitioned into
  /// (PartitionSpec::ForWindow over the collection window). 0 or 1 keeps
  /// the single-shard layout; results are byte-identical for every value
  /// (DESIGN.md §3.2).
  size_t num_shards = 1;
};

}  // namespace twimob::core

#endif  // TWIMOB_CORE_PIPELINE_H_
