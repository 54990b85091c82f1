#ifndef TWIMOB_CORE_PREDICTOR_H_
#define TWIMOB_CORE_PREDICTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/pipeline.h"
#include "epi/seir.h"
#include "epi/stochastic_seir.h"

namespace twimob::core {

/// Which flow estimate drives the epidemic simulation.
enum class FlowSource {
  kExtracted,       ///< raw Twitter OD counts
  kGravity2Param,   ///< fitted Gravity 2-param predictions
  kGravity4Param,   ///< fitted Gravity 4-param predictions
  kRadiation,       ///< fitted Radiation predictions
};

std::string FlowSourceName(FlowSource source);

/// Prediction for one area.
struct AreaPrediction {
  uint32_t area_id = 0;
  std::string name;
  double census_population = 0.0;
  /// First simulated day the infectious count exceeds 10; negative when
  /// the wave never arrives within the horizon.
  double arrival_day = -1.0;
  /// Final attack rate: recovered / population at the end of the horizon.
  double attack_rate = 0.0;
};

/// Output of one prediction run.
struct SpreadPrediction {
  FlowSource source = FlowSource::kExtracted;
  std::string seed_area;
  std::vector<AreaPrediction> areas;
  /// National epidemic curve, one entry per simulated day.
  std::vector<epi::SeirTotals> daily_totals;
  /// Monte-Carlo outbreak probability from the stochastic model (only when
  /// requested in the config).
  double outbreak_probability = -1.0;
};

/// Configuration of the predictor.
struct PredictorConfig {
  epi::SeirParams seir;
  FlowSource source = FlowSource::kGravity2Param;
  double seed_infections = 50.0;
  size_t horizon_days = 365;
  /// > 0 enables the stochastic outbreak-probability estimate with this
  /// many Monte-Carlo trials.
  int outbreak_trials = 0;
  uint64_t stochastic_seed = 7;
};

/// The paper's future-work deliverable, assembled from the pipeline pieces:
/// "use the models to devise a framework for the prediction of disease
/// spread". Construct once from an analysed corpus, predict for any seed
/// city and flow source.
class DiseaseSpreadPredictor {
 public:
  /// Builds the predictor from an already-computed national mobility
  /// analysis (see AnalyzeScaleMobility). The spec must be the scale
  /// the mobility result was computed on.
  static Result<DiseaseSpreadPredictor> Create(const ScaleSpec& spec,
                                               const ScaleMobilityResult& mobility);

  /// Runs one prediction seeded at the named area.
  Result<SpreadPrediction> Predict(const std::string& seed_area,
                                   const PredictorConfig& config) const;

  const ScaleSpec& spec() const { return spec_; }

 private:
  DiseaseSpreadPredictor(ScaleSpec spec, std::vector<mobility::OdMatrix> flows)
      : spec_(std::move(spec)), flows_(std::move(flows)) {}

  /// Flow matrix for a source (indexed by FlowSource).
  const mobility::OdMatrix& FlowsFor(FlowSource source) const;

  ScaleSpec spec_;
  std::vector<mobility::OdMatrix> flows_;  ///< one per FlowSource value
};

}  // namespace twimob::core

#endif  // TWIMOB_CORE_PREDICTOR_H_
