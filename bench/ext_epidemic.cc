// Extension E1 (the paper's stated future work, §V): drive a
// metapopulation SEIR simulation from the mobility estimated out of
// tweets, and compare epidemic arrival times under the extracted flows vs
// the Gravity-2P and Radiation model flows.
//
// Since PR 10 this runs on epi::ScenarioSweep: the three flow estimates
// are three SweepScaleInputs of one sweep, and one grid expansion covers
// all of them in a single engine call — bit-identical to the legacy
// per-flow MetapopulationSeir loops it replaces (the sweep's
// bit-compatibility contract). `--json <path>` writes the arrival tables
// and mean errors as a machine-readable profile.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/stage_engine.h"
#include "epi/scenario_sweep.h"

namespace twimob {
namespace {

// Builds an OD matrix of model-estimated flows on the observation pairs.
mobility::OdMatrix ModelFlows(const core::ScaleMobilityResult& mobility,
                              size_t model_index, size_t num_areas) {
  auto od = mobility::OdMatrix::Create(num_areas);
  for (size_t i = 0; i < mobility.observations.size(); ++i) {
    const auto& o = mobility.observations[i];
    od->SetFlow(o.src, o.dst, mobility.models[model_index].estimated[i]);
  }
  return std::move(*od);
}

mobility::OdMatrix ExtractedFlows(const core::ScaleMobilityResult& mobility,
                                  size_t num_areas) {
  auto od = mobility::OdMatrix::Create(num_areas);
  for (const auto& o : mobility.observations) {
    od->SetFlow(o.src, o.dst, o.flow);
  }
  return std::move(*od);
}

int Run(const char* json_path) {
  auto table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }
  core::AnalysisContext ctx;
  const tweetdb::TweetDataset dataset =
      tweetdb::TweetDataset::FromTable(std::move(*table));
  auto estimator = core::PopulationEstimator::Build(dataset, &ctx.pool());
  if (!estimator.ok()) {
    std::fprintf(stderr, "estimator failed: %s\n",
                 estimator.status().ToString().c_str());
    return 1;
  }

  const core::ScaleSpec national = core::MakeScaleSpec(census::Scale::kNational);
  auto mobility = core::AnalyzeScaleMobility(dataset, national, *estimator, ctx.pool());
  if (!mobility.ok()) {
    std::fprintf(stderr, "mobility failed: %s\n",
                 mobility.status().ToString().c_str());
    return 1;
  }

  std::vector<double> populations;
  for (const census::Area& a : national.areas) populations.push_back(a.population);
  const size_t num_areas = national.areas.size();

  // One sweep input per flow estimate; the grid's scale axis is the
  // flow-source comparison (model indices 1 = Gravity 2P, 2 = Radiation).
  std::vector<epi::SweepScaleInput> inputs;
  inputs.push_back(epi::SweepScaleInput{"twitter", populations,
                                        ExtractedFlows(*mobility, num_areas)});
  inputs.push_back(epi::SweepScaleInput{"gravity2p", populations,
                                        ModelFlows(*mobility, 1, num_areas)});
  inputs.push_back(epi::SweepScaleInput{"radiation", populations,
                                        ModelFlows(*mobility, 2, num_areas)});
  auto sweep = epi::ScenarioSweep::Create(std::move(inputs));
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", sweep.status().ToString().c_str());
    return 1;
  }

  // 100 infections seeded in Sydney (area 0), one simulated year at
  // dt = 0.25 — the parameters RunSeir always used.
  epi::SweepGrid grid;
  grid.base.mobility_rate = 0.03;
  grid.betas = {0.45};
  grid.mobility_reductions = {0.0};
  grid.seed_areas = {0};
  grid.seed_count = 100.0;
  grid.steps = 4 * 365;
  auto results = sweep->Run(grid, nullptr);
  if (!results.ok()) {
    std::fprintf(stderr, "sweep run failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  // Scales expand outermost, so results are input order: twitter,
  // gravity2p, radiation.
  const std::vector<double>& arr_extracted = (*results)[0].arrival_day;
  const std::vector<double>& arr_gravity = (*results)[1].arrival_day;
  const std::vector<double>& arr_radiation = (*results)[2].arrival_day;

  TablePrinter tp({"City", "Census pop", "arrival (Twitter flows)",
                   "arrival (Gravity 2P)", "arrival (Radiation)"});
  auto fmt = [](double day) {
    return day < 0.0 ? std::string("never") : StrFormat("day %.0f", day);
  };
  for (size_t a = 0; a < national.areas.size(); ++a) {
    tp.AddRow({national.areas[a].name,
               StrFormat("%.0f", national.areas[a].population),
               fmt(arr_extracted[a]), fmt(arr_gravity[a]), fmt(arr_radiation[a])});
  }
  std::printf(
      "=== EXTENSION E1: SEIR disease spread from Sydney, driven by the\n"
      "three flow estimates (paper future work: model-based responsive\n"
      "prediction of disease spread from Twitter data) ===\n%s\n",
      tp.ToString().c_str());

  // Agreement of model-driven arrival orders with the Twitter-flow-driven
  // reference (mean absolute arrival-day error over cities reached by both).
  auto mean_abs = [&](const std::vector<double>& model_arrivals) {
    double sum = 0.0;
    int n = 0;
    for (size_t a = 0; a < model_arrivals.size(); ++a) {
      if (arr_extracted[a] >= 0.0 && model_arrivals[a] >= 0.0) {
        sum += std::abs(model_arrivals[a] - arr_extracted[a]);
        ++n;
      }
    }
    return n > 0 ? sum / n : -1.0;
  };
  const double err_gravity = mean_abs(arr_gravity);
  const double err_radiation = mean_abs(arr_radiation);
  std::printf(
      "mean |arrival error| vs Twitter flows: Gravity 2P = %.1f days, "
      "Radiation = %.1f days\n",
      err_gravity, err_radiation);

  if (json_path != nullptr) {
    bench::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "ext_epidemic");
    json.Field("users", static_cast<uint64_t>(bench::BenchUserCount()));
    json.Field("beta", 0.45).Field("mobility_rate", 0.03);
    json.Field("mean_abs_arrival_error_gravity2p_days", err_gravity);
    json.Field("mean_abs_arrival_error_radiation_days", err_radiation);
    json.BeginArray("flow_sources");
    for (size_t s = 0; s < results->size(); ++s) {
      const epi::ScenarioResult& r = (*results)[s];
      json.BeginObject()
          .Field("name", sweep->scale_name(s))
          .Field("peak_infectious", r.peak_infectious)
          .Field("peak_day", r.peak_day)
          .Field("attack_rate", r.attack_rate);
      json.BeginArray("arrival_day");
      for (double day : r.arrival_day) json.Value(day);
      json.EndArray().EndObject();
    }
    json.EndArray().EndObject();
    const Status written = json.WriteFile(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[ext_epidemic] wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace twimob

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  return twimob::Run(json_path);
}
