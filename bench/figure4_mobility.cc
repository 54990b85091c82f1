// Regenerates the paper's Figure 4: estimated vs extracted mobility for
// Gravity 4Param / Gravity 2Param / Radiation at the three scales. Prints
// the fitted parameters, a sample of the per-pair scatter (the grey
// crosses) and the log-binned means (the red dots).
//
// Runs on the staged execution engine; the per-stage trace (including the
// trips@all/<scale> and fit@<scale>/<model> breakdown) goes to stderr.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/pipeline.h"
#include "core/report.h"

namespace twimob {
namespace {

int Run() {
  auto table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }

  core::AnalysisContext ctx;
  auto snapshot =
      bench::AnalyzeCorpus(ctx, std::move(*table), core::PipelineConfig{});
  if (!snapshot.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }

  for (const core::ScaleMobilityResult& result : snapshot->result().mobility) {
    std::printf("%s", core::RenderMobilityScale(result).c_str());

    // A deterministic sample of the grey crosses (largest observed flows).
    std::vector<size_t> order(result.observations.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return result.observations[a].flow > result.observations[b].flow;
    });
    std::printf("  top OD pairs (observed vs per-model estimates):\n");
    std::printf("  %6s %6s %12s %12s %12s %12s\n", "src", "dst", "observed",
                "grav4", "grav2", "radiation");
    for (size_t k = 0; k < std::min<size_t>(10, order.size()); ++k) {
      const size_t i = order[k];
      const auto& o = result.observations[i];
      std::printf("  %6zu %6zu %12.1f %12.1f %12.1f %12.1f\n", o.src, o.dst,
                  o.flow, result.models[0].estimated[i],
                  result.models[1].estimated[i], result.models[2].estimated[i]);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
