// Regenerates the paper's Table II: Pearson correlation (upper) and
// HitRate@50% (lower) for the three mobility models at the three scales.
// The paper's values are printed alongside for comparison.
//
// Runs on the staged execution engine; the per-stage trace goes to stderr.

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
  const core::PipelineResult& result = snapshot->result();

  std::printf("%s\n", core::RenderTableII(result).c_str());
  std::printf(
      "Paper's Table II for reference (Pearson upper / HitRate@50%% lower):\n"
      "              Gravity 4Param  Gravity 2Param  Radiation\n"
      "  National          0.877          0.912 *       0.840\n"
      "                    0.330          0.397 *       0.184\n"
      "  State             0.893          0.896 *       0.742\n"
      "                    0.487 *        0.397         0.166\n"
      "  Metropolitan      0.948          0.963 *       0.918\n"
      "                    0.530          0.600 *       0.397\n"
      "Expected shape: Gravity dominates Radiation at every scale in\n"
      "Australia (the paper's headline finding).\n");

  // Machine-checkable verdict line for EXPERIMENTS.md.
  bool gravity_wins_everywhere = true;
  for (const auto& scale : result.mobility) {
    const double best_gravity =
        std::max(scale.models[0].metrics.pearson_r,
                 scale.models[1].metrics.pearson_r);
    if (best_gravity <= scale.models[2].metrics.pearson_r) {
      gravity_wins_everywhere = false;
    }
  }
  std::printf("VERDICT: Gravity beats Radiation at every scale: %s\n",
              gravity_wins_everywhere ? "YES (matches paper)" : "NO");
  return 0;
}

}  // namespace
}  // namespace twimob

int main() { return twimob::Run(); }
