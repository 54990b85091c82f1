// Staged-engine performance profile: runs the full analysis stage list
// (compact → index → population → trips@all → fit@scale) twice on the
// bench corpus — once on a 1-thread pool, once at the default thread count
// (override with TWIMOB_THREADS) — and prints the per-stage wall-time
// breakdown with speedups, plus two determinism verdicts enforced by the
// engine contract:
//   1. thread-count invariance — the 1-thread and N-thread runs produce
//      byte-identical results, including on a multi-shard dataset;
//   2. shard-count invariance — AnalysisSnapshot::Build at a fixed seed
//      produces byte-identical results for 1, 4 and 16 time shards.
//
// `--json <path>` additionally writes the machine-readable profile
// (per-stage wall times, thread/shard counts, speedup ratios, corpus size,
// storage format version, verdicts) for the CI artifact upload.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/analysis_snapshot.h"
#include "core/report.h"
#include "tweetdb/binary_codec.h"

namespace twimob {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) return false;
  }
  return true;
}

/// Bitwise comparison of everything the pipeline computes; any divergence
/// between the 1-thread and N-thread runs is a determinism bug.
bool ResultsIdentical(const core::PipelineResult& a,
                      const core::PipelineResult& b) {
  if (a.population.size() != b.population.size()) return false;
  for (size_t s = 0; s < a.population.size(); ++s) {
    const auto& pa = a.population[s];
    const auto& pb = b.population[s];
    if (pa.areas.size() != pb.areas.size()) return false;
    if (!BitEq(pa.correlation.r, pb.correlation.r) ||
        !BitEq(pa.rescale_factor, pb.rescale_factor)) {
      return false;
    }
    for (size_t i = 0; i < pa.areas.size(); ++i) {
      if (pa.areas[i].unique_users != pb.areas[i].unique_users ||
          pa.areas[i].tweet_count != pb.areas[i].tweet_count ||
          !BitEq(pa.areas[i].rescaled_estimate, pb.areas[i].rescaled_estimate)) {
        return false;
      }
    }
  }
  if (!BitEq(a.pooled_population_correlation.r,
             b.pooled_population_correlation.r)) {
    return false;
  }
  if (a.mobility.size() != b.mobility.size()) return false;
  for (size_t s = 0; s < a.mobility.size(); ++s) {
    const auto& ma = a.mobility[s];
    const auto& mb = b.mobility[s];
    if (ma.extraction.inter_area_trips != mb.extraction.inter_area_trips ||
        ma.observations.size() != mb.observations.size()) {
      return false;
    }
    for (size_t i = 0; i < ma.observations.size(); ++i) {
      if (ma.observations[i].src != mb.observations[i].src ||
          ma.observations[i].dst != mb.observations[i].dst ||
          !BitEq(ma.observations[i].flow, mb.observations[i].flow)) {
        return false;
      }
    }
    if (ma.models.size() != mb.models.size()) return false;
    for (size_t m = 0; m < ma.models.size(); ++m) {
      if (!BitEq(ma.models[m].metrics.pearson_r, mb.models[m].metrics.pearson_r) ||
          !BitEq(ma.models[m].metrics.hit_rate, mb.models[m].metrics.hit_rate) ||
          !BitEq(ma.models[m].estimated, mb.models[m].estimated)) {
        return false;
      }
    }
  }
  return true;
}

int Run(const char* json_path) {
  auto table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }

  const size_t num_tweets = table->num_rows();
  const core::PipelineConfig config;
  core::AnalysisContext serial_ctx(1);
  std::fprintf(stderr, "[perf_pipeline] serial run (1 thread)...\n");
  auto serial = bench::AnalyzeCorpus(serial_ctx, std::move(*table), config);
  if (!serial.ok()) {
    std::fprintf(stderr, "serial run failed: %s\n",
                 serial.status().ToString().c_str());
    return 1;
  }

  // The pooled run analyses a second load of the (cached, compacted) corpus.
  table = bench::LoadOrGenerateCorpus();
  if (!table.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", table.status().ToString().c_str());
    return 1;
  }
  core::AnalysisContext pooled_ctx;  // TWIMOB_THREADS or hardware_concurrency
  std::fprintf(stderr, "[perf_pipeline] pooled run (%zu threads)...\n",
               pooled_ctx.num_threads());
  auto pooled = bench::AnalyzeCorpus(pooled_ctx, std::move(*table), config);
  if (!pooled.ok()) {
    std::fprintf(stderr, "pooled run failed: %s\n",
                 pooled.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& serial_result = serial->result();
  const core::PipelineResult& pooled_result = pooled->result();

  std::printf("PIPELINE STAGE TIMES — 1 thread vs %zu threads (%zu tweets)\n",
              pooled_ctx.num_threads(), num_tweets);
  TablePrinter tp({"Stage", "1 thread", StrFormat("%zu threads",
                                                  pooled_ctx.num_threads()),
                   "Speedup"});
  double serial_mobility = 0.0, pooled_mobility = 0.0;
  double serial_total = 0.0, pooled_total = 0.0;
  for (const core::StageRecord& r : serial_result.trace.stages()) {
    if (r.name.find('/') != std::string::npos) continue;  // per-model subs
    const core::StageRecord* p = pooled_result.trace.Find(r.name);
    if (p == nullptr) continue;
    tp.AddRow({r.name, StrFormat("%8.1f ms", r.wall_seconds * 1e3),
               StrFormat("%8.1f ms", p->wall_seconds * 1e3),
               p->wall_seconds > 0.0
                   ? StrFormat("%.2fx", r.wall_seconds / p->wall_seconds)
                   : "-"});
    serial_total += r.wall_seconds;
    pooled_total += p->wall_seconds;
    if (r.name.rfind("trips@", 0) == 0 || r.name.rfind("fit@", 0) == 0) {
      serial_mobility += r.wall_seconds;
      pooled_mobility += p->wall_seconds;
    }
  }
  std::printf("%s", tp.ToString().c_str());
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "pipeline");
  json.BeginObject("corpus")
      .Field("users", bench::BenchUserCount())
      .Field("tweets", num_tweets)
      .Field("seed", bench::BenchSeed())
      .Field("format_version", static_cast<uint64_t>(tweetdb::kBinaryFormatVersion))
      .EndObject();
  json.BeginObject("threads")
      .Field("serial", uint64_t{1})
      .Field("pooled", pooled_ctx.num_threads())
      .EndObject();
  json.BeginArray("stages");
  for (const core::StageRecord& r : serial_result.trace.stages()) {
    if (r.name.find('/') != std::string::npos) continue;  // per-model subs
    const core::StageRecord* p = pooled_result.trace.Find(r.name);
    if (p == nullptr) continue;
    json.BeginObject()
        .Field("name", r.name)
        .Field("serial_ms", r.wall_seconds * 1e3)
        .Field("pooled_ms", p->wall_seconds * 1e3)
        .Field("speedup",
               p->wall_seconds > 0.0 ? r.wall_seconds / p->wall_seconds : 0.0)
        .EndObject();
  }
  json.EndArray();
  std::printf("mobility stages (trips+fit): %.1f ms -> %.1f ms (%.2fx)\n",
              serial_mobility * 1e3, pooled_mobility * 1e3,
              pooled_mobility > 0.0 ? serial_mobility / pooled_mobility : 0.0);
  std::printf("end to end: %.1f ms -> %.1f ms (%.2fx)\n", serial_total * 1e3,
              pooled_total * 1e3,
              pooled_total > 0.0 ? serial_total / pooled_total : 0.0);

  json.BeginObject("totals")
      .Field("serial_ms", serial_total * 1e3)
      .Field("pooled_ms", pooled_total * 1e3)
      .Field("speedup", pooled_total > 0.0 ? serial_total / pooled_total : 0.0)
      .Field("mobility_serial_ms", serial_mobility * 1e3)
      .Field("mobility_pooled_ms", pooled_mobility * 1e3)
      .EndObject();

  const bool identical =
      ResultsIdentical(serial_result, pooled_result);
  std::printf("DETERMINISM: 1-thread and %zu-thread results bitwise %s\n",
              pooled_ctx.num_threads(),
              identical ? "IDENTICAL (contract holds)" : "DIFFERENT (BUG)");

  // Shard-count invariance: the same seed analysed as 1, 4 and 16 time
  // shards must produce byte-identical results (the corpus is regenerated
  // per run, capped so the sweep stays quick at paper scale), and the
  // 16-shard run must itself be thread-count invariant.
  const size_t shard_users = std::min<size_t>(bench::BenchUserCount(), 20000);
  core::PipelineConfig shard_config;
  shard_config.corpus = bench::BenchCorpusConfig();
  shard_config.corpus.num_users = shard_users;

  const size_t kShardCounts[] = {1, 4, 16};
  core::PipelineResult shard_results[3];
  for (size_t i = 0; i < 3; ++i) {
    shard_config.num_shards = kShardCounts[i];
    core::AnalysisContext ctx;
    std::fprintf(stderr, "[perf_pipeline] shard sweep: %zu users, %zu shards\n",
                 shard_users, kShardCounts[i]);
    auto snapshot = core::AnalysisSnapshot::Build(shard_config, &ctx);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%zu-shard run failed: %s\n", kShardCounts[i],
                   snapshot.status().ToString().c_str());
      return 1;
    }
    shard_results[i] = snapshot->result();
  }
  const bool shards_invariant =
      ResultsIdentical(shard_results[0], shard_results[1]) &&
      ResultsIdentical(shard_results[0], shard_results[2]);
  std::printf("SHARD INVARIANCE: 1/4/16-shard results bitwise %s\n",
              shards_invariant ? "IDENTICAL (contract holds)"
                               : "DIFFERENT (BUG)");

  shard_config.num_shards = 16;
  core::AnalysisContext sharded_serial_ctx(1);
  auto sharded_serial =
      core::AnalysisSnapshot::Build(shard_config, &sharded_serial_ctx);
  if (!sharded_serial.ok()) {
    std::fprintf(stderr, "16-shard serial run failed: %s\n",
                 sharded_serial.status().ToString().c_str());
    return 1;
  }
  const bool sharded_threads_invariant =
      ResultsIdentical(sharded_serial->result(), shard_results[2]);
  std::printf(
      "SHARD DETERMINISM: 16-shard 1-thread vs pooled results bitwise %s\n",
      sharded_threads_invariant ? "IDENTICAL (contract holds)"
                                : "DIFFERENT (BUG)");

  json.BeginObject("shard_sweep")
      .Field("users", shard_users)
      .BeginArray("shard_counts")
      .Value(uint64_t{1})
      .Value(uint64_t{4})
      .Value(uint64_t{16})
      .EndArray()
      .EndObject();
  json.BeginObject("determinism")
      .Field("thread_invariant", identical)
      .Field("shard_invariant", shards_invariant)
      .Field("sharded_thread_invariant", sharded_threads_invariant)
      .EndObject();
  json.EndObject();
  if (json_path != nullptr) {
    const Status written = json.WriteFile(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[perf_pipeline] wrote %s\n", json_path);
  }

  return (identical && shards_invariant && sharded_threads_invariant) ? 0 : 1;
}

}  // namespace
}  // namespace twimob

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  return twimob::Run(json_path);
}
