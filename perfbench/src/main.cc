// twimob benchmark program.
//
//   twimob_perfbench --workload <cold_paper|live_ingest>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--trace-dir <dir>]
//
// Generates its inputs from the seed, runs the workload, checks its
// outputs, and prints a human-readable report followed by one JSON line:
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}. With
// --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
// are the per-layer metrics of a traced run. README.md describes both.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "phases.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args->seconds = 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_seed && have_trace && args->seconds > 0.0 &&
         !args->work_dir.empty() &&
         (args->workload == "cold_paper" || args->workload == "live_ingest");
}

/// One per-layer metric: its unit, and the end-to-end metric and workload
/// it should move. The same table is in README.md and BENCHMARK.json.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"core.compact_s", "s", "cold_s, fresh_p50_ms (cold_paper, live_ingest)"},
    {"core.index_s", "s", "cold_s, fresh_* (cold_paper, live_ingest)"},
    {"core.population_s", "s", "cold_s, fresh_* (cold_paper, live_ingest)"},
    {"core.trips_s", "s", "cold_s, fresh_* (cold_paper, live_ingest)"},
    {"core.fit_s", "s", "cold_s, fresh_* (cold_paper, live_ingest)"},
    {"core.seal_s", "s", "cold_s, fresh_* (cold_paper, live_ingest)"},
    {"core.index_1w_s", "s", "cold_1w_s (cold_paper)"},
    {"core.trips_1w_s", "s", "cold_1w_s (cold_paper)"},
    {"core.rows_scanned", "count", "cold_s, cold_1w_s (cold_paper)"},
    {"core.blocks_pruned", "count", "cold_s, cold_1w_s (cold_paper)"},
    {"tweetdb.read_s", "s", "cold_s, fresh_p50_ms (cold_paper, live_ingest)"},
    {"tweetdb.read_mib_s", "MiB/s", "cold_s, fresh_p50_ms (cold_paper, live_ingest)"},
    {"common.cpu_per_wall", "ratio", "cold_s vs cold_1w_s gap (cold_paper)"},
    {"common.cpu_per_wall_1w", "ratio", "cold_1w_s (cold_paper)"},
    {"mem.rss_open_mb", "MiB", "peak_rss_mb (cold_paper)"},
    {"serve.refresh_ms", "ms", "fresh_p50_ms, fresh_p90_ms (live_ingest)"},
    {"tweetdb.append_ms", "ms", "fresh_p50_ms (live_ingest)"},
    {"serve.refresh_noop_us", "us", "fresh_p50_ms (live_ingest)"},
    {"tweetdb.compact_s", "s", "fresh_p90_ms (live_ingest)"},
    {"tweetdb.bytes_per_row", "B", "fresh_p50_ms via append_ms (live_ingest)"},
    {"tweetdb.pending_deltas_max", "count", "fresh_p90_ms (live_ingest)"},
    {"mem.rss_refresh_mb", "MiB", "peak_rss_mb (live_ingest)"},
    {"geo.count_users_p50_us", "us", "pop_p50_us, pop_p99_us, qps (serving loop)"},
    {"geo.count_tweets_p50_us", "us", "pop_p50_us, pop_p99_us, qps (serving loop)"},
    {"serve.point_batch_p50_us", "us", "qps (serving loop)"},
    {"serve.od_ns", "ns", "qps (serving loop)"},
    {"serve.predict_ns", "ns", "qps (serving loop)"},
    {"serve.whatif_hit_p50_us", "us", "qps (serving loop)"},
    {"serve.whatif_hit_rate", "ratio", "qps (serving loop)"},
    {"epi.sweep_ms", "ms", "whatif_miss_p50_ms (serving loop)"},
    {"epi.scenarios_per_s", "1/s", "whatif_miss_p50_ms (serving loop)"},
    {"serve.qps_1c", "1/s", "qps scaling (serving loop)"},
    {"serve.shed", "count", "error_rate (serving loop)"},
    {"serve.deadline_exceeded", "count", "error_rate (serving loop)"},
    {"serve.qps", "1/s", "mixed closed-loop throughput (serving loop)"},
    {"serve.pop_p50_us", "us", "population latency in the mix (serving loop)"},
    {"serve.pop_p99_us", "us", "population latency in the mix (serving loop)"},
    {"serve.whatif_miss_p50_ms", "ms", "what-if miss latency (serving loop)"},
    {"synth.self_pct", "%", "setup_s (all)"},
    {"tweetdb.self_pct", "%", "traced share of the storage layer (all)"},
    {"core.self_pct", "%", "traced share of the analysis stages (all)"},
    {"geo.self_pct", "%", "traced share of direct radius walks (all)"},
    {"mobility.self_pct", "%", "traced share of trips and fits (all)"},
    {"epi.self_pct", "%", "traced share of direct sweeps (all)"},
    {"serve.self_pct", "%", "traced share of serving calls (all)"},
    {"trace.overhead_pct", "%", "cold_s or fresh_p50_ms, traced vs untraced samples (own loop)"},
};

struct E2eMetric {
  const char* name;
  const char* unit;
};

/// The serving loop's qps, pop_p50_us, pop_p99_us and whatif_miss_p50_ms
/// are per-layer metrics (serve.*): their run-to-run spread on a shared
/// 4-CPU host reached 23-30%, past the largest bound a metric may have.
constexpr E2eMetric kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"},  {"cold_s", "s"},
    {"cold_1w_s", "s"},     {"fresh_p50_ms", "ms"},  {"fresh_p90_ms", "ms"},
};

/// Shares of --seconds given to the workload's own loop and to the other
/// loop, run as a cross-check. The cross-check is not much shorter: each
/// metric's bound is shared by both workloads, so the noisier one sets it.
constexpr double kOwnShare = 0.55;
constexpr double kCrossShare = 0.45;
/// Seconds of the serving loop, which only a traced run adds.
constexpr double kTracedServeSeconds = 10.0;
/// Nominal wall seconds of one live sample on a 4-CPU host: with the full
/// corpus committed, and with half of it (live_ingest).
constexpr double kFullCorpusFreshSeconds = 0.5;
constexpr double kHalfHistoryFreshSeconds = 0.3;

void SetColdMetrics(RunState& rs, const ColdResult& c) {
  rs.SetEndToEnd("cold_s", c.open_s.Median(), "s");
  rs.SetEndToEnd("cold_1w_s", c.open_1w_s.Median(), "s");
  rs.SetLayer("core.compact_s", c.compact_s.Median(), "s");
  rs.SetLayer("core.index_s", c.index_s.Median(), "s");
  rs.SetLayer("core.population_s", c.population_s.Median(), "s");
  rs.SetLayer("core.trips_s", c.trips_s.Median(), "s");
  rs.SetLayer("core.fit_s", c.fit_s.Median(), "s");
  rs.SetLayer("core.seal_s", c.seal_s.Median(), "s");
  rs.SetLayer("core.index_1w_s", c.index_1w_s.Median(), "s");
  rs.SetLayer("core.trips_1w_s", c.trips_1w_s.Median(), "s");
  rs.SetLayer("core.rows_scanned", static_cast<double>(c.rows_scanned), "count");
  rs.SetLayer("core.blocks_pruned", static_cast<double>(c.blocks_pruned), "count");
  rs.SetLayer("common.cpu_per_wall", c.cpu_per_wall.Median(), "ratio");
  rs.SetLayer("common.cpu_per_wall_1w", c.cpu_per_wall_1w.Median(), "ratio");
  rs.SetLayer("mem.rss_open_mb", c.rss_open_mb.Median(), "MiB");
}

void SetLiveMetrics(RunState& rs, const LiveResult& l) {
  rs.SetEndToEnd("fresh_p50_ms", l.fresh_ms.Median(), "ms");
  rs.SetEndToEnd("fresh_p90_ms", l.fresh_ms.Percentile(0.9), "ms");
  rs.SetLayer("serve.refresh_ms", l.refresh_ms.Median(), "ms");
  rs.SetLayer("tweetdb.append_ms", l.append_ms.Median(), "ms");
  rs.SetLayer("serve.refresh_noop_us", l.noop_us.Median(), "us");
  rs.SetLayer("tweetdb.compact_s", l.compact_s.Median(), "s");
  rs.SetLayer("tweetdb.bytes_per_row", l.bytes_per_row.Median(), "B");
  rs.SetLayer("tweetdb.pending_deltas_max", static_cast<double>(l.pending_deltas_max),
              "count");
  rs.SetLayer("mem.rss_refresh_mb", l.rss_refresh_mb.Median(), "MiB");
}

void SetServeMetrics(RunState& rs, const ServeResult& s) {
  rs.SetLayer("serve.qps", s.qps, "1/s");
  rs.SetLayer("serve.pop_p50_us", s.population_us.Median(), "us");
  rs.SetLayer("serve.pop_p99_us", s.population_us.Percentile(0.99), "us");
  rs.SetLayer("serve.whatif_miss_p50_ms", s.whatif_miss_ms.Median(), "ms");
  rs.SetLayer("serve.whatif_hit_p50_us", s.whatif_hot_us.Median(), "us");
  rs.SetLayer("serve.whatif_hit_rate", s.whatif_hit_rate, "ratio");
  rs.SetLayer("serve.shed", static_cast<double>(s.shed), "count");
  rs.SetLayer("serve.deadline_exceeded", static_cast<double>(s.deadline_exceeded),
              "count");
}

/// Sample count and quartiles of every distribution an end-to-end metric
/// is read from.
void PrintDistributions(const ColdResult& c, const LiveResult& l, const ServeResult& s) {
  auto row = [](const char* name, const Samples& v, double scale) {
    std::printf("  %-22s n=%-6zu q1 %12.6g  median %12.6g  q3 %12.6g  max %12.6g\n",
                name, v.size(), v.Percentile(0.25) * scale, v.Median() * scale,
                v.Percentile(0.75) * scale, v.Max() * scale);
  };
  std::printf("distributions:\n");
  row("cold open N (s)", c.open_s, 1.0);
  row("cold open 1w (s)", c.open_1w_s, 1.0);
  row("fresh (ms)", l.fresh_ms, 1.0);
  row("population (us)", s.population_us, 1.0);
  row("what-if miss (ms)", s.whatif_miss_ms, 1.0);
  std::printf("  serve requests %llu\n", static_cast<unsigned long long>(s.requests));
}

int Run(const Args& args) {
  const Host host = DetectHost();
  RunState rs;
  rs.seed = args.seed;
  rs.budget = MakeBudget(host.nproc);

  std::printf("{\"host\":{\"cpu\":%s,\"nproc\":%zu,\"isa\":%s,\"twimob_force_scalar\":%s},"
              "\"budget\":{\"open_workers\":%zu,\"clients\":%zu,\"whatif_workers\":%zu},"
              "\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d}\n",
              JsonString(host.cpu_model).c_str(), host.nproc, JsonString(host.isa).c_str(),
              JsonString(host.force_scalar).c_str(), rs.budget.open_workers,
              rs.budget.clients, rs.budget.whatif_workers,
              JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed),
              JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0);
  std::fflush(stdout);

  const bool cold = args.workload == "cold_paper";
  const SetupKind kind = cold ? SetupKind::kFullCorpus : SetupKind::kHalfHistory;
  const bool open_catalog = !cold;

  // Setup does identical work on every run (no cached corpus). It runs
  // three times, each after the previous one is torn down; the median is
  // setup_s and the last one is kept. A traced run traces setup too, so the
  // synth layer has spans.
  Tracer::Enable(args.trace);
  Samples setup_s;
  std::unique_ptr<Workspace> ws;
  for (int rep = 0; rep < 3; ++rep) {
    if (ws != nullptr) {
      const std::string old_dir = ws->dir;
      ws.reset();
      std::error_code ec;
      std::filesystem::remove_all(old_dir, ec);
    }
    ws = std::make_unique<Workspace>();
    const std::string dir = args.work_dir + "/setup-" + std::to_string(rep);
    const double t0 = Now();
    const twimob::Status status = SetUp(rs, dir, kind, open_catalog, ws.get());
    setup_s.Add(Now() - t0);
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  rs.SetEndToEnd("setup_s", setup_s.Median(), "s");

  const double own = kOwnShare * args.seconds;
  const double cross = kCrossShare * args.seconds;
  ColdResult cold_result;
  LiveResult live_result;
  ServeResult serve_result;

  // The live loop appends a fixed number of batches, sized from --seconds
  // by its nominal cost per sample, so the dataset every later loop sees
  // depends only on the seed.
  auto live_samples = [](double seconds, double nominal_s) {
    return static_cast<size_t>(std::max(8.0, std::ceil(seconds / nominal_s)));
  };
  std::vector<double> peaks = {PeakRssMb()};

  // With --trace 1 the own loop alternates tracing between its samples,
  // and the tracing overhead compares its traced and untraced headline
  // samples (cold_s or fresh_p50_ms). The cross-check runs traced.
  const bool alternate = args.trace;
  double overhead_pct = 0.0;
  if (cold) {
    RunColdLoop(rs, *ws, own, 5, {}, alternate, &cold_result);
    overhead_pct = cold_result.tracing.OverheadPct();
    peaks.push_back(PeakRssMb());
    Tracer::Enable(args.trace);
    RunLiveLoop(rs, *ws, 2, live_samples(cross, kFullCorpusFreshSeconds), false,
                &live_result);
  } else {
    RunLiveLoop(rs, *ws, 2, live_samples(own, kHalfHistoryFreshSeconds), alternate,
                &live_result);
    overhead_pct = live_result.tracing.OverheadPct();
    peaks.push_back(PeakRssMb());
    Tracer::Enable(args.trace);
    // The from-scratch opens double as the final check: the served
    // snapshot must equal a cold open of the same path bitwise.
    RunColdLoop(rs, *ws, cross, 4, Flatten(*ws->catalog->Current()), false,
                &cold_result);
  }
  peaks.push_back(PeakRssMb());
  std::printf("peak RSS (MiB) after setup, own loop, cross-check:");
  for (double p : peaks) std::printf(" %.1f", p);
  std::printf("\n");
  rs.SetEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  SetColdMetrics(rs, cold_result);
  SetLiveMetrics(rs, live_result);

  // The serving loop runs only when traced: its metrics are per-layer.
  std::shared_ptr<const twimob::core::AnalysisSnapshot> snapshot;
  if (args.trace) {
    Tracer::Enable(true);
    snapshot = ws->catalog->Current();
    RunServeLoop(rs, snapshot, rs.budget.clients, 0.5, kTracedServeSeconds,
                 &serve_result);
    SetServeMetrics(rs, serve_result);
    MeasureLayersDirectly(rs, *ws, snapshot);
    ServeResult one_client;
    RunServeLoop(rs, snapshot, 1, 0.3, 2.0, &one_client);
    rs.SetLayer("serve.qps_1c", one_client.qps, "1/s");
    rs.SetLayer("trace.overhead_pct", overhead_pct, "%");
  }
  snapshot.reset();
  const std::string work_dir = ws->dir;
  ws.reset();
  Tracer::Enable(false);

  if (args.trace) {
    const std::vector<Span> spans = Tracer::Collect();
    const auto self = SelfSecondsByLayer(spans);
    double total = 0.0;
    for (double s : self) total += s;
    for (size_t l = 0; l < kNumLayers; ++l) {
      rs.SetLayer(std::string(LayerName(static_cast<Layer>(l))) + ".self_pct",
                  total > 0.0 ? 100.0 * self[l] / total : 0.0, "%");
    }
    if (!args.trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(args.trace_dir, ec);
      const std::string path = args.trace_dir + "/spans-" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".csv";
      const twimob::Status written = Tracer::WriteCsv(spans, path);
      if (written.ok()) {
        std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
      } else {
        std::fprintf(stderr, "span export failed: %s\n", written.ToString().c_str());
      }
    }
  }

  // Human-readable report.
  PrintDistributions(cold_result, live_result, serve_result);
  const double error_rate = rs.attempted == 0
                                ? 1.0
                                : static_cast<double>(rs.failed) /
                                      static_cast<double>(rs.attempted);
  std::printf("%-28s %16.6g %s\n", "error_rate", error_rate, "ratio");
  for (const E2eMetric& m : kEndToEnd) {
    std::printf("%-28s %16.6g %s\n", m.name, rs.end_to_end[m.name].value, m.unit);
  }
  if (args.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      std::printf("%-28s %16.6g %-6s -> %s\n", m.name, rs.per_layer[m.name].value,
                  m.unit, m.moves);
    }
  }
  for (const std::string& f : rs.failures) std::printf("FAILURE: %s\n", f.c_str());

  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);

  // The result line.
  const bool correct = rs.failed == 0;
  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(rs.attempted) +
                     ",\"failed\":" + std::to_string(rs.failed) + ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const char* name, const char* unit, double value) {
    if (!first) line += ",";
    first = false;
    line += JsonString(name) + ":{\"value\":" + JsonNumber(value) +
            ",\"unit\":" + JsonString(unit) + "}";
  };
  if (args.trace) {
    for (const LayerMetric& m : kLayerMetrics) emit(m.name, m.unit, rs.per_layer[m.name].value);
  } else {
    for (const E2eMetric& m : kEndToEnd) emit(m.name, m.unit, rs.end_to_end[m.name].value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload cold_paper|live_ingest --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
