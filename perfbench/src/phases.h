// The three measured loops of the benchmark and the state they share.
//
//   * cold loop:  SnapshotCatalog::Open of a committed dataset, alternating
//     an N-worker and a 1-worker analysis context.
//   * live loop:  IngestWriter::AppendBatch -> SnapshotCatalog::Refresh ->
//     one probe query at the new commit, with a timed Compact every
//     kCompactEvery appends.
//   * serve loop: closed-loop clients issuing a mixed query stream against
//     one fixed snapshot.
//
// Each workload runs its own loop (cold or live), then the other one as a
// cross-check; a traced run adds the serve loop (see README.md).

#ifndef TWIMOB_PERFBENCH_PHASES_H_
#define TWIMOB_PERFBENCH_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/pipeline.h"
#include "measure.h"
#include "serve/query_service.h"
#include "serve/snapshot_catalog.h"
#include "serve/whatif_service.h"
#include "tweetdb/ingest.h"
#include "tweetdb/tweet.h"

namespace perfbench {

/// Corpus size of every workload: 100k users, about 1.31M rows.
inline constexpr size_t kUsers = 100000;
/// Time shards of the committed dataset.
inline constexpr size_t kShards = 4;
/// Rows per streamed append.
inline constexpr size_t kBatchRows = 1000;
/// Appends between two synchronous compactions.
inline constexpr size_t kCompactEvery = 8;
/// Completed sweeps the what-if service memoises.
inline constexpr size_t kWhatIfCacheCapacity = 8;

/// Operation and check accounting of one run, plus its metrics.
struct RunState {
  uint64_t seed = 0;
  Budget budget;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  MetricMap end_to_end;
  MetricMap per_layer;

  /// Counts one attempted operation; a non-OK status is a failure.
  void Op(const twimob::Status& status, const char* what);
  /// A failed check fails the run and counts as a failed operation.
  void Check(bool ok, const std::string& what);
  /// Failures counted by a worker thread, merged after it is joined.
  void Merge(uint64_t ops, uint64_t failures_seen,
             const std::vector<std::string>& messages);

  void SetEndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void SetLayer(const std::string& name, double value, const char* unit) {
    per_layer[name] = Metric{value, unit};
  }
};

/// One workload's on-disk dataset and the objects serving it.
struct Workspace {
  std::string dir;
  std::string path;
  twimob::core::PipelineConfig config;
  /// Rows the live loop appends, in time order.
  std::vector<twimob::tweetdb::Tweet> stream;
  size_t stream_cursor = 0;

  std::unique_ptr<twimob::tweetdb::IngestWriter> writer;
  std::unique_ptr<twimob::serve::SnapshotCatalog> catalog;
  /// Catalog-backed service answering the live loop's probes.
  std::unique_ptr<twimob::serve::QueryService> probe_service;
};

/// Analysis configuration of every workload at `seed`.
twimob::core::PipelineConfig BenchConfig(uint64_t seed);

/// How a workload's dataset is committed during setup.
enum class SetupKind {
  /// The whole corpus in one generation; the stream is a copy of part of
  /// it under fresh user ids (for the live cross-check).
  kFullCorpus,
  /// Users 1..kUsers/2 committed and compacted; the other half is the
  /// stream.
  kHalfHistory,
};

/// Generates the corpus and commits it under `dir`; with `open_catalog`
/// also opens the catalog (N workers) and the probe service.
twimob::Status SetUp(RunState& rs, const std::string& dir, SetupKind kind,
                     bool open_catalog, Workspace* ws);

/// Opens the writer, catalog and probe service when SetUp did not.
twimob::Status EnsureLive(RunState& rs, Workspace& ws);

/// Flattened population, OD and fitted-model outputs of a snapshot, for
/// bitwise comparison.
std::vector<double> Flatten(const twimob::core::AnalysisSnapshot& snapshot);
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/// A loop's headline samples split by whether tracing was on. A loop that
/// alternates tracing between samples puts both halves on the same data,
/// so the difference is the cost of tracing alone.
struct TracingSplit {
  Samples untraced;
  Samples traced;
  /// Median traced over median untraced, minus 1, in percent.
  double OverheadPct() const;
};

/// Results of the cold loop.
struct ColdResult {
  Samples open_s;     ///< N-worker opens
  Samples open_1w_s;  ///< 1-worker opens
  Samples index_s, trips_s, population_s, fit_s, seal_s, compact_s;
  Samples index_1w_s, trips_1w_s;
  Samples cpu_per_wall, cpu_per_wall_1w;
  Samples rss_open_mb;
  uint64_t rows_scanned = 0;
  uint64_t blocks_pruned = 0;
  TracingSplit tracing;  ///< N-worker opens, with `alternate_tracing`
};

/// Opens `ws.path` in N-worker/1-worker pairs after one discarded warm-up
/// pair, until `seconds` have passed and at least `min_pairs` pairs ran.
/// Every opened snapshot must equal `reference` bitwise (the first open's
/// flattening when `reference` is empty). With `alternate_tracing` every
/// other pair is traced and `out->tracing` is filled; otherwise the
/// tracer is left as it is.
void RunColdLoop(RunState& rs, Workspace& ws, double seconds, size_t min_pairs,
                 std::vector<double> reference, bool alternate_tracing,
                 ColdResult* out);

/// Results of the live loop.
struct LiveResult {
  Samples fresh_ms;  ///< append start -> probe answered at the new commit
  Samples append_ms, refresh_ms, noop_us, compact_s;
  Samples bytes_per_row, rss_refresh_mb;
  size_t pending_deltas_max = 0;
  TracingSplit tracing;  ///< fresh_ms, with `alternate_tracing`
};

/// Streams kBatchRows-row batches from ws.stream: `warmup` discarded
/// samples, then `samples` measured ones. Every kCompactEvery appends it
/// compacts synchronously. The count is fixed, not timed, so the dataset a
/// later loop sees is the same for a given seed on any host.
/// `alternate_tracing` is as for RunColdLoop, per sample.
void RunLiveLoop(RunState& rs, Workspace& ws, size_t warmup, size_t samples,
                 bool alternate_tracing, LiveResult* out);

/// Results of the serve loop.
struct ServeResult {
  double qps = 0.0;
  uint64_t requests = 0;
  Samples population_us;
  Samples whatif_miss_ms;  ///< distinct grids: always a cache miss
  Samples whatif_hot_us;   ///< hot-pool grids: mostly cache hits
  double whatif_hit_rate = 0.0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
};

/// Closed loop of `clients` threads over one fixed snapshot: `warmup`
/// seconds of a separate request stream, then `seconds` measured. The
/// first requests of every client are then replayed on one thread against
/// fresh services and must match bitwise.
void RunServeLoop(RunState& rs,
                  const std::shared_ptr<const twimob::core::AnalysisSnapshot>& snapshot,
                  size_t clients, double warmup, double seconds,
                  ServeResult* out);

/// Per-layer measurements that call one layer directly (traced run only):
/// storage read, geo radius counts, point batches, OD/predict lookups and
/// the epidemic sweep.
void MeasureLayersDirectly(RunState& rs, Workspace& ws,
                           const std::shared_ptr<const twimob::core::AnalysisSnapshot>& snapshot);

}  // namespace perfbench

#endif  // TWIMOB_PERFBENCH_PHASES_H_
