#ifndef TWIMOB_SERVE_SNAPSHOT_CATALOG_H_
#define TWIMOB_SERVE_SNAPSHOT_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/analysis_snapshot.h"
#include "core/pipeline.h"
#include "tweetdb/dataset.h"
#include "tweetdb/storage_env.h"

namespace twimob::serve {

/// How a SnapshotCatalog opens and analyses dataset generations.
struct CatalogOptions {
  /// Analysis configuration applied to every generation the catalog loads
  /// (the corpus field is ignored — the dataset comes from storage).
  core::PipelineConfig analysis;
  /// Storage environment; null means tweetdb::Env::Default().
  tweetdb::Env* env = nullptr;
  /// Thread count of the catalog's AnalysisContext, which every load runs
  /// on (0 = TWIMOB_THREADS / hardware concurrency).
  size_t num_threads = 0;
  /// Recovery policy for opening generations (kStrict by default).
  tweetdb::RecoveryPolicy policy = tweetdb::RecoveryPolicy::kStrict;
  /// How many times Open/Refresh re-peeks the manifest when a writer
  /// commits between the peek and the pin (each retry restarts the
  /// pin-then-read sequence on the newer generation).
  int max_open_retries = 8;
};

/// Owns the serving snapshot of one dataset path and atomically swaps in
/// newer committed generations.
///
/// Concurrency contract:
///   * `Current()` is the query read path: one atomic shared-pointer load,
///     no locks. Readers that obtained a snapshot keep it — and its pinned
///     storage generation — alive by shared ownership for as long as they
///     hold the pointer, regardless of how many Refresh() swaps happen
///     meanwhile.
///   * `Refresh()` may be called from any thread; refreshers serialise on a
///     mutex among themselves only — queries never touch it. A refresh that
///     finds no newer committed generation is cheap (one manifest read).
///   * The writer is any WriteDatasetFiles caller or tweetdb::IngestWriter
///     on the same path in this process. The catalog pins the generation
///     it serves, so the writer's post-commit GC (including a compaction
///     superseding the generation's shard and delta files) defers — never
///     deletes — the pinned files; the pin is released when the last
///     snapshot reference drops.
///
/// Crash consistency: the catalog only ever observes committed manifests
/// (written atomically, CRC-guarded, manifest-last), so a writer crash
/// mid-commit leaves Open/Refresh serving the previous generation — the
/// old-or-new guarantee extends from storage to the serving layer (see
/// fault_injection_test.cc's refresh sweep).
class SnapshotCatalog {
 public:
  /// Opens the dataset at `path`, analyses its committed generation and
  /// installs the snapshot. Fails when no committed generation can be
  /// opened (per options.policy).
  static Result<std::unique_ptr<SnapshotCatalog>> Open(std::string path,
                                                       CatalogOptions options);

  /// The serving snapshot — one lock-free atomic load. Never null.
  std::shared_ptr<const core::AnalysisSnapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Checks the manifest for a newer commit — a compacted generation or a
  /// delta append that advanced the ingest cursor within the installed
  /// generation; when one is found, analyses it and atomically swaps it
  /// in. Returns true when a swap happened, false when the installed
  /// commit version (generation, ingest_seq) is still current. Repeated
  /// calls with no new commits are idempotent no-ops (one manifest read
  /// each). In-flight readers of the previous snapshot are unaffected.
  ///
  /// Three paths, chosen from the manifest alone; each gives a snapshot
  /// bitwise equal to a from-scratch open of the commit, and a failed read
  /// on any of them leaves the installed snapshot serving.
  ///   * **delta** — the commit only adds delta files to the installed
  ///     generation: only those files are read (tweetdb::ReadDeltaFiles)
  ///     and the snapshot is derived from the installed one
  ///     (AnalysisSnapshot::Derive; trace: `recover`, `delta`,
  ///     `fit@<scale>`).
  ///   * **rebase** — the commit's generation was compacted from the
  ///     installed one (v8 provenance: `compacted_from`) and merged no
  ///     delta past the installed cursor (`merged_below_seq`): the new
  ///     generation's shards hold only rows the installed snapshot holds,
  ///     so they are never read. The installed runs and results carry over
  ///     under the new generation's pin, with the recovery report a strict
  ///     open gives (built from the manifest), and the deltas from the
  ///     installed cursor on are derived as on the delta path (trace:
  ///     `recover`, `rebase`, `delta`, `fit@<scale>`). A rebase trusts the
  ///     commit's provenance, not the new shard files' bytes; damage there
  ///     shows at the next full open, as for any pinned file.
  ///   * **full** — anything else (a WriteDatasetFiles rewrite, a catalog
  ///     that fell behind a compaction, a kSalvage catalog, a degraded
  ///     installed snapshot, a missing delta): the whole commit is re-read
  ///     and re-analysed.
  /// The delta and rebase paths need the policy kStrict, an installed
  /// snapshot that is not degraded, its deltas still listed as it saw them
  /// (the carried ones, for a rebase) and every seq from its cursor on.
  Result<bool> Refresh();

  /// Generation of the snapshot Current() returns right now.
  uint64_t current_generation() const {
    return Current()->generation();
  }

  /// Ingest cursor of the snapshot Current() returns right now.
  uint64_t current_ingest_seq() const {
    return Current()->ingest_seq();
  }

  const std::string& path() const { return path_; }

  /// The storage environment the catalog reads through (options.env or
  /// Env::Default()). The refresh supervisor peeks the manifest head and
  /// paces its backoff through this.
  tweetdb::Env& storage_env() const { return env(); }

 private:
  SnapshotCatalog(std::string path, CatalogOptions options)
      : path_(std::move(path)),
        options_(options),
        ctx_(std::make_unique<core::AnalysisContext>(options.num_threads)) {}

  /// The full path. Pin-then-read loop: peeks the manifest, pins the
  /// committed generation, re-reads the dataset and verifies it still
  /// carries the pinned generation (a writer may commit — and GC — between
  /// peek and pin; each such race retries on the newer manifest). A read
  /// that folds deltas appended after the peek (same generation, higher
  /// cursor) is accepted — the pin names the generation, and fresher data
  /// is never stale.
  Result<std::shared_ptr<const core::AnalysisSnapshot>> LoadCommitted();

  /// The delta and rebase paths of Refresh: when `manifest` only adds
  /// deltas to `installed`'s generation, or names a generation compacted
  /// from it (see Refresh), reads the deltas from installed's cursor on and
  /// derives the successor; returns null when the full path must run
  /// instead.
  Result<std::shared_ptr<const core::AnalysisSnapshot>> DeriveFromDeltas(
      const core::AnalysisSnapshot& installed, const tweetdb::Manifest& manifest);

  tweetdb::Env& env() const;

  std::string path_;
  CatalogOptions options_;
  /// The pool and trace every load runs on; loads are serialised (Open,
  /// then Refresh under `refresh_mu_`), and each clears the trace first.
  std::unique_ptr<core::AnalysisContext> ctx_;
  std::atomic<std::shared_ptr<const core::AnalysisSnapshot>> current_;
  /// Serialises concurrent Refresh() calls; never taken on the query path.
  std::mutex refresh_mu_;
};

/// Reads and decodes the committed manifest of `path` (one small file read;
/// no shard data). The serving layer's cheap "is there a newer
/// generation?" probe.
Result<tweetdb::Manifest> PeekManifest(tweetdb::Env& env,
                                       const std::string& path);

}  // namespace twimob::serve

#endif  // TWIMOB_SERVE_SNAPSHOT_CATALOG_H_
