#ifndef TWIMOB_TWEETDB_INGEST_H_
#define TWIMOB_TWEETDB_INGEST_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "tweetdb/dataset.h"
#include "tweetdb/storage_env.h"
#include "tweetdb/table.h"
#include "tweetdb/tweet.h"

namespace twimob::tweetdb {

/// Health of the single-writer lifecycle. The writer parks itself in a
/// read-only *degraded* mode when an append or compaction fails with
/// Status::ResourceExhausted (a full disk / ENOSPC): served snapshots and
/// the committed manifest are untouched, an emergency sweep frees every
/// unpinned superseded file, and the next successful append (the probe)
/// returns the writer to healthy automatically.
struct IngestHealth {
  /// True while the writer is parked read-only after ENOSPC.
  bool degraded = false;
  /// Times the writer entered degraded mode.
  uint64_t degraded_entries = 0;
  /// Append probes that returned the writer to healthy.
  uint64_t probe_successes = 0;
  /// Files removed by emergency sweeps (unpinned superseded files plus the
  /// failed operation's own partial output).
  uint64_t swept_files = 0;
  /// The fault that last parked the writer (kept after recovery so
  /// operators can see what happened; OK if never degraded).
  Status last_error;
};

/// Knobs for the incremental-ingest writer.
struct IngestOptions {
  /// Partition spec of a dataset Open() creates fresh; ignored when the
  /// path already holds a committed manifest (its spec wins).
  PartitionSpec partition;
  /// Block capacity of delta tables and compacted shards.
  size_t block_capacity = kDefaultBlockCapacity;
  /// Durability/retry knobs of every file the writer commits.
  WriteOptions write;
};

/// The single-writer append/compact lifecycle of one dataset path — the
/// LSM-style ingest side of the storage engine (format v5).
///
/// `AppendBatch` encodes a batch as one small immutable delta file
/// (`<path>.g<gen>.delta-<seq>`, an ordinary "TWDB" blob with the v4
/// header/block CRC32C discipline) and then commits it by atomically
/// rewriting the manifest with the new delta record — the manifest rename
/// stays the single commit point, so a crash anywhere leaves exactly the
/// old dataset or exactly the new one. `Compact` merges the sealed base
/// shards and every committed delta into the next generation: rows are
/// routed to their time shards, each shard is compacted by the
/// (user, time, lat, lon) total order (pool-parallel across shards), and
/// the new manifest carries forward any delta appended while the merge was
/// running. The merge output depends only on the committed row set — never
/// on thread count or append/compact interleaving — so compacted shard
/// files are byte-identical at any pool size.
///
/// Concurrency contract (single writer process, many threads):
///   * `AppendBatch` may be called from one thread while `Compact` runs on
///     another: appends serialise on the commit mutex, the heavy merge
///     runs outside it, and a delta committed mid-merge is carried into
///     the compacted manifest untouched (merged by a later compaction).
///   * Concurrent `Compact` calls serialise among themselves.
///   * Readers (`ReadDatasetFiles`, serve::SnapshotCatalog) never block:
///     every commit is atomic, and the GC of superseded files is
///     generation-pin aware exactly like WriteDatasetFiles' (a pinned
///     generation's shard and delta files are deferred, never deleted
///     under a reader).
///
/// Crash consistency: an interrupted append leaves at most an orphaned
/// delta file the installed manifest never references (the retried append
/// reuses its seq and atomically replaces it); an interrupted compaction
/// leaves the old manifest installed with every delta intact — compacted
/// rows are never lost, and the retry rebuilds the next generation from
/// scratch (fault_injection_test.cc sweeps both paths).
///
/// Disk-full degraded mode: a ResourceExhausted failure (ENOSPC) from an
/// append or compaction parks the writer — `Compact` refuses with
/// ResourceExhausted — after an emergency sweep that removes the failed
/// operation's partial output and every *unpinned* superseded file (pinned
/// generations are never touched; their removal stays deferred).
/// `AppendBatch` keeps attempting and doubles as the recovery probe: the
/// first append that commits returns the writer to healthy. See health().
class IngestWriter {
 public:
  /// Opens the dataset at `path` for appending. A missing path is
  /// initialised as an empty generation-1 dataset (the initial manifest
  /// commit is itself atomic); an existing path must hold a decodable
  /// manifest. `env` defaults to Env::Default().
  static Result<std::unique_ptr<IngestWriter>> Open(std::string path,
                                                    IngestOptions options = {},
                                                    Env* env = nullptr);

  /// Appends one batch of validated rows as a delta: writes the delta file,
  /// then commits the manifest recording it. An empty batch is a no-op.
  /// While degraded this is also the recovery probe: a successful commit
  /// re-enters healthy mode.
  Status AppendBatch(const std::vector<Tweet>& batch);

  /// Merges every committed delta into the next sealed generation. With a
  /// `pool` the per-shard sorts run in parallel (byte-identical output for
  /// any thread count); submit `Compact` itself to a pool for background
  /// compaction. Returns false (without touching storage) when there is
  /// nothing to compact.
  Result<bool> Compact(ThreadPool* pool = nullptr);

  /// Snapshot of the writer's degraded-mode health (copy; taken under the
  /// commit mutex).
  IngestHealth health() const;

  /// True while the writer is parked read-only after ENOSPC.
  bool degraded() const;

  /// Snapshot of the committed manifest (copy; taken under the commit
  /// mutex).
  Manifest manifest() const;

  /// Committed deltas not yet compacted.
  size_t pending_deltas() const;

  const std::string& path() const { return path_; }

 private:
  IngestWriter(std::string path, IngestOptions options, Env* env)
      : path_(std::move(path)), options_(options), env_(env) {}

  Env& env() const;

  /// Parks the writer (requires `mu_` held): records `cause`, then runs the
  /// emergency sweep — removes `partial_output` (the failed operation's
  /// uncommitted files) and every unpinned deferred file. Pinned
  /// generations stay deferred; removals of a clearing disk succeed
  /// because unlink frees space rather than consuming it.
  void EnterDegradedLocked(const Status& cause,
                           std::vector<std::string> partial_output);

  const std::string path_;
  const IngestOptions options_;
  Env* const env_;

  /// Serialises whole compactions among themselves (held across the merge).
  std::mutex compact_mu_;
  /// Guards `manifest_` and every manifest commit; never held across the
  /// merge, so appends proceed while a compaction is merging.
  mutable std::mutex mu_;
  /// In-memory mirror of the installed manifest (single-writer invariant:
  /// nothing else commits to `path_` while this writer lives).
  Manifest manifest_;
  /// Degraded-mode state (guarded by `mu_`).
  IngestHealth health_;
};

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_INGEST_H_
