#ifndef TWIMOB_TWEETDB_DATASET_H_
#define TWIMOB_TWEETDB_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "geo/bbox.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {

/// How a dataset maps row timestamps to shard partition keys: fixed-width
/// time windows anchored at `origin`. Key k covers
/// [origin + k*width_seconds, origin + (k+1)*width_seconds). A width of 0
/// means "unpartitioned" — every row maps to key 0 (the single-shard
/// layout).
struct PartitionSpec {
  int64_t origin = 0;
  int64_t width_seconds = 0;

  /// The partition key of a timestamp (floor division; negative offsets
  /// map to negative keys, so out-of-window rows still route somewhere).
  int64_t KeyForTime(int64_t timestamp) const;

  /// The unpartitioned spec (everything in shard 0).
  static PartitionSpec Single();

  /// Splits [start, end) into `num_shards` equal windows (the last window
  /// absorbs the rounding remainder). `num_shards` 0 behaves as 1.
  static PartitionSpec ForWindow(int64_t start, int64_t end, size_t num_shards);

  friend bool operator==(const PartitionSpec& a, const PartitionSpec& b) {
    return a.origin == b.origin && a.width_seconds == b.width_seconds;
  }
};

/// Manifest entry for one shard: its partition key, the generation that
/// wrote its file, row and block counts, and the shard-level zone map (the
/// union of the shard's block zone maps), which lets readers prune whole
/// shard files without opening them. A strict read checks `num_blocks`
/// against the shard file's header, so the manifest alone states what a
/// clean strict open of the shard reports. `generation` (since v9) is the
/// manifest's own generation for a file its commit wrote, or an earlier
/// one for a file a compaction carried forward untouched; the file name
/// (`<path>.g<generation>.shard-<key>`) is resolved from it.
struct ShardSummary {
  int64_t key = 0;
  uint64_t generation = 1;
  uint64_t num_rows = 0;
  uint64_t num_blocks = 0;
  uint64_t min_user = 0;
  uint64_t max_user = 0;
  int64_t min_time = 0;
  int64_t max_time = 0;
  geo::BoundingBox bbox;
};

/// Manifest entry for one delta file: a small immutable batch appended
/// after the generation's shards were sealed (the LSM-style ingest path,
/// see tweetdb/ingest.h). `generation` is the generation the delta was
/// born under — a compaction that carries an unmerged delta forward keeps
/// the original value so the file name (`<path>.g<gen>.delta-<seq>`) stays
/// resolvable. `seq` is the dataset-wide append sequence number: strictly
/// ascending across the manifest's delta list, never reused.
struct DeltaSummary {
  uint64_t generation = 0;
  uint64_t seq = 0;
  uint64_t num_rows = 0;
  uint64_t min_user = 0;
  uint64_t max_user = 0;
  int64_t min_time = 0;
  int64_t max_time = 0;
  geo::BoundingBox bbox;
};

/// On-disk description of a partitioned dataset: the format version, the
/// write generation, the partition scheme, one summary per shard in
/// ascending key order, and (since v5) the appended-but-uncompacted delta
/// files in ascending seq order. Encoded/decoded by the binary codec
/// (binary_codec.h).
///
/// `generation` makes dataset rewrites crash-consistent: every
/// WriteDatasetFiles stamps a fresh generation and writes its shard files
/// under generation-qualified names, so a crash mid-rewrite can never tear
/// the shard files the previous (still-installed) manifest points at.
///
/// `next_delta_seq` is the append cursor: the seq the next AppendBatch will
/// use. It only ever grows (compaction preserves it), so the pair
/// (generation, next_delta_seq) is a monotonic commit version — the serve
/// layer compares it to decide whether anything new was committed.
///
/// `compacted_from` and `merged_below_seq` (since v8) are a generation's
/// provenance: an IngestWriter::Compact commit names the generation it
/// merged and the cursor below which every delta seq is folded into its
/// shards; the shards hold exactly the source generation's rows plus those
/// deltas'. Appends keep both, so they describe the generation for its
/// whole life. Both are 0 for a WriteDatasetFiles rewrite and a fresh
/// dataset, whose shards derive from nothing the manifest can name.
struct Manifest {
  uint32_t format_version = 0;  ///< kBinaryFormatVersion at write time
  uint64_t generation = 1;      ///< monotonic per dataset path, starts at 1
  uint64_t next_delta_seq = 0;  ///< seq of the next delta append; never resets
  PartitionSpec partition;
  std::vector<ShardSummary> shards;
  std::vector<DeltaSummary> deltas;  ///< ascending seq order
  uint64_t compacted_from = 0;    ///< generation a compaction merged, or 0
  uint64_t merged_below_seq = 0;  ///< delta seqs below it are in the shards
};

/// How ReadDatasetFiles treats a damaged dataset.
enum class RecoveryPolicy {
  /// Any checksum failure, truncation, missing shard file or row-count
  /// mismatch is a Status error (the default — corruption never passes
  /// silently).
  kStrict,
  /// Recover every block whose checksum verifies; drop corrupt blocks and
  /// unreadable shards, and account for every loss in the RecoveryReport.
  kSalvage,
};

/// Per-shard salvage accounting: what the manifest promised, what the
/// shard file yielded, and what was dropped on the floor.
struct ShardRecovery {
  int64_t key = 0;
  bool dropped = false;           ///< whole shard lost (unreadable/bad header)
  bool truncated = false;         ///< block framing ended early
  uint64_t rows_expected = 0;     ///< manifest row count
  uint64_t rows_recovered = 0;
  uint64_t blocks_total = 0;      ///< block count the shard header declared
  uint64_t blocks_dropped = 0;
  uint64_t checksum_failures = 0;
  Status status = Status::OK();   ///< first error observed for this shard
};

/// The outcome of a ReadDatasetFiles call: which policy ran, which
/// generation was opened, and exact per-shard row/block accounting. A
/// degraded report is surfaced by the analysis pipeline (the trace marks
/// every downstream stage as running on partial data). Delta files (the
/// v5 ingest path) are accounted exactly like shards, keyed by their seq.
struct RecoveryReport {
  RecoveryPolicy policy = RecoveryPolicy::kStrict;
  uint64_t generation = 0;
  /// The manifest's append cursor; (generation, next_delta_seq) is the
  /// commit version the serve layer keys refreshes on.
  uint64_t next_delta_seq = 0;
  std::vector<ShardRecovery> shards;
  /// Per-delta accounting (ShardRecovery::key holds the delta seq).
  std::vector<ShardRecovery> deltas;

  /// Sums over shards and deltas.
  uint64_t rows_expected() const;
  uint64_t rows_recovered() const;
  uint64_t shards_dropped() const;
  uint64_t blocks_dropped() const;
  uint64_t checksum_failures() const;

  /// True when any data was lost or any shard deviated from its manifest
  /// entry — the dataset opened, but not at full fidelity.
  bool degraded() const;

  /// One-line human-readable summary ("recovered 9980/10000 rows, ...").
  std::string ToString() const;
};

/// A set of time-partitioned shards, each an independent TweetTable.
///
/// The dataset is the unit the pipeline analyses: ingest routes rows to
/// shards by timestamp, compaction sorts each shard independently (and in
/// parallel), and the cross-shard iteration/scan helpers below present the
/// shards as one logical store. Because shards partition *time* and each
/// shard is compacted by (user, time, lat, lon) — a total order — the
/// k-way merged row sequence is exactly the sequence a single compacted
/// table would produce, which is what makes analysis results independent
/// of the shard count.
class TweetDataset {
 public:
  explicit TweetDataset(PartitionSpec partition = PartitionSpec::Single(),
                        size_t block_capacity = kDefaultBlockCapacity);

  TweetDataset(TweetDataset&&) noexcept = default;
  TweetDataset& operator=(TweetDataset&&) noexcept = default;
  TweetDataset(const TweetDataset&) = delete;
  TweetDataset& operator=(const TweetDataset&) = delete;

  /// Appends one validated row to the shard owning its timestamp, creating
  /// the shard on first use. Invalid rows are rejected with InvalidArgument.
  Status Append(const Tweet& tweet);

  /// Appends a batch of rows (the streaming-ingest unit — generators emit
  /// bounded batches instead of materializing the corpus).
  Status AppendBatch(const std::vector<Tweet>& batch);

  const PartitionSpec& partition() const { return partition_; }
  size_t block_capacity() const { return block_capacity_; }

  /// Total rows across all shards.
  size_t num_rows() const;
  /// Total sealed blocks across all shards.
  size_t num_blocks() const;

  size_t num_shards() const { return shards_.size(); }
  /// Shards are held in ascending partition-key order.
  int64_t shard_key(size_t i) const { return shards_[i].key; }
  const TweetTable& shard(size_t i) const { return shards_[i].table; }
  TweetTable& mutable_shard(size_t i) { return shards_[i].table; }

  /// Seals every shard's active tail.
  void SealAll();
  /// True when every shard is fully sealed (vacuously true when empty).
  bool fully_sealed() const;

  /// One shard's compaction: its wall time and what it did.
  struct ShardCompaction {
    double seconds = 0.0;
    CompactionReport report;
  };

  /// Compacts every shard by (user, time); with a pool the shards compact
  /// in parallel (each shard is independent, so the result is identical
  /// for any thread count). `per_shard`, when non-null, receives one entry
  /// per shard in shard order.
  void CompactShards(ThreadPool* pool = nullptr,
                     std::vector<ShardCompaction>* per_shard = nullptr);

  /// True when every shard is compacted by (user, time).
  bool sorted_by_user_time() const;

  /// Invokes `fn(const Tweet&)` for every row in storage order: shards in
  /// ascending key order, each in its own block order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (const Shard& s : shards_) s.table.ForEachRow(fn);
  }

  /// Distinct user count across all shards.
  size_t CountDistinctUsers() const;

  /// The manifest describing the current shards (seal first so the zone
  /// maps cover every row). `format_version` is filled by the codec.
  Manifest BuildManifest() const;

  /// Wraps an existing table as a dataset. With the default single
  /// partition the table becomes shard 0 wholesale — blocks, sort flag and
  /// bytes preserved exactly. With a real partition spec the rows are
  /// re-routed (re-ingested) into time shards.
  static TweetDataset FromTable(TweetTable table,
                                PartitionSpec partition = PartitionSpec::Single());

  /// Moves the data back out as one table. For a single shard this is the
  /// exact inverse of FromTable (no copy); multiple shards have their blocks
  /// adopted into one table, which is then compacted (TweetTable::Merge).
  TweetTable ReleaseTable() &&;

  /// Internal: adopts a fully-built shard under `key` (used by the binary
  /// codec). Rejects duplicate keys.
  Status AdoptShard(int64_t key, TweetTable table);

 private:
  struct Shard {
    int64_t key = 0;
    TweetTable table;
  };

  /// The shard owning `key`, created (in sorted position) on first use.
  TweetTable& ShardForKey(int64_t key);

  PartitionSpec partition_;
  size_t block_capacity_;
  std::vector<Shard> shards_;  ///< ascending key order
};

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_DATASET_H_
