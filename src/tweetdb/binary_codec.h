#ifndef TWIMOB_TWEETDB_BINARY_CODEC_H_
#define TWIMOB_TWEETDB_BINARY_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "tweetdb/dataset.h"
#include "tweetdb/storage_env.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {

/// Binary table file format (little-endian, v7):
///   magic "TWDB" (4 bytes) | version fixed32 | block count fixed64 |
///   header CRC32C fixed32 (over the preceding 16 bytes) | zone-map
///   directory (56 bytes per block) | directory CRC32C fixed32 | per block:
///   payload length varint | payload CRC32C fixed32 | payload
///   (block_compression.h encoding).
/// The history below records what each version added.
///
/// Version 2 blocks carry a per-column encoding tag: integer columns pick
/// delta-varint or frame-of-reference bit packing, user codes pick varint
/// or fixed-width bit packing — whichever is smaller for the block.
/// Compact (~6–8 bytes/row on the synthetic corpus) and loss-free at the
/// store's fixed-point coordinate resolution.
///
/// Version 3 adds the partitioned-dataset container: a manifest file
/// ("TWDM" magic) describing the partition spec and one zone-map summary
/// per shard, alongside one table file ("TWDB") per shard.
///
/// Version 4 adds end-to-end integrity and crash consistency: a header
/// CRC32C guards the block count before it drives any allocation, each
/// block payload is length-prefixed and carries its own CRC32C (verified
/// before the block decoder trusts any embedded length), manifests carry a
/// write generation plus a whole-file trailing CRC32C, shard files are
/// generation-qualified, and every dataset write goes through the storage
/// Env with write-temp / fsync / atomic-rename, manifest last.
///
/// Version 5 adds incremental ingest: the manifest carries an append
/// cursor (`next_delta_seq`) plus zero or more delta records — small
/// immutable `<path>.g<gen>.delta-<seq>` table files (ordinary "TWDB"
/// blobs with the same header/block CRC32C discipline) appended after the
/// generation's shards were sealed. Every append commits by rewriting the
/// manifest atomically (manifest rename stays the single commit point),
/// and LSM-style compaction (tweetdb/ingest.h) merges deltas into the next
/// sealed generation under the same old-or-new contract.
///
/// Version 6 adds compressed payloads and persisted zone maps. Block
/// payloads use the delta + frame-of-reference codec of
/// block_compression.h. Between the header and the first block frame sits
/// the zone-map directory — one fixed 56-byte record per block (row count,
/// user range, time range, and the fixed-point coordinate bounds, all
/// computed from the block's columns) followed by its own CRC32C — the
/// on-disk twin of the in-memory BlockStats. Decoders verify the decoded
/// columns against the directory entry: a disagreement fails the block
/// decode rather than misprune a scan. Block frames are unchanged (length
/// varint + payload CRC32C + payload).
///
/// Version 7 makes the v6 codec the only block payload codec: sealed
/// shards and ingest delta files alike are compressed, the v5 per-column
/// encoding is gone, and so is the v6 header's flags word that selected
/// between them — the CRC-guarded header prefix is back to 16 bytes
/// (magic, version, block count).
///
/// Version 8 adds compaction provenance to the manifest, so a reader that
/// already holds a generation's rows can adopt its compacted successor
/// without reading the successor's shards (serve::SnapshotCatalog's
/// rebase): each shard record carries its file's block count, which a
/// strict read checks against the file header, and the manifest ends with
/// `compacted_from` (the generation an IngestWriter::Compact merged, 0
/// otherwise) and `merged_below_seq` (every delta seq below it is folded
/// into the shards). Table files are unchanged apart from the version.
///
/// Version 9 lets a compaction carry shard files it did not rewrite: each
/// shard record names the generation that wrote its file (the manifest's
/// own generation for a file this commit wrote, an earlier one for a file
/// carried forward), and every reader resolves the shard's file name from
/// it. IngestWriter::Compact rewrites only the shards its deltas touch.
/// Table files are unchanged apart from the version.

inline constexpr uint32_t kBinaryFormatVersion = 9;

/// Serialises the table into a byte string (active tail is NOT included;
/// callers seal first — WriteBinaryFile does).
std::string EncodeTable(const TweetTable& table);

/// Decodes a table from bytes, verifying every checksum and zone-map
/// record. Any corruption — bad magic, version skew, checksum mismatch,
/// truncation, trailing bytes — is a Status error, never a crash.
Result<TweetTable> DecodeTable(std::string_view bytes);

/// What DecodeTableSalvage managed to pull out of a damaged table blob.
struct TableSalvageReport {
  uint64_t blocks_total = 0;       ///< block count the header declared
  uint64_t blocks_recovered = 0;
  uint64_t checksum_failures = 0;  ///< blocks skipped for CRC mismatch
  uint64_t rows_recovered = 0;
  bool truncated = false;          ///< framing ended before blocks_total
};

/// Best-effort decode: recovers every block whose CRC32C verifies,
/// skipping corrupt blocks by their length prefix. The header (magic,
/// version, block count, header CRC) must be intact — without it the
/// framing cannot be trusted and the whole blob is an error. `report`
/// (optional) receives exact accounting.
Result<TweetTable> DecodeTableSalvage(std::string_view bytes,
                                      TableSalvageReport* report = nullptr);

/// Seals and writes the table to `path` via AtomicWriteFile (write temp,
/// sync, rename — a crash leaves the old file or the new one, never a torn
/// hybrid). The table is mutated only by the seal (no rows change).
Status WriteBinaryFile(TweetTable& table, const std::string& path,
                       Env* env = nullptr, const WriteOptions& options = {});

/// Reads a table previously written by WriteBinaryFile.
Result<TweetTable> ReadBinaryFile(const std::string& path, Env* env = nullptr);

/// Storage accounting for one table (computed by encoding the sealed
/// blocks — the numbers the file on disk would have, including the
/// per-block length + CRC32C framing).
struct TableDescription {
  size_t num_rows = 0;
  size_t num_blocks = 0;
  size_t encoded_bytes = 0;      ///< total file payload
  size_t raw_bytes = 0;          ///< 24 bytes/row SoA equivalent
  double bytes_per_row = 0.0;
  double compression_ratio = 0.0;  ///< raw / encoded
};

/// Encodes the table's sealed blocks and reports size statistics (seal the
/// active tail first to account for every row). The encoded size is
/// EncodeTable(table).size(): framing and zone-map directory included.
TableDescription DescribeTable(const TweetTable& table);

/// Manifest file format (little-endian):
///   magic "TWDM" (4 bytes) | version fixed32 | generation fixed64 |
///   next delta seq fixed64 | partition origin fixed64 | partition width
///   fixed64 | shard count fixed64 | per shard: key fixed64 | file
///   generation fixed64 | blocks fixed64 | rows fixed64 | min/max user
///   fixed64 | min/max time fixed64 | bbox 4 x double (IEEE-754 bits,
///   fixed64) | delta count fixed64 | per delta: born generation fixed64
///   | seq fixed64 | rows fixed64 | min/max user fixed64 | min/max time
///   fixed64 | bbox 4 x double | compacted_from fixed64 | merged_below_seq
///   fixed64 | trailing CRC32C fixed32 over all preceding bytes.
/// Shards must appear in strictly ascending key order and deltas in
/// strictly ascending seq order (every seq in [merged_below_seq,
/// next_delta_seq)); duplicates, disorder, a shard file generation of 0 or
/// past the manifest's, a compacted_from that is not an earlier generation
/// and a merged_below_seq past the cursor are decode errors.

/// Serialises a manifest into a byte string.
std::string EncodeManifest(const Manifest& manifest);

/// Decodes a manifest, validating magic, version, the whole-file CRC32C,
/// shard-count sanity and key ordering. Never crashes on malformed input.
Result<Manifest> DecodeManifest(std::string_view bytes);

/// The shard file path of `key` at write `generation` for a dataset rooted
/// at `manifest_path` (e.g. "corpus.twdb" -> "corpus.twdb.g1.shard-<key>").
/// Generation-qualified names are what make rewrites crash-consistent: a
/// new generation never overwrites the files the installed manifest
/// references.
std::string ShardFilePath(const std::string& manifest_path, uint64_t generation,
                          int64_t key);

/// The delta file path of append `seq` born under `generation` (e.g.
/// "corpus.twdb" -> "corpus.twdb.g1.delta-3"). Delta files are ordinary
/// "TWDB" table blobs; the generation in the name is the one recorded in
/// the DeltaSummary, which compaction preserves when carrying an unmerged
/// delta into the next generation.
std::string DeltaFilePath(const std::string& manifest_path, uint64_t generation,
                          uint64_t seq);

/// The GC step of a commit that superseded `old_manifest` with
/// `new_manifest`: the files to remove now. Those are the files
/// `old_manifest` references (shard and delta files alike) that
/// `new_manifest` does not, unless a pinned generation references one of
/// them — then the set is deferred (generation_pins.h RetireFiles) — plus
/// every earlier deferral whose pins have all been released. Shards and
/// deltas a compaction carries forward appear in both manifests and are
/// therefore never removed.
std::vector<std::string> RetireSupersededFiles(const std::string& manifest_path,
                                               const Manifest& old_manifest,
                                               const Manifest& new_manifest);

/// Seals the dataset, compacts every shard by (user, time) — so the files
/// are stored in compaction order and a later open's compaction is an O(n)
/// check — and atomically writes it under a fresh generation: every shard
/// file first (temp + sync + rename each), the manifest LAST,
/// then best-effort removal of the previous generation's shard files. A
/// crash at any operation leaves the previous dataset fully readable or
/// the new one fully installed — never a mix. `env` defaults to
/// Env::Default().
///
/// GC is refcount-aware and works on the file-set difference
/// (RetireSupersededFiles): every file the old manifest referenced (shards
/// AND deltas) that the new manifest no longer references is removed. A file
/// that a generation still pinned by a live `GenerationPin` references
/// (generation_pins.h — the serve layer pins the generation each
/// AnalysisSnapshot was opened from) is deferred instead of deleted, and
/// swept by a later commit once those pins are released, so a writer commit
/// can never delete files under a reader.
///
/// A full rewrite subsumes any pending deltas: the new manifest carries
/// none, but the old manifest's append cursor (`next_delta_seq`) is
/// preserved so the commit version stays monotonic.
Status WriteDatasetFiles(TweetDataset& dataset, const std::string& path,
                         Env* env = nullptr, const WriteOptions& options = {});

/// The accounting a strict ReadDatasetFiles gives `shard` when its file
/// reads back intact: every row and block of the manifest record recovered,
/// nothing dropped. Built from the manifest alone (v8 records the block
/// count), it is what a rebased snapshot reports for shards it never read.
ShardRecovery IntactShardRecovery(const ShardSummary& shard);

/// Reads a dataset previously written by WriteDatasetFiles (and possibly
/// appended to by tweetdb::IngestWriter). Under RecoveryPolicy::kStrict
/// any mismatch (a shard's row count or its header's block count against
/// the manifest), corruption, truncation, version skew or duplicate key is
/// a Status error — never a crash. Under kSalvage, damaged blocks and
/// unreadable shards/deltas are dropped and the remainder is returned;
/// `report` (optional under either policy) receives per-shard and
/// per-delta accounting. Delta rows are re-routed into their time shards
/// in manifest (seq) order, so the merged dataset is deterministic; the
/// result is sealed but its shards are unsorted whenever any delta rows
/// were folded in (the analysis compact stage re-sorts). The manifest
/// itself must decode (it is written atomically and CRC-guarded, so a
/// damaged manifest means the dataset's shape is unknown).
///
/// File reads are serial and in manifest order (shards, then deltas), so
/// the env sees the same operation sequence with or without `pool`; with a
/// `pool` the payloads then decode concurrently, each into its own slot,
/// and adoption and accounting run in manifest order — the dataset and
/// the report are identical either way.
Result<TweetDataset> ReadDatasetFiles(
    const std::string& path, RecoveryPolicy policy = RecoveryPolicy::kStrict,
    RecoveryReport* report = nullptr, Env* env = nullptr,
    ThreadPool* pool = nullptr);

/// Reads, strictly, the delta files `manifest` (the committed manifest of
/// `path`) lists with seq >= `from_seq`, in seq order, and routes their
/// rows into time shards under manifest.partition: exactly the rows
/// ReadDatasetFiles folds in for those deltas, without touching a shard
/// file. `accounting`, when non-null, receives one entry per delta read,
/// equal to the entry ReadDatasetFiles' RecoveryReport::deltas holds for
/// it. Any damage (an unreadable, torn or corrupt file, a row count that
/// disagrees with the manifest) is the returned error. The result is
/// sealed, in storage order (uncompacted). Reads are serial; with a `pool`
/// the payloads decode concurrently, as in ReadDatasetFiles.
Result<TweetDataset> ReadDeltaFiles(const std::string& path,
                                    const Manifest& manifest, uint64_t from_seq,
                                    std::vector<ShardRecovery>* accounting = nullptr,
                                    Env* env = nullptr, ThreadPool* pool = nullptr);

/// Reads, strictly, the shard files `shards` (records of the committed
/// manifest of `path`, ascending key order) and adopts each whole into
/// `dataset` under its key: ReadDatasetFiles' per-file read, decode and
/// checks (row and block counts against the record) for a chosen subset
/// of a generation's shards. Any damage is the returned error. Reads are
/// serial; with a `pool` the payloads decode concurrently.
/// IngestWriter::Compact reads the shards its deltas touch through it.
Status ReadShardFiles(const std::string& path, std::span<const ShardSummary> shards,
                      TweetDataset* dataset, Env* env = nullptr,
                      ThreadPool* pool = nullptr);

/// Storage accounting for one dataset as installed on disk.
struct DatasetDescription {
  uint64_t generation = 0;
  uint64_t next_delta_seq = 0;
  struct FileEntry {
    std::string label;       ///< "shard-<key>" or "delta-<seq>"
    uint64_t generation = 0; ///< generation that wrote the file
    uint64_t rows = 0;
    uint64_t bytes = 0;      ///< on-disk file size
  };
  std::vector<FileEntry> shards;
  std::vector<FileEntry> deltas;
  uint64_t total_rows = 0;
  uint64_t shard_bytes = 0;
  uint64_t delta_bytes = 0;
  uint64_t manifest_bytes = 0;
  double compression_ratio = 0.0;  ///< 24 B/row raw / total on-disk bytes

  /// Multi-line human-readable rendering: per-shard and per-generation
  /// row counts, delta backlog, on-disk bytes and the compression ratio.
  std::string ToString() const;
};

/// Reads the installed manifest and sizes every file it references.
Result<DatasetDescription> DescribeDataset(const std::string& path,
                                           Env* env = nullptr);

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_BINARY_CODEC_H_
