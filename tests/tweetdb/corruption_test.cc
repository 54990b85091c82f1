// Robustness property tests: decoding corrupted or random bytes must never
// crash, hang, or return success with an inconsistent table — the contract
// a storage layer owes its callers.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/block.h"
#include "tweetdb/dataset.h"
#include "tweetdb/encoding.h"
#include "tweetdb/ingest.h"
#include "tweetdb/storage_env.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {
namespace {

/// Recomputes the trailing manifest CRC32C after a deliberate tamper, so a
/// test can reach the structural validators behind the checksum gate.
void PatchManifestCrc(std::string* bytes) {
  ASSERT_GE(bytes->size(), 4u);
  const uint32_t crc = Crc32c(bytes->data(), bytes->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

TweetTable SmallTable(uint64_t seed) {
  random::Xoshiro256 rng(seed);
  TweetTable table(128);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(table
                    .Append(Tweet{rng.NextUint64(50) + 1,
                                  static_cast<int64_t>(rng.NextUint64(1000000)),
                                  geo::LatLon{rng.NextUniform(-44, -10),
                                              rng.NextUniform(113, 154)}})
                    .ok());
  }
  table.SealActive();
  return table;
}

TEST(CorruptionTest, EverySingleByteFlipIsCaught) {
  // v4 carries a header CRC32C plus one CRC32C per block payload, so a flip
  // anywhere in the file — header, frame, or payload — must turn into a
  // checksum (or structural) error, never a silently different table.
  TweetTable table = SmallTable(1);
  const std::string bytes = EncodeTable(table);
  random::Xoshiro256 rng(2);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] ^= static_cast<char>(1 + rng.NextUint64(255));
    EXPECT_FALSE(DecodeTable(corrupted).ok()) << "flip at " << pos;
  }
}

TEST(CorruptionTest, RandomTruncationsNeverCrash) {
  TweetTable table = SmallTable(3);
  const std::string bytes = EncodeTable(table);
  random::Xoshiro256 rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t cut = rng.NextUint64(bytes.size());
    auto decoded = DecodeTable(std::string_view(bytes.data(), cut));
    // Truncation strictly inside the stream must never decode fully.
    if (cut < bytes.size()) {
      EXPECT_FALSE(decoded.ok()) << cut;
    }
  }
}

TEST(CorruptionTest, RandomGarbageNeverCrashes) {
  random::Xoshiro256 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage(rng.NextUint64(4096), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextUint64(256));
    auto decoded = DecodeTable(garbage);
    // Virtually always an error; success would require valid magic +
    // version + structure, which random bytes cannot produce.
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(CorruptionTest, GarbageWithValidHeaderNeverCrashes) {
  random::Xoshiro256 rng(6);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = "TWDB";
    bytes.push_back(1);  // version 1 little-endian
    bytes.append(3, '\0');
    // Plausible small block count.
    bytes.push_back(static_cast<char>(rng.NextUint64(4) + 1));
    bytes.append(7, '\0');
    const size_t body = rng.NextUint64(2048);
    for (size_t i = 0; i < body; ++i) {
      bytes.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    auto decoded = DecodeTable(bytes);
    (void)decoded;  // must simply not crash or hang
  }
}

// ---------------------------------------------------------------------------
// Manifest (v3 partitioned-dataset container) corruption properties.

TweetDataset SmallDataset(uint64_t seed) {
  random::Xoshiro256 rng(seed);
  TweetDataset dataset(PartitionSpec{0, 250000}, 128);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(dataset
                    .Append(Tweet{rng.NextUint64(50) + 1,
                                  static_cast<int64_t>(rng.NextUint64(1000000)),
                                  geo::LatLon{rng.NextUniform(-44, -10),
                                              rng.NextUniform(113, 154)}})
                    .ok());
  }
  dataset.SealAll();
  EXPECT_GT(dataset.num_shards(), 1u);
  return dataset;
}

std::string SmallManifestBytes(uint64_t seed) {
  TweetDataset dataset = SmallDataset(seed);
  Manifest manifest = dataset.BuildManifest();
  return EncodeManifest(manifest);
}

TEST(ManifestCorruptionTest, TruncationsAtEveryPrefixAreErrors) {
  const std::string bytes = SmallManifestBytes(7);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = DecodeManifest(std::string_view(bytes.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_TRUE(DecodeManifest(bytes).ok());
}

TEST(ManifestCorruptionTest, VersionSkewRejected) {
  std::string bytes = SmallManifestBytes(8);
  bytes[4] = 99;  // little-endian fixed32 version field follows the magic
  auto decoded = DecodeManifest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(ManifestCorruptionTest, DuplicateShardKeysRejected) {
  Manifest manifest;
  manifest.partition = PartitionSpec{0, 1000};
  ShardSummary s;
  s.key = 3;
  s.num_rows = 1;
  manifest.shards.push_back(s);
  manifest.shards.push_back(s);  // duplicate key 3
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("duplicate"), std::string::npos);
}

TEST(ManifestCorruptionTest, OutOfOrderShardKeysRejected) {
  Manifest manifest;
  manifest.partition = PartitionSpec{0, 1000};
  ShardSummary a, b;
  a.key = 5;
  b.key = 2;
  manifest.shards.push_back(a);
  manifest.shards.push_back(b);
  EXPECT_FALSE(DecodeManifest(EncodeManifest(manifest)).ok());
}

TEST(ManifestCorruptionTest, TrailingBytesRejected) {
  std::string bytes = SmallManifestBytes(9);
  bytes.push_back('\x01');
  EXPECT_FALSE(DecodeManifest(bytes).ok());
}

TEST(ManifestCorruptionTest, EverySingleByteFlipIsCaught) {
  // The manifest ends in a whole-file CRC32C; any single-byte flip must be
  // rejected (as a checksum mismatch or an earlier structural error).
  const std::string bytes = SmallManifestBytes(10);
  random::Xoshiro256 rng(11);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] ^= static_cast<char>(1 + rng.NextUint64(255));
    EXPECT_FALSE(DecodeManifest(corrupted).ok()) << "flip at " << pos;
  }
}

TEST(ManifestCorruptionTest, ImplausibleShardCountFailsFast) {
  // A header claiming 2^40 shards must fail fast, not allocate. The CRC is
  // re-patched so the structural validator (not the checksum) is what
  // rejects it.
  Manifest manifest;
  manifest.partition = PartitionSpec{0, 1000};
  std::string bytes = EncodeManifest(manifest);
  const uint64_t huge = 1ULL << 40;
  // Shard count is the fifth fixed64 after magic+version
  // (offset 4+4 + generation 8 + next delta seq 8 + origin 8 + width 8).
  for (int i = 0; i < 8; ++i) {
    bytes[40 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  PatchManifestCrc(&bytes);
  auto decoded = DecodeManifest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("implausible"), std::string::npos);
}

// ---------------------------------------------------------------------------
// v5 delta records (incremental ingest).

namespace {
/// A structurally valid manifest with one delta record, for tampering.
Manifest ManifestWithDelta() {
  Manifest manifest;
  manifest.partition = PartitionSpec{0, 1000};
  manifest.next_delta_seq = 2;
  DeltaSummary d;
  d.generation = 1;
  d.seq = 0;
  d.num_rows = 1;
  manifest.deltas.push_back(d);
  return manifest;
}
}  // namespace

TEST(ManifestCorruptionTest, DeltaRecordsRoundTrip) {
  Manifest manifest = ManifestWithDelta();
  DeltaSummary d;
  d.generation = 1;
  d.seq = 1;
  d.num_rows = 4;
  manifest.deltas.push_back(d);
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->next_delta_seq, 2u);
  ASSERT_EQ(decoded->deltas.size(), 2u);
  EXPECT_EQ(decoded->deltas[0].seq, 0u);
  EXPECT_EQ(decoded->deltas[1].seq, 1u);
  EXPECT_EQ(decoded->deltas[1].num_rows, 4u);
}

TEST(ManifestCorruptionTest, DuplicateDeltaSeqsRejected) {
  Manifest manifest = ManifestWithDelta();
  manifest.deltas.push_back(manifest.deltas[0]);  // duplicate seq 0
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("duplicate delta seq"),
            std::string::npos);
}

TEST(ManifestCorruptionTest, OutOfOrderDeltaSeqsRejected) {
  Manifest manifest = ManifestWithDelta();
  DeltaSummary earlier = manifest.deltas[0];
  manifest.deltas[0].seq = 1;
  manifest.deltas.push_back(earlier);  // seq 0 after seq 1
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("out of order"), std::string::npos);
}

TEST(ManifestCorruptionTest, DeltaSeqAtOrAboveCursorRejected) {
  // The append cursor must stay strictly above every committed seq —
  // otherwise a retried append could silently reuse a live delta's name.
  Manifest manifest = ManifestWithDelta();
  manifest.deltas[0].seq = manifest.next_delta_seq;
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("append cursor"), std::string::npos);
}

TEST(ManifestCorruptionTest, ImplausibleDeltaCountFailsFast) {
  Manifest manifest;
  manifest.partition = PartitionSpec{0, 1000};
  std::string bytes = EncodeManifest(manifest);
  const uint64_t huge = 1ULL << 40;
  // With zero shards, the delta count is the fixed64 right after the shard
  // count (offset 40), before the trailing CRC.
  for (int i = 0; i < 8; ++i) {
    bytes[48 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  PatchManifestCrc(&bytes);
  auto decoded = DecodeManifest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("implausible"), std::string::npos);
}

TEST(ManifestCorruptionTest, V4ManifestRejectedWithVersionMessage) {
  // A v4 manifest (no append cursor, no delta records) must be rejected
  // with a version-skew message, not misparsed against the v5 layout.
  std::string bytes = SmallManifestBytes(14);
  bytes[4] = 4;  // little-endian fixed32 version field follows the magic
  PatchManifestCrc(&bytes);
  auto decoded = DecodeManifest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);

  // A v6 manifest has the current layout under the previous version
  // number; it is rejected by version, never read.
  std::string v6 = SmallManifestBytes(15);
  v6[4] = 6;
  PatchManifestCrc(&v6);
  auto decoded_v6 = DecodeManifest(v6);
  ASSERT_FALSE(decoded_v6.ok());
  EXPECT_NE(decoded_v6.status().message().find("format version 6 (expected 7)"),
            std::string::npos)
      << decoded_v6.status().message();
}

TEST(ManifestCorruptionTest, ShardRowCountMismatchRejectedOnRead) {
  const std::string path =
      testing::TempDir() + "/twimob_manifest_mismatch.twdb";
  std::remove(path.c_str());  // fresh path -> deterministic generation 1
  TweetDataset dataset = SmallDataset(12);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  ASSERT_TRUE(ReadDatasetFiles(path).ok());

  // Tamper the manifest: claim one extra row in the first shard.
  Manifest manifest = dataset.BuildManifest();
  manifest.generation = 1;
  manifest.shards[0].num_rows += 1;
  const std::string bytes = EncodeManifest(manifest);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto reread = ReadDatasetFiles(path);
  ASSERT_FALSE(reread.ok());
  EXPECT_NE(reread.status().message().find("mismatch"), std::string::npos);
}

TEST(ManifestCorruptionTest, MissingShardFileIsAnError) {
  const std::string path = testing::TempDir() + "/twimob_manifest_missing.twdb";
  std::remove(path.c_str());  // fresh path -> deterministic generation 1
  TweetDataset dataset = SmallDataset(13);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  std::remove(ShardFilePath(path, /*generation=*/1, dataset.shard_key(0)).c_str());
  EXPECT_FALSE(ReadDatasetFiles(path).ok());
}

// ---------------------------------------------------------------------------
// v4 integrity + salvage properties.

TEST(CorruptionTest, V3TableRejectedWithVersionMessage) {
  // A v3 file (no checksums) must be rejected up front with a version-skew
  // message, not misparsed against the current layout.
  std::string bytes = "TWDB";
  bytes.push_back(3);  // version 3, little-endian fixed32
  bytes.append(3, '\0');
  bytes.append(8, '\0');  // zero blocks
  auto decoded = DecodeTable(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);

  // So must a v6 file, whose header still carries the codec flags word
  // (magic | version | flags | block count | CRC32C over 20 bytes).
  std::string v6 = "TWDB";
  PutFixed32(&v6, 6);
  PutFixed32(&v6, 1);  // flags: compressed payloads
  PutFixed64(&v6, 0);  // zero blocks
  PutFixed32(&v6, Crc32c(v6.data(), v6.size()));
  PutFixed32(&v6, Crc32c(nullptr, 0));  // empty zone-map directory
  auto decoded_v6 = DecodeTable(v6);
  ASSERT_FALSE(decoded_v6.ok());
  EXPECT_NE(decoded_v6.status().message().find(
                "unsupported format version 6 (expected 7)"),
            std::string::npos)
      << decoded_v6.status().message();
}

TEST(ManifestCorruptionTest, V3ManifestRejectedWithVersionMessage) {
  std::string bytes = "TWDM";
  bytes.push_back(3);  // version 3, little-endian fixed32
  bytes.append(3, '\0');
  bytes.append(24, '\0');  // v3 header remainder: origin, width, shard count
  auto decoded = DecodeManifest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(SalvageTest, BlockFlipDropsOneBlockAndKeepsTheRest) {
  TweetTable table = SmallTable(20);
  std::string bytes = EncodeTable(table);
  ASSERT_GT(table.num_blocks(), 2u);
  bytes.back() ^= '\x40';  // inside the last block's payload

  // Strict decode refuses; salvage recovers everything but the hit block.
  auto strict = DecodeTable(bytes);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("checksum"), std::string::npos);

  TableSalvageReport report;
  auto salvaged = DecodeTableSalvage(bytes, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(report.blocks_total, table.num_blocks());
  EXPECT_EQ(report.blocks_recovered, table.num_blocks() - 1);
  EXPECT_EQ(report.checksum_failures, 1u);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(salvaged->num_rows(), report.rows_recovered);
  const uint64_t lost_rows =
      table.block(table.num_blocks() - 1).num_rows();
  EXPECT_EQ(report.rows_recovered, table.num_rows() - lost_rows);
}

TEST(SalvageTest, TruncationRecoversThePrefix) {
  TweetTable table = SmallTable(21);
  const std::string bytes = EncodeTable(table);
  ASSERT_GT(table.num_blocks(), 2u);
  // Cut inside the last block: its frame is incomplete.
  TableSalvageReport report;
  auto salvaged = DecodeTableSalvage(
      std::string_view(bytes.data(), bytes.size() - 10), &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.blocks_recovered, table.num_blocks() - 1);
  EXPECT_EQ(salvaged->num_rows(), report.rows_recovered);
  EXPECT_LT(report.rows_recovered, table.num_rows());
}

TEST(SalvageTest, DamagedHeaderFailsEvenSalvage) {
  TweetTable table = SmallTable(22);
  std::string bytes = EncodeTable(table);
  bytes[9] ^= '\x01';  // inside the block-count field: framing untrustworthy
  EXPECT_FALSE(DecodeTableSalvage(bytes).ok());
}

TEST(SalvageTest, DatasetShardFlipRecoversUnderSalvagePolicy) {
  Env& env = *Env::Default();
  const std::string path = testing::TempDir() + "/twimob_salvage_flip.twdb";
  std::remove(path.c_str());
  TweetDataset dataset = SmallDataset(23);
  const size_t total_rows = dataset.num_rows();
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());

  // Flip the final payload byte of the first shard's file.
  const std::string shard_path =
      ShardFilePath(path, /*generation=*/1, dataset.shard_key(0));
  auto shard_bytes = ReadFileToString(env, shard_path);
  ASSERT_TRUE(shard_bytes.ok());
  shard_bytes->back() ^= '\x20';
  ASSERT_TRUE(AtomicWriteFile(env, shard_path, *shard_bytes).ok());

  // Strict: refused with a checksum error.
  auto strict = ReadDatasetFiles(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("checksum"), std::string::npos);

  // Salvage: opens, drops exactly one block, and accounts for every row.
  RecoveryReport report;
  auto salvaged = ReadDatasetFiles(path, RecoveryPolicy::kSalvage, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.policy, RecoveryPolicy::kSalvage);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.shards.size(), dataset.num_shards());
  EXPECT_EQ(report.checksum_failures(), 1u);
  EXPECT_EQ(report.blocks_dropped(), 1u);
  EXPECT_EQ(report.shards_dropped(), 0u);
  EXPECT_EQ(report.rows_expected(), total_rows);
  EXPECT_EQ(salvaged->num_rows(), report.rows_recovered());
  EXPECT_LT(report.rows_recovered(), total_rows);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(SalvageTest, MissingShardDroppedUnderSalvagePolicy) {
  const std::string path = testing::TempDir() + "/twimob_salvage_missing.twdb";
  std::remove(path.c_str());
  TweetDataset dataset = SmallDataset(24);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  const uint64_t shard0_rows = dataset.shard(0).num_rows();
  std::remove(ShardFilePath(path, /*generation=*/1, dataset.shard_key(0)).c_str());

  RecoveryReport report;
  auto salvaged = ReadDatasetFiles(path, RecoveryPolicy::kSalvage, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.shards_dropped(), 1u);
  EXPECT_TRUE(report.shards[0].dropped);
  EXPECT_FALSE(report.shards[0].status.ok());
  EXPECT_EQ(report.rows_recovered(), dataset.num_rows() - shard0_rows);
  EXPECT_EQ(salvaged->num_rows(), dataset.num_rows() - shard0_rows);
  EXPECT_EQ(salvaged->num_shards(), dataset.num_shards() - 1);
}

TEST(SalvageTest, CleanDatasetIsNotDegraded) {
  const std::string path = testing::TempDir() + "/twimob_salvage_clean.twdb";
  std::remove(path.c_str());
  TweetDataset dataset = SmallDataset(25);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  RecoveryReport report;
  auto salvaged = ReadDatasetFiles(path, RecoveryPolicy::kSalvage, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.rows_recovered(), dataset.num_rows());
}

TEST(SalvageTest, EveryDeltaFileByteFlipIsCaughtAndAccounted) {
  // A delta file written by the append path, flipped one byte at a time:
  // the strict reader refuses every flip with an IOError, and a salvage
  // read accounts for every row of the delta — recovered rows are exactly
  // stored rows, and any loss shows in the delta's RecoveryReport entry.
  const std::string path = testing::TempDir() + "/twimob_delta_flip.twdb";
  std::remove(path.c_str());  // fresh path -> deterministic generation 1
  IngestOptions options;
  options.partition = PartitionSpec{0, 250000};
  options.block_capacity = 50;  // three blocks
  random::Xoshiro256 rng(40);
  std::vector<Tweet> batch;
  for (int i = 0; i < 120; ++i) {
    batch.push_back(Tweet{rng.NextUint64(30) + 1,
                          static_cast<int64_t>(rng.NextUint64(1000000)),
                          geo::LatLon{rng.NextUniform(-44, -10),
                                      rng.NextUniform(113, 154)}});
  }
  {
    auto writer = IngestWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  }
  auto clean = ReadDatasetFiles(path);
  ASSERT_TRUE(clean.ok());
  std::vector<Tweet> stored;
  clean->ForEachRow([&stored](const Tweet& t) { stored.push_back(t); });
  std::sort(stored.begin(), stored.end(), UserTimeLess);
  ASSERT_EQ(stored.size(), batch.size());

  Env& env = *Env::Default();
  const std::string delta_path = DeltaFilePath(path, /*generation=*/1, /*seq=*/0);
  auto original = ReadFileToString(env, delta_path);
  ASSERT_TRUE(original.ok());
  for (size_t pos = 0; pos < original->size(); ++pos) {
    std::string corrupted = *original;
    corrupted[pos] ^= static_cast<char>(1 + rng.NextUint64(255));
    {
      std::ofstream out(delta_path, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
    }
    EXPECT_TRUE(ReadDatasetFiles(path).status().IsIOError()) << "flip at " << pos;

    RecoveryReport report;
    auto salvaged = ReadDatasetFiles(path, RecoveryPolicy::kSalvage, &report);
    ASSERT_TRUE(salvaged.ok()) << "flip at " << pos;
    ASSERT_EQ(report.deltas.size(), 1u);
    const ShardRecovery& rec = report.deltas[0];
    EXPECT_EQ(rec.rows_expected, batch.size());
    EXPECT_EQ(salvaged->num_rows(), rec.rows_recovered) << "flip at " << pos;
    EXPECT_TRUE(rec.rows_recovered == rec.rows_expected || rec.dropped ||
                rec.blocks_dropped > 0 || rec.truncated)
        << "unaccounted loss, flip at " << pos;
    EXPECT_EQ(report.degraded(), rec.rows_recovered != rec.rows_expected)
        << "flip at " << pos;
    std::vector<Tweet> recovered;
    salvaged->ForEachRow([&recovered](const Tweet& t) { recovered.push_back(t); });
    std::sort(recovered.begin(), recovered.end(), UserTimeLess);
    EXPECT_TRUE(std::includes(stored.begin(), stored.end(), recovered.begin(),
                              recovered.end(), UserTimeLess))
        << "salvage invented rows, flip at " << pos;
  }
}

TEST(DatasetRewriteTest, RewriteBumpsGenerationAndRemovesOldFiles) {
  const std::string path = testing::TempDir() + "/twimob_rewrite_gen.twdb";
  std::remove(path.c_str());
  TweetDataset first = SmallDataset(26);
  ASSERT_TRUE(WriteDatasetFiles(first, path).ok());
  TweetDataset second = SmallDataset(27);
  ASSERT_TRUE(WriteDatasetFiles(second, path).ok());

  RecoveryReport report;
  auto reread = ReadDatasetFiles(path, RecoveryPolicy::kStrict, &report);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(reread->num_rows(), second.num_rows());
  // The superseded generation's shard files were garbage-collected.
  Env& env = *Env::Default();
  for (size_t i = 0; i < first.num_shards(); ++i) {
    EXPECT_FALSE(env.FileExists(
        ShardFilePath(path, /*generation=*/1, first.shard_key(i))));
  }
}

// ---------------------------------------------------------------------------
// Zone-map directory + compressed payload corruption properties.

constexpr size_t kHeaderBytes = 20;     // 16-byte CRC-covered prefix + CRC32C
constexpr size_t kZoneMapRecord = 56;   // fixed directory record size

/// Recomputes the zone-map directory CRC32C after tampering a record, so the
/// zone-map-vs-payload cross-check (not the directory checksum) is what
/// rejects the lie.
void PatchDirectoryCrc(std::string* bytes, size_t num_blocks) {
  const size_t dir_size = num_blocks * kZoneMapRecord;
  ASSERT_GE(bytes->size(), kHeaderBytes + dir_size + 4);
  const uint32_t crc = Crc32c(bytes->data() + kHeaderBytes, dir_size);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[kHeaderBytes + dir_size + i] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

TEST(CorruptionTest, ZoneMapLieFailsDecodeInsteadOfMispruning) {
  // A directory record that disagrees with its (CRC-clean) payload must
  // fail the decode — scans prune on the record, so accepting the block
  // would let a tampered directory hide rows from queries. The directory
  // CRC is re-patched: the cross-check itself has to catch the lie.
  TweetTable table = SmallTable(33);
  ASSERT_GT(table.num_blocks(), 2u);
  std::string bytes = EncodeTable(table);
  bytes[kHeaderBytes + 8] ^= '\x7F';  // block 0's min_user field
  PatchDirectoryCrc(&bytes, table.num_blocks());

  auto strict = DecodeTable(bytes);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("zone-map"), std::string::npos);

  // Salvage drops exactly the lying block: its payload CRC is fine, but the
  // trusted directory disagrees, so keeping it would misprune.
  TableSalvageReport report;
  auto salvaged = DecodeTableSalvage(bytes, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(report.blocks_total, table.num_blocks());
  EXPECT_EQ(report.blocks_recovered, table.num_blocks() - 1);
  EXPECT_EQ(report.checksum_failures, 0u);
  EXPECT_EQ(salvaged->num_rows(),
            table.num_rows() - table.block(0).num_rows());
}

TEST(CorruptionTest, UntrustedDirectorySalvageRecoversEveryBlock) {
  // A directory whose own CRC fails is merely untrusted: strict decode
  // refuses, but salvage still recovers every CRC-clean block (their
  // payload checksums vouch for them; the zone-map cross-check is skipped
  // because there is no trustworthy record to check against).
  TweetTable table = SmallTable(34);
  std::string bytes = EncodeTable(table);
  bytes[kHeaderBytes + 3] ^= '\x10';  // inside block 0's record, CRC stale

  auto strict = DecodeTable(bytes);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("zone-map directory checksum"),
            std::string::npos);

  TableSalvageReport report;
  auto salvaged = DecodeTableSalvage(bytes, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(report.blocks_recovered, table.num_blocks());
  EXPECT_EQ(report.checksum_failures, 0u);
  EXPECT_EQ(salvaged->num_rows(), table.num_rows());
}

TEST(CorruptionTest, TruncationInsideDirectoryFailsEvenSalvage) {
  // Without a complete directory the frame region cannot be located, so
  // salvage returns an empty (truncated) table rather than guessing.
  TweetTable table = SmallTable(35);
  const std::string bytes = EncodeTable(table);
  const auto cut = std::string_view(bytes.data(), kHeaderBytes + 10);
  EXPECT_FALSE(DecodeTable(cut).ok());
  TableSalvageReport report;
  auto salvaged = DecodeTableSalvage(cut, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.blocks_recovered, 0u);
  EXPECT_EQ(salvaged->num_rows(), 0u);
}

TEST(CorruptionTest, BlockDecodeRejectsHugeRowCountClaims) {
  // A CRC-clean block payload claiming 2^60 rows must fail the table
  // decode fast, not allocate: the checksum only proves the bytes are the
  // ones written, not that a forged frame is sane.
  TweetTable table(1000);
  ASSERT_TRUE(table.Append(Tweet{1, 2, geo::LatLon{-33.0, 151.0}}).ok());
  table.SealActive();
  std::string bytes = EncodeTable(table);
  bytes.resize(kHeaderBytes + kZoneMapRecord + 4);  // keep header + directory
  std::string payload;
  PutVarint64(&payload, uint64_t{1} << 60);
  payload.append(8, '\x01');  // bogus column segments
  PutVarint64(&bytes, payload.size());
  PutFixed32(&bytes, Crc32c(payload.data(), payload.size()));
  bytes += payload;
  EXPECT_FALSE(DecodeTable(bytes).ok());
  TableSalvageReport report;
  auto salvaged = DecodeTableSalvage(bytes, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(report.blocks_recovered, 0u);
  EXPECT_EQ(report.checksum_failures, 0u);
}

}  // namespace
}  // namespace twimob::tweetdb
