// MapDatasetFiles properties: a mapped open must serve exactly the rows an
// eager ReadDatasetFiles serves (same order, same scan results), defer each
// block's CRC + decode + zone-map check to first touch, surface deferred
// damage through LazyDecodeStatus() instead of crashing the lock-free scan
// path, and keep every mapped file on disk (via its GenerationPin) across
// writer commits for the mapping's lifetime.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/dataset.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "tweetdb/query.h"
#include "tweetdb/storage_env.h"

namespace twimob::tweetdb {
namespace {

std::vector<Tweet> RandomRows(uint64_t seed, size_t n) {
  random::Xoshiro256 rng(seed);
  std::vector<Tweet> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tweet{rng.NextUint64(50) + 1,
                         static_cast<int64_t>(rng.NextUint64(1000000)),
                         geo::LatLon{rng.NextUniform(-44, -10),
                                     rng.NextUniform(113, 154)}});
  }
  return rows;
}

TweetDataset SmallDataset(uint64_t seed) {
  TweetDataset dataset(PartitionSpec{0, 250000}, 128);
  for (const Tweet& t : RandomRows(seed, 1500)) {
    EXPECT_TRUE(dataset.Append(t).ok());
  }
  dataset.SealAll();
  EXPECT_GT(dataset.num_shards(), 1u);
  return dataset;
}

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<Tweet> CollectRows(const TweetDataset& dataset) {
  std::vector<Tweet> rows;
  dataset.ForEachRow([&rows](const Tweet& t) { rows.push_back(t); });
  return rows;
}

void ExpectSameRows(const std::vector<Tweet>& a, const std::vector<Tweet>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user_id, b[i].user_id) << i;
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << i;
    EXPECT_EQ(a[i].pos.lat, b[i].pos.lat) << i;
    EXPECT_EQ(a[i].pos.lon, b[i].pos.lon) << i;
  }
}

TEST(MappedReadTest, MappedEqualsEagerRowForRow) {
  const std::string path = TempPath("twimob_mapped_equal.twdb");
  TweetDataset dataset = SmallDataset(1);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());

  auto eager = ReadDatasetFiles(path);
  ASSERT_TRUE(eager.ok());
  auto mapped = MapDatasetFiles(path);
  ASSERT_TRUE(mapped.ok());
  ExpectSameRows(CollectRows(*eager), CollectRows(mapped->dataset));

  // Selective scans agree too (and the deferred decodes all succeeded).
  ScanSpec spec;
  spec.user_id = 7;
  size_t eager_count = 0;
  size_t mapped_count = 0;
  CountMatching(*eager, spec, &eager_count);
  CountMatching(mapped->dataset, spec, &mapped_count);
  EXPECT_EQ(eager_count, mapped_count);
  for (size_t i = 0; i < mapped->dataset.num_shards(); ++i) {
    EXPECT_TRUE(mapped->dataset.shard(i).LazyDecodeStatus().ok());
  }
}

TEST(MappedReadTest, MappedFoldsDeltasInSeqOrder) {
  const std::string path = TempPath("twimob_mapped_deltas.twdb");
  IngestOptions options;
  options.partition = PartitionSpec{0, 250000};
  options.block_capacity = 128;
  auto writer = IngestWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  const std::vector<Tweet> rows = RandomRows(2, 1200);
  // Base generation from the first two thirds, deltas from the rest.
  std::vector<Tweet> base(rows.begin(), rows.begin() + 800);
  ASSERT_TRUE((*writer)->AppendBatch(base).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  ASSERT_TRUE((*writer)
                  ->AppendBatch({rows.begin() + 800, rows.begin() + 1000})
                  .ok());
  ASSERT_TRUE((*writer)->AppendBatch({rows.begin() + 1000, rows.end()}).ok());

  auto eager = ReadDatasetFiles(path);
  ASSERT_TRUE(eager.ok());
  auto mapped = MapDatasetFiles(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->dataset.num_rows(), rows.size());
  ExpectSameRows(CollectRows(*eager), CollectRows(mapped->dataset));
}

TEST(MappedReadTest, MappedOpenPinsItsGeneration) {
  const std::string path = TempPath("twimob_mapped_pin.twdb");
  TweetDataset dataset = SmallDataset(3);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  EXPECT_EQ(internal::GenerationPinCount(path, 1), 0u);
  {
    auto mapped = MapDatasetFiles(path);
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(internal::GenerationPinCount(path, 1), 1u);
  }
  EXPECT_EQ(internal::GenerationPinCount(path, 1), 0u);
}

TEST(MappedReadTest, WriterCommitNeverUnlinksMappedFiles) {
  // The heart of the mmap lifetime contract: a rewrite that supersedes the
  // mapped generation defers its GC, so deferred block decodes keep
  // working (the mapped files are still on disk), and the deferred files
  // are swept only after the mapping is gone.
  Env& env = *Env::Default();
  const std::string path = TempPath("twimob_mapped_gc.twdb");
  TweetDataset first = SmallDataset(4);
  ASSERT_TRUE(WriteDatasetFiles(first, path).ok());

  {
    auto mapped = MapDatasetFiles(path);
    ASSERT_TRUE(mapped.ok());

    // Supersede generation 1 while the mapping is alive (no block has been
    // touched yet — every decode is still pending).
    TweetDataset second = SmallDataset(5);
    ASSERT_TRUE(WriteDatasetFiles(second, path).ok());
    for (size_t i = 0; i < first.num_shards(); ++i) {
      EXPECT_TRUE(env.FileExists(
          ShardFilePath(path, /*generation=*/1, first.shard_key(i))));
    }

    // First touch happens after the supersede: rows must still be exactly
    // generation 1's.
    ExpectSameRows(CollectRows(first), CollectRows(mapped->dataset));
    for (size_t i = 0; i < mapped->dataset.num_shards(); ++i) {
      EXPECT_TRUE(mapped->dataset.shard(i).LazyDecodeStatus().ok());
    }
  }

  // The mapping (and its pin) is gone; the next commit sweeps the deferred
  // generation-1 files.
  TweetDataset third = SmallDataset(6);
  ASSERT_TRUE(WriteDatasetFiles(third, path).ok());
  for (size_t i = 0; i < first.num_shards(); ++i) {
    EXPECT_FALSE(env.FileExists(
        ShardFilePath(path, /*generation=*/1, first.shard_key(i))));
  }
}

TEST(MappedReadTest, DeferredPayloadDamageSurfacesThroughLazyStatus) {
  Env& env = *Env::Default();
  const std::string path = TempPath("twimob_mapped_damage.twdb");
  TweetDataset dataset = SmallDataset(7);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());

  // Flip the final payload byte of shard 0: headers and directory stay
  // intact, so the mapped open succeeds; the damage is found at first touch.
  const std::string shard_path =
      ShardFilePath(path, /*generation=*/1, dataset.shard_key(0));
  auto bytes = ReadFileToString(env, shard_path);
  ASSERT_TRUE(bytes.ok());
  bytes->back() ^= '\x20';
  ASSERT_TRUE(AtomicWriteFile(env, shard_path, *bytes).ok());

  auto mapped = MapDatasetFiles(path);
  ASSERT_TRUE(mapped.ok());
  const size_t rows_seen = CollectRows(mapped->dataset).size();
  const TweetTable& hit = mapped->dataset.shard(0);
  const Status lazy = hit.LazyDecodeStatus();
  ASSERT_FALSE(lazy.ok());
  EXPECT_NE(lazy.message().find("checksum"), std::string::npos);
  // Exactly the damaged (final) block of shard 0 presented as empty; every
  // other row arrived.
  EXPECT_EQ(hit.block(hit.num_blocks() - 1).num_rows(), 0u);
  const TweetTable& orig = dataset.shard(0);
  const uint64_t lost = orig.block(orig.num_blocks() - 1).num_rows();
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(rows_seen + lost, dataset.num_rows());
}

TEST(MappedReadTest, MappedOpenFailsEagerlyOnDirectoryDamage) {
  Env& env = *Env::Default();
  const std::string path = TempPath("twimob_mapped_dirdamage.twdb");
  TweetDataset dataset = SmallDataset(8);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  const std::string shard_path =
      ShardFilePath(path, /*generation=*/1, dataset.shard_key(0));
  auto bytes = ReadFileToString(env, shard_path);
  ASSERT_TRUE(bytes.ok());
  // A byte inside the zone-map directory (header is 20 bytes).
  (*bytes)[20 + 3] ^= '\x08';
  ASSERT_TRUE(AtomicWriteFile(env, shard_path, *bytes).ok());
  auto mapped = MapDatasetFiles(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("zone-map"), std::string::npos);
  // A failed open leaves no pin behind.
  EXPECT_EQ(internal::GenerationPinCount(path, 1), 0u);
}

TEST(MappedReadTest, MappedOpenFailsEagerlyOnHeaderDamage) {
  Env& env = *Env::Default();
  const std::string path = TempPath("twimob_mapped_hdrdamage.twdb");
  TweetDataset dataset = SmallDataset(9);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  const std::string shard_path =
      ShardFilePath(path, /*generation=*/1, dataset.shard_key(0));
  auto bytes = ReadFileToString(env, shard_path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[4] ^= '\x01';  // version field
  ASSERT_TRUE(AtomicWriteFile(env, shard_path, *bytes).ok());
  EXPECT_FALSE(MapDatasetFiles(path).ok());
  EXPECT_EQ(internal::GenerationPinCount(path, 1), 0u);
}

TEST(MappedReadTest, MmapEnvReturnsExactFileBytes) {
  Env& env = *Env::Default();
  const std::string path = TempPath("twimob_mmap_bytes.bin");
  const std::string payload = "twimob mmap smoke payload \x00\x01\x02 tail";
  ASSERT_TRUE(AtomicWriteFile(env, path, payload).ok());
  auto mapping = env.MmapFile(path);
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ((*mapping)->data(), std::string_view(payload));
}

}  // namespace
}  // namespace twimob::tweetdb
