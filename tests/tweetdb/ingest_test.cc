// IngestWriter lifecycle properties: append commits (delta file + manifest,
// cursor advance), compaction into the next sealed generation, thread-count
// determinism of compacted shard bytes, carry-forward of deltas appended
// after a compaction snapshot, cursor persistence across reopen and full
// rewrites, and pin-aware GC of superseded shard and delta files.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/dataset.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {
namespace {

std::vector<Tweet> RandomTweets(size_t n, uint64_t seed, uint64_t num_users,
                                int64_t max_time) {
  random::Xoshiro256 rng(seed);
  std::vector<Tweet> tweets;
  tweets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tweets.push_back(Tweet{rng.NextUint64(num_users) + 1,
                           static_cast<int64_t>(rng.NextUint64(
                               static_cast<uint64_t>(max_time))),
                           geo::LatLon{rng.NextUniform(-44, -10),
                                       rng.NextUniform(113, 154)}});
  }
  return tweets;
}

/// Every committed row of `path` in the (user, time, lat, lon) total order
/// — the canonical content comparison (delta fold order is irrelevant).
std::vector<Tweet> SortedStoredRows(const std::string& path) {
  auto dataset = ReadDatasetFiles(path);
  EXPECT_TRUE(dataset.ok()) << dataset.status().message();
  std::vector<Tweet> rows;
  if (dataset.ok()) {
    dataset->ForEachRow([&rows](const Tweet& t) { rows.push_back(t); });
  }
  std::sort(rows.begin(), rows.end(), UserTimeLess);
  return rows;
}

bool SameRows(const std::vector<Tweet>& a, const std::vector<Tweet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user_id != b[i].user_id || a[i].timestamp != b[i].timestamp ||
        a[i].pos.lat != b[i].pos.lat || a[i].pos.lon != b[i].pos.lon) {
      return false;
    }
  }
  return true;
}

/// A fresh temp dataset path (any previous manifest removed so generations
/// start at 1 deterministically).
std::string FreshPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

IngestOptions SmallShardOptions() {
  IngestOptions options;
  options.partition = PartitionSpec::ForWindow(0, 1'000'000, 4);
  options.block_capacity = 256;  // several blocks per shard
  return options;
}

TEST(IngestWriterTest, OpenInitialisesEmptyGenerationOneDataset) {
  const std::string path = FreshPath("twimob_ingest_open.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  const Manifest manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.generation, 1u);
  EXPECT_EQ(manifest.next_delta_seq, 0u);
  EXPECT_TRUE(manifest.shards.empty());
  EXPECT_TRUE(manifest.deltas.empty());
  // The empty dataset is committed and readable.
  auto dataset = ReadDatasetFiles(path);
  ASSERT_TRUE(dataset.ok()) << dataset.status().message();
  EXPECT_EQ(dataset->num_rows(), 0u);
}

TEST(IngestWriterTest, AppendBatchCommitsDeltaAndAdvancesCursor) {
  const std::string path = FreshPath("twimob_ingest_append.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  const std::vector<Tweet> b1 = RandomTweets(300, 1, 40, 1'000'000);
  const std::vector<Tweet> b2 = RandomTweets(200, 2, 40, 1'000'000);
  ASSERT_TRUE((*writer)->AppendBatch(b1).ok());
  ASSERT_TRUE((*writer)->AppendBatch(b2).ok());

  const Manifest manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.generation, 1u);
  EXPECT_EQ(manifest.next_delta_seq, 2u);
  ASSERT_EQ(manifest.deltas.size(), 2u);
  EXPECT_EQ(manifest.deltas[0].seq, 0u);
  EXPECT_EQ(manifest.deltas[0].num_rows, 300u);
  EXPECT_EQ(manifest.deltas[1].seq, 1u);
  EXPECT_EQ(manifest.deltas[1].num_rows, 200u);
  EXPECT_EQ((*writer)->pending_deltas(), 2u);
  // Both delta files exist under their born generation.
  EXPECT_TRUE(Env::Default()->FileExists(DeltaFilePath(path, 1, 0)));
  EXPECT_TRUE(Env::Default()->FileExists(DeltaFilePath(path, 1, 1)));

  // Every appended row is committed (content-compare against a plain
  // dataset written through the batch path — both sides storage-quantised).
  const std::string ref_path = FreshPath("twimob_ingest_append_ref.twdb");
  TweetDataset reference(SmallShardOptions().partition, 256);
  ASSERT_TRUE(reference.AppendBatch(b1).ok());
  ASSERT_TRUE(reference.AppendBatch(b2).ok());
  ASSERT_TRUE(WriteDatasetFiles(reference, ref_path).ok());
  EXPECT_TRUE(SameRows(SortedStoredRows(path), SortedStoredRows(ref_path)));
}

TEST(IngestWriterTest, EmptyBatchIsANoOp) {
  const std::string path = FreshPath("twimob_ingest_empty.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch({}).ok());
  EXPECT_EQ((*writer)->manifest().next_delta_seq, 0u);
  EXPECT_EQ((*writer)->pending_deltas(), 0u);
}

TEST(IngestWriterTest, InvalidRowRejectedWithoutCommitting) {
  const std::string path = FreshPath("twimob_ingest_invalid.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  std::vector<Tweet> batch = RandomTweets(10, 3, 5, 1000);
  batch.push_back(Tweet{0, 0, geo::LatLon{999.0, 999.0}});
  EXPECT_FALSE((*writer)->AppendBatch(batch).ok());
  EXPECT_EQ((*writer)->manifest().next_delta_seq, 0u);
  EXPECT_EQ(SortedStoredRows(path).size(), 0u);
}

TEST(IngestWriterTest, CompactMergesEveryDeltaIntoNextGeneration) {
  const std::string path = FreshPath("twimob_ingest_compact.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(400, 4, 50, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 5, 50, 1'000'000)).ok());
  const std::vector<Tweet> before = SortedStoredRows(path);

  auto compacted = (*writer)->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().message();
  EXPECT_TRUE(*compacted);

  const Manifest manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.generation, 2u);
  EXPECT_TRUE(manifest.deltas.empty());
  EXPECT_EQ(manifest.next_delta_seq, 2u);  // the cursor never rewinds
  EXPECT_EQ((*writer)->pending_deltas(), 0u);

  // Same rows, now in sealed shards whose on-disk order is the
  // (user, time, lat, lon) total order.
  EXPECT_TRUE(SameRows(SortedStoredRows(path), before));
  for (const ShardSummary& s : manifest.shards) {
    auto bytes = ReadFileToString(
        *Env::Default(), ShardFilePath(path, manifest.generation, s.key));
    ASSERT_TRUE(bytes.ok());
    auto table = DecodeTable(*bytes);
    ASSERT_TRUE(table.ok());
    std::vector<Tweet> rows;
    table->ForEachRow([&rows](const Tweet& t) { rows.push_back(t); });
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(), UserTimeLess))
        << "shard " << s.key;
  }

  // A second compaction has nothing to do.
  auto again = (*writer)->Compact();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ((*writer)->manifest().generation, 2u);
}

TEST(IngestWriterTest, CompactedShardBytesAreIdenticalForAnyThreadCount) {
  std::vector<std::string> shard_bytes[2];
  ThreadPool pool1(1), pool4(4);
  ThreadPool* pools[2] = {&pool1, &pool4};
  for (int run = 0; run < 2; ++run) {
    const std::string path =
        FreshPath("twimob_ingest_threads_" + std::to_string(run) + ".twdb");
    auto writer = IngestWriter::Open(path, SmallShardOptions());
    ASSERT_TRUE(writer.ok());
    for (uint64_t seed = 10; seed < 14; ++seed) {
      ASSERT_TRUE(
          (*writer)->AppendBatch(RandomTweets(250, seed, 60, 1'000'000)).ok());
    }
    auto compacted = (*writer)->Compact(pools[run]);
    ASSERT_TRUE(compacted.ok());
    ASSERT_TRUE(*compacted);
    const Manifest manifest = (*writer)->manifest();
    for (const ShardSummary& s : manifest.shards) {
      auto bytes = ReadFileToString(
          *Env::Default(), ShardFilePath(path, manifest.generation, s.key));
      ASSERT_TRUE(bytes.ok());
      shard_bytes[run].push_back(std::move(*bytes));
    }
  }
  EXPECT_EQ(shard_bytes[0], shard_bytes[1]);
}

TEST(IngestWriterTest, ReopenResumesTheAppendCursor) {
  const std::string path = FreshPath("twimob_ingest_reopen.twdb");
  {
    auto writer = IngestWriter::Open(path, SmallShardOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(80, 30, 20, 1'000'000)).ok());
    ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(90, 31, 20, 1'000'000)).ok());
  }
  auto reopened = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->manifest().next_delta_seq, 2u);
  EXPECT_EQ((*reopened)->pending_deltas(), 2u);
  ASSERT_TRUE(
      (*reopened)->AppendBatch(RandomTweets(70, 32, 20, 1'000'000)).ok());
  const Manifest manifest = (*reopened)->manifest();
  EXPECT_EQ(manifest.next_delta_seq, 3u);
  ASSERT_EQ(manifest.deltas.size(), 3u);
  EXPECT_EQ(manifest.deltas.back().seq, 2u);
  EXPECT_EQ(SortedStoredRows(path).size(), 240u);
}

TEST(IngestWriterTest, AppendAfterCompactionIsCarriedByTheNextCompaction) {
  const std::string path = FreshPath("twimob_ingest_carry.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(200, 40, 30, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  // A delta born under generation 2 keeps its name through the next
  // compaction's carry logic and is merged by it.
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(150, 41, 30, 1'000'000)).ok());
  Manifest manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.generation, 2u);
  ASSERT_EQ(manifest.deltas.size(), 1u);
  EXPECT_EQ(manifest.deltas[0].generation, 2u);
  EXPECT_EQ(manifest.deltas[0].seq, 1u);

  auto compacted = (*writer)->Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(*compacted);
  manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.generation, 3u);
  EXPECT_TRUE(manifest.deltas.empty());
  EXPECT_EQ(SortedStoredRows(path).size(), 350u);
}

TEST(IngestWriterTest, FullRewritePreservesTheAppendCursor) {
  const std::string path = FreshPath("twimob_ingest_rewrite.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(120, 50, 20, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(130, 51, 20, 1'000'000)).ok());

  // A WriteDatasetFiles rewrite subsumes the deltas but must keep the
  // commit version monotonic.
  auto dataset = ReadDatasetFiles(path);
  ASSERT_TRUE(dataset.ok());
  dataset->SealAll();
  ASSERT_TRUE(WriteDatasetFiles(*dataset, path).ok());
  auto manifest_bytes = ReadFileToString(*Env::Default(), path);
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = DecodeManifest(*manifest_bytes);
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->deltas.empty());
  EXPECT_EQ(manifest->next_delta_seq, 2u);
}

TEST(IngestWriterTest, CompactionRemovesSupersededShardAndDeltaFiles) {
  const std::string path = FreshPath("twimob_ingest_gc.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 60, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  const Manifest gen2 = (*writer)->manifest();
  ASSERT_EQ(gen2.generation, 2u);
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(200, 61, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());

  // Generation 2's shard files and its delta are gone; generation 3 serves.
  Env* env = Env::Default();
  for (const ShardSummary& s : gen2.shards) {
    EXPECT_FALSE(env->FileExists(ShardFilePath(path, 2, s.key)));
  }
  EXPECT_FALSE(env->FileExists(DeltaFilePath(path, 2, 1)));
  EXPECT_TRUE(SortedStoredRows(path).size() == 500u);
}

TEST(IngestWriterTest, PinnedGenerationFilesSurviveCompactionUntilRelease) {
  const std::string path = FreshPath("twimob_ingest_pin_gc.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 70, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(200, 71, 40, 1'000'000)).ok());
  const Manifest pinned_manifest = (*writer)->manifest();
  ASSERT_EQ(pinned_manifest.generation, 2u);

  Env* env = Env::Default();
  {
    // A reader (e.g. a serving snapshot) holds generation 2 open.
    GenerationPin pin(path, 2);
    ASSERT_TRUE((*writer)->Compact().ok());
    EXPECT_EQ((*writer)->manifest().generation, 3u);
    // The pinned generation's shard files AND its delta file are deferred,
    // not deleted.
    for (const ShardSummary& s : pinned_manifest.shards) {
      EXPECT_TRUE(env->FileExists(ShardFilePath(path, 2, s.key)));
    }
    EXPECT_TRUE(env->FileExists(DeltaFilePath(path, 2, 1)));
  }
  // The pin is gone; the next commit sweeps the deferred files.
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(50, 72, 40, 1'000'000)).ok());
  for (const ShardSummary& s : pinned_manifest.shards) {
    EXPECT_FALSE(env->FileExists(ShardFilePath(path, 2, s.key)));
  }
  EXPECT_FALSE(env->FileExists(DeltaFilePath(path, 2, 1)));
}

TEST(IngestWriterTest, IngestMatchesBulkWriteForAnyBatchSlicing) {
  // The same row stream sliced into different batch sizes (with a
  // compaction in the middle) always commits the same logical content.
  const std::vector<Tweet> all = RandomTweets(600, 80, 50, 1'000'000);
  const std::string bulk_path = FreshPath("twimob_ingest_diff_bulk.twdb");
  TweetDataset bulk(SmallShardOptions().partition, 256);
  ASSERT_TRUE(bulk.AppendBatch(all).ok());
  ASSERT_TRUE(WriteDatasetFiles(bulk, bulk_path).ok());
  const std::vector<Tweet> expected = SortedStoredRows(bulk_path);

  for (size_t batch_size : {64u, 150u, 600u}) {
    const std::string path = FreshPath(
        "twimob_ingest_diff_" + std::to_string(batch_size) + ".twdb");
    auto writer = IngestWriter::Open(path, SmallShardOptions());
    ASSERT_TRUE(writer.ok());
    size_t appended = 0;
    for (size_t off = 0; off < all.size(); off += batch_size) {
      const size_t end = std::min(all.size(), off + batch_size);
      ASSERT_TRUE(
          (*writer)
              ->AppendBatch(std::vector<Tweet>(all.begin() + off,
                                               all.begin() + end))
              .ok());
      if (++appended == 2) {
        ASSERT_TRUE((*writer)->Compact().ok());
      }
    }
    EXPECT_TRUE(SameRows(SortedStoredRows(path), expected))
        << "batch size " << batch_size;
  }
}

}  // namespace
}  // namespace twimob::tweetdb
