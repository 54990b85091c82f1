// IngestWriter lifecycle properties: append commits (delta file + manifest,
// cursor advance), compaction into the next sealed generation, thread-count
// determinism of compacted shard bytes, carry-forward of deltas appended
// after a compaction snapshot, cursor persistence across reopen and full
// rewrites, and pin-aware GC of superseded shard and delta files.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <thread>
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

/// `n` random tweets whose timestamps fall in [begin, end).
std::vector<Tweet> WindowTweets(size_t n, uint64_t seed, int64_t begin, int64_t end) {
  std::vector<Tweet> tweets = RandomTweets(n, seed, 40, end - begin);
  for (Tweet& t : tweets) t.timestamp += begin;
  return tweets;
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
  // The pin is gone. An append unlinks nothing; the next compaction's
  // commit sweeps the deferred files.
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(50, 72, 40, 1'000'000)).ok());
  for (const ShardSummary& s : pinned_manifest.shards) {
    EXPECT_TRUE(env->FileExists(ShardFilePath(path, 2, s.key)));
  }
  EXPECT_TRUE(env->FileExists(DeltaFilePath(path, 2, 1)));
  ASSERT_TRUE((*writer)->Compact().ok());
  for (const ShardSummary& s : pinned_manifest.shards) {
    EXPECT_FALSE(env->FileExists(ShardFilePath(path, 2, s.key)));
  }
  EXPECT_FALSE(env->FileExists(DeltaFilePath(path, 2, 1)));
}

TEST(IngestWriterTest, CompactionRewritesOnlyTouchedShardsAndCarriesTheRest) {
  // Four 250k-second shards; the second cycle's deltas all land in shard 1.
  const std::string path = FreshPath("twimob_ingest_touched.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(800, 100, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  const Manifest gen2 = (*writer)->manifest();
  ASSERT_EQ(gen2.shards.size(), 4u);
  for (const ShardSummary& s : gen2.shards) EXPECT_EQ(s.generation, 2u) << s.key;
  const std::vector<Tweet> before = SortedStoredRows(path);
  ASSERT_TRUE((*writer)->AppendBatch(WindowTweets(150, 101, 250'000, 500'000)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(WindowTweets(120, 102, 250'000, 500'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());

  // Shard 1 is rewritten under generation 3; the rest carry their records
  // (and so their generation-2 files) verbatim.
  const Manifest gen3 = (*writer)->manifest();
  ASSERT_EQ(gen3.generation, 3u);
  ASSERT_EQ(gen3.shards.size(), 4u);
  Env* env = Env::Default();
  for (size_t i = 0; i < 4; ++i) {
    const ShardSummary& s = gen3.shards[i];
    const bool touched = s.key == 1;
    EXPECT_EQ(s.generation, touched ? 3u : 2u) << s.key;
    EXPECT_EQ(env->FileExists(ShardFilePath(path, 2, s.key)), !touched) << s.key;
    EXPECT_EQ(env->FileExists(ShardFilePath(path, 3, s.key)), touched) << s.key;
    if (!touched) {
      EXPECT_EQ(s.num_rows, gen2.shards[i].num_rows);
      EXPECT_EQ(s.num_blocks, gen2.shards[i].num_blocks);
    }
  }
  EXPECT_EQ(gen3.shards[1].num_rows, gen2.shards[1].num_rows + 270);
  EXPECT_EQ(SortedStoredRows(path).size(), before.size() + 270);

  // The on-disk description names each shard file's own generation, so the
  // per-generation rollup shows the carried files.
  auto described = DescribeDataset(path);
  ASSERT_TRUE(described.ok()) << described.status();
  ASSERT_EQ(described->shards.size(), 4u);
  uint64_t carried_rows = 0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(described->shards[i].generation, gen3.shards[i].generation);
    if (gen3.shards[i].generation == 2) carried_rows += gen3.shards[i].num_rows;
  }
  const std::string text = described->ToString();
  EXPECT_NE(text.find("g2.shard-0"), std::string::npos) << text;
  EXPECT_NE(text.find("g3.shard-1"), std::string::npos) << text;
  EXPECT_NE(text.find("rows by generation: g2=" + std::to_string(carried_rows) +
                      " g3=" + std::to_string(gen3.shards[1].num_rows) + "\n"),
            std::string::npos)
      << text;
}

TEST(IngestWriterTest, PinOnACarriedFilesBirthGenerationDefersItsRemoval) {
  // Shard 0's generation-2 file is carried into generation 3, then rewritten
  // by the compaction to generation 4. A reader of generation 2 — which
  // names that file too — keeps it on disk, though generation 3 is unpinned.
  const std::string path = FreshPath("twimob_ingest_carried_pin.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(600, 110, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  const std::string carried = ShardFilePath(path, 2, 0);
  GenerationPin reader(path, 2);
  ASSERT_TRUE((*writer)->AppendBatch(WindowTweets(100, 111, 500'000, 750'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  ASSERT_EQ((*writer)->manifest().shards[0].generation, 2u);
  ASSERT_TRUE((*writer)->AppendBatch(WindowTweets(100, 112, 0, 250'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  ASSERT_EQ((*writer)->manifest().shards[0].generation, 4u);

  Env* env = Env::Default();
  EXPECT_TRUE(env->FileExists(carried));
  EXPECT_FALSE(IsGenerationPinned(path, 3));
  // Released, the deferral goes with the next compaction (here a no-op).
  reader.Release();
  auto swept = (*writer)->Compact();
  ASSERT_TRUE(swept.ok());
  EXPECT_FALSE(*swept);
  EXPECT_FALSE(env->FileExists(carried));
  EXPECT_EQ(internal::DeferredGenerationCount(path), 0u);
}

/// The default env, except that RemoveFile fails the test while `forbid`
/// is set.
class NoRemoveEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) override {
    return Env::Default()->NewWritableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return Env::Default()->NewRandomAccessFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return Env::Default()->RenameFile(from, to);
  }
  bool FileExists(const std::string& path) override {
    return Env::Default()->FileExists(path);
  }
  Status RemoveFile(const std::string& path) override {
    if (forbid) ADD_FAILURE() << "removed " << path << " during an append";
    return Env::Default()->RemoveFile(path);
  }

  bool forbid = false;
};

TEST(IngestWriterTest, AppendNeverUnlinksAndANoOpCompactionSweeps) {
  const std::string path = FreshPath("twimob_ingest_append_no_unlink.twdb");
  NoRemoveEnv env;
  auto writer = IngestWriter::Open(path, SmallShardOptions(), &env);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 120, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(200, 121, 40, 1'000'000)).ok());
  const Manifest gen2 = (*writer)->manifest();
  {
    GenerationPin reader(path, 2);
    ASSERT_TRUE((*writer)->Compact().ok());
  }
  // Generation 2's files wait, unpinned, for a sweep.
  ASSERT_EQ(internal::DeferredGenerationCount(path), 1u);

  env.forbid = true;
  for (uint64_t seed = 122; seed < 125; ++seed) {
    ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(50, seed, 40, 1'000'000)).ok());
  }
  env.forbid = false;
  EXPECT_EQ(internal::DeferredGenerationCount(path), 1u);
  for (const ShardSummary& s : gen2.shards) {
    EXPECT_TRUE(env.FileExists(ShardFilePath(path, 2, s.key))) << s.key;
  }

  // Merging the appends sweeps generation 2 and — pinned now — defers
  // generation 3; once released, a compaction with nothing to merge sweeps
  // that too.
  {
    GenerationPin reader(path, 3);
    ASSERT_TRUE((*writer)->Compact().ok());
  }
  for (const ShardSummary& s : gen2.shards) {
    EXPECT_FALSE(env.FileExists(ShardFilePath(path, 2, s.key))) << s.key;
  }
  EXPECT_FALSE(env.FileExists(DeltaFilePath(path, 2, 1)));
  ASSERT_EQ(internal::DeferredGenerationCount(path), 1u);
  const Manifest gen4 = (*writer)->manifest();
  ASSERT_TRUE(gen4.deltas.empty());
  auto noop = (*writer)->Compact();
  ASSERT_TRUE(noop.ok());
  EXPECT_FALSE(*noop);
  EXPECT_EQ((*writer)->manifest().generation, gen4.generation);
  EXPECT_EQ(internal::DeferredGenerationCount(path), 0u);
  for (uint64_t seq = 2; seq < 5; ++seq) {
    EXPECT_FALSE(env.FileExists(DeltaFilePath(path, 3, seq))) << seq;
  }
  EXPECT_EQ(SortedStoredRows(path).size(), 650u);
}

/// The default env, except that RemoveFile waits at a gate until the test
/// opens it.
class GatedRemoveEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path) override {
    return Env::Default()->NewWritableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return Env::Default()->NewRandomAccessFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return Env::Default()->RenameFile(from, to);
  }
  bool FileExists(const std::string& path) override {
    return Env::Default()->FileExists(path);
  }
  Status RemoveFile(const std::string& path) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return Env::Default()->RemoveFile(path);
  }

  /// Waits until some RemoveFile call is parked at the gate.
  void WaitForBlockedRemove() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return blocked_ > 0; });
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t blocked_ = 0;
  bool open_ = false;
};

TEST(IngestWriterTest, AppendCommitsWhileCompactionGcIsRemovingFiles) {
  // Compact's GC unlinks superseded files after its commit, outside the
  // commit mutex: with the GC parked inside RemoveFile, an append commits.
  const std::string path = FreshPath("twimob_ingest_gc_unlocked.twdb");
  GatedRemoveEnv env;
  auto writer = IngestWriter::Open(path, SmallShardOptions(), &env);
  ASSERT_TRUE(writer.ok());
  const std::vector<Tweet> first = RandomTweets(300, 90, 40, 1'000'000);
  const std::vector<Tweet> second = RandomTweets(200, 91, 40, 1'000'000);
  ASSERT_TRUE((*writer)->AppendBatch(first).ok());

  Result<bool> compacted = false;
  std::thread compactor([&] { compacted = (*writer)->Compact(); });
  env.WaitForBlockedRemove();
  EXPECT_EQ((*writer)->manifest().generation, 2u);
  auto append = std::async(std::launch::async,
                           [&] { return (*writer)->AppendBatch(second); });
  const bool committed =
      append.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  EXPECT_TRUE(committed) << "append blocked behind the compaction's GC";
  env.OpenGate();
  compactor.join();
  ASSERT_TRUE(append.get().ok());
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_TRUE(*compacted);

  const Manifest manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.next_delta_seq, 2u);
  ASSERT_EQ(manifest.deltas.size(), 1u);
  EXPECT_EQ(manifest.deltas[0].seq, 1u);
  EXPECT_FALSE(Env::Default()->FileExists(DeltaFilePath(path, 1, 0)));
  std::vector<Tweet> all = first;
  all.insert(all.end(), second.begin(), second.end());
  EXPECT_EQ(SortedStoredRows(path).size(), all.size());
}

TEST(IngestWriterTest, CompactionRecordsItsProvenance) {
  // A fresh dataset and a full rewrite name no source; a compaction names
  // the generation it merged and the cursor below which it merged every
  // delta, and appends keep both.
  const std::string path = FreshPath("twimob_ingest_provenance.twdb");
  auto writer = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->manifest().compacted_from, 0u);
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 95, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(100, 96, 40, 1'000'000)).ok());
  ASSERT_TRUE((*writer)->Compact().ok());
  Manifest manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.generation, 2u);
  EXPECT_EQ(manifest.compacted_from, 1u);
  EXPECT_EQ(manifest.merged_below_seq, 2u);
  for (const ShardSummary& s : manifest.shards) EXPECT_GT(s.num_blocks, 0u) << s.key;
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(50, 97, 40, 1'000'000)).ok());
  manifest = (*writer)->manifest();
  EXPECT_EQ(manifest.compacted_from, 1u);
  EXPECT_EQ(manifest.merged_below_seq, 2u);

  auto rows = ReadDatasetFiles(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(WriteDatasetFiles(*rows, path).ok());
  auto reopened = IngestWriter::Open(path, SmallShardOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->manifest().compacted_from, 0u);
  EXPECT_EQ((*reopened)->manifest().merged_below_seq, 0u);
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
