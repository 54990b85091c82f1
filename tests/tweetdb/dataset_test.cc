// TweetDataset properties: timestamp routing, the single-shard wholesale
// path, cross-shard merged iteration vs global compaction, parallel
// compaction determinism, manifest summaries, the on-disk roundtrip, and the
// pooled decode of ReadDatasetFiles against the serial one.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/dataset.h"
#include "tweetdb/ingest.h"
#include "tweetdb/storage_env.h"
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

bool SameTweet(const Tweet& a, const Tweet& b) {
  return a.user_id == b.user_id && a.timestamp == b.timestamp &&
         a.pos.lat == b.pos.lat && a.pos.lon == b.pos.lon;
}

std::vector<Tweet> Rows(const TweetTable& table) {
  std::vector<Tweet> rows;
  table.ForEachRow([&rows](const Tweet& t) { rows.push_back(t); });
  return rows;
}

TEST(PartitionSpecTest, SingleMapsEverythingToKeyZero) {
  const PartitionSpec spec = PartitionSpec::Single();
  EXPECT_EQ(spec.KeyForTime(0), 0);
  EXPECT_EQ(spec.KeyForTime(-1000), 0);
  EXPECT_EQ(spec.KeyForTime(1'000'000'000), 0);
}

TEST(PartitionSpecTest, KeyForTimeIsFloorDivision) {
  const PartitionSpec spec{100, 50};
  EXPECT_EQ(spec.KeyForTime(100), 0);
  EXPECT_EQ(spec.KeyForTime(149), 0);
  EXPECT_EQ(spec.KeyForTime(150), 1);
  EXPECT_EQ(spec.KeyForTime(99), -1);   // just below the origin
  EXPECT_EQ(spec.KeyForTime(50), -1);
  EXPECT_EQ(spec.KeyForTime(49), -2);
}

TEST(PartitionSpecTest, ForWindowCoversWindowWithAtMostNumShardsKeys) {
  for (size_t shards : {1u, 3u, 4u, 16u}) {
    const PartitionSpec spec = PartitionSpec::ForWindow(1000, 2003, shards);
    const int64_t first = spec.KeyForTime(1000);
    const int64_t last = spec.KeyForTime(2002);
    EXPECT_EQ(first, 0);
    EXPECT_LT(static_cast<size_t>(last - first), shards);
  }
}

TEST(TweetDatasetTest, AppendRoutesByTimestampAndKeepsKeysSorted) {
  const PartitionSpec spec{0, 1000};
  TweetDataset dataset(spec, 64);
  const std::vector<Tweet> tweets = RandomTweets(2000, 21, 40, 10'000);
  ASSERT_TRUE(dataset.AppendBatch(tweets).ok());
  EXPECT_EQ(dataset.num_rows(), tweets.size());
  EXPECT_GT(dataset.num_shards(), 1u);
  for (size_t s = 0; s < dataset.num_shards(); ++s) {
    if (s > 0) EXPECT_LT(dataset.shard_key(s - 1), dataset.shard_key(s));
    const int64_t key = dataset.shard_key(s);
    dataset.shard(s).ForEachRow([&spec, key](const Tweet& t) {
      EXPECT_EQ(spec.KeyForTime(t.timestamp), key);
    });
  }
}

TEST(TweetDatasetTest, AppendRejectsInvalidRows) {
  TweetDataset dataset;
  // Latitude outside [-90, 90] and a negative timestamp are both invalid.
  EXPECT_FALSE(dataset.Append(Tweet{1, 0, geo::LatLon{100.0, 0}}).ok());
  EXPECT_FALSE(dataset.Append(Tweet{1, -5, geo::LatLon{-33.0, 151.0}}).ok());
  EXPECT_EQ(dataset.num_rows(), 0u);
}

TEST(TweetDatasetTest, FromTableSinglePartitionAdoptsWholesale) {
  TweetTable table(128);
  for (const Tweet& t : RandomTweets(1000, 22, 50, 1'000'000)) {
    ASSERT_TRUE(table.Append(t).ok());
  }
  table.CompactByUserTime();
  const std::vector<Tweet> before = Rows(table);
  const size_t blocks = table.num_blocks();

  TweetDataset dataset = TweetDataset::FromTable(std::move(table));
  ASSERT_EQ(dataset.num_shards(), 1u);
  EXPECT_TRUE(dataset.sorted_by_user_time());
  EXPECT_EQ(dataset.num_blocks(), blocks);

  TweetTable back = std::move(dataset).ReleaseTable();
  EXPECT_TRUE(back.sorted_by_user_time());
  const std::vector<Tweet> after = Rows(back);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(SameTweet(before[i], after[i])) << i;
  }
}

TEST(TweetDatasetTest, ReleaseTableMergesShardsIntoGlobalOrder) {
  const std::vector<Tweet> tweets = RandomTweets(3000, 24, 60, 40'000);

  TweetTable reference(256);
  for (const Tweet& t : tweets) ASSERT_TRUE(reference.Append(t).ok());
  reference.CompactByUserTime();
  const std::vector<Tweet> expected = Rows(reference);

  TweetDataset dataset(PartitionSpec{0, 7000}, 256);
  ASSERT_TRUE(dataset.AppendBatch(tweets).ok());
  dataset.CompactShards();
  ASSERT_GT(dataset.num_shards(), 1u);

  TweetTable merged = std::move(dataset).ReleaseTable();
  const std::vector<Tweet> rows = Rows(merged);
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(SameTweet(expected[i], rows[i])) << i;
  }
}

TEST(TweetDatasetTest, ParallelCompactionMatchesSerial) {
  const std::vector<Tweet> tweets = RandomTweets(4000, 25, 70, 60'000);
  TweetDataset serial(PartitionSpec{0, 9000}, 128);
  TweetDataset parallel(PartitionSpec{0, 9000}, 128);
  ASSERT_TRUE(serial.AppendBatch(tweets).ok());
  ASSERT_TRUE(parallel.AppendBatch(tweets).ok());

  serial.CompactShards();
  ThreadPool pool(4);
  std::vector<TweetDataset::ShardCompaction> per_shard;
  parallel.CompactShards(&pool, &per_shard);
  EXPECT_EQ(per_shard.size(), parallel.num_shards());

  ASSERT_EQ(serial.num_shards(), parallel.num_shards());
  for (size_t s = 0; s < serial.num_shards(); ++s) {
    const std::vector<Tweet> a = Rows(serial.shard(s));
    const std::vector<Tweet> b = Rows(parallel.shard(s));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(SameTweet(a[i], b[i])) << "shard " << s << " row " << i;
    }
  }
}

TEST(TweetDatasetTest, CountDistinctUsersSpansShards) {
  TweetDataset dataset(PartitionSpec{0, 100});
  // User 1 tweets in two windows, user 2 in one.
  ASSERT_TRUE(dataset.Append(Tweet{1, 50, geo::LatLon{-33, 151}}).ok());
  ASSERT_TRUE(dataset.Append(Tweet{1, 250, geo::LatLon{-33, 151}}).ok());
  ASSERT_TRUE(dataset.Append(Tweet{2, 150, geo::LatLon{-37, 145}}).ok());
  EXPECT_EQ(dataset.num_shards(), 3u);
  EXPECT_EQ(dataset.CountDistinctUsers(), 2u);
}

TEST(TweetDatasetTest, ManifestSummarisesShards) {
  const std::vector<Tweet> tweets = RandomTweets(1500, 26, 40, 20'000);
  TweetDataset dataset(PartitionSpec{0, 4000}, 128);
  ASSERT_TRUE(dataset.AppendBatch(tweets).ok());
  dataset.SealAll();

  const Manifest manifest = dataset.BuildManifest();
  ASSERT_EQ(manifest.shards.size(), dataset.num_shards());
  EXPECT_TRUE(manifest.partition == dataset.partition());
  uint64_t total = 0;
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardSummary& summary = manifest.shards[s];
    EXPECT_EQ(summary.key, dataset.shard_key(s));
    EXPECT_EQ(summary.num_rows, dataset.shard(s).num_rows());
    total += summary.num_rows;
    // The zone map must cover every row of the shard.
    dataset.shard(s).ForEachRow([&summary](const Tweet& t) {
      EXPECT_GE(t.user_id, summary.min_user);
      EXPECT_LE(t.user_id, summary.max_user);
      EXPECT_GE(t.timestamp, summary.min_time);
      EXPECT_LE(t.timestamp, summary.max_time);
      EXPECT_TRUE(summary.bbox.Contains(t.pos));
    });
  }
  EXPECT_EQ(total, dataset.num_rows());
}

TEST(TweetDatasetTest, AdoptShardRejectsDuplicateKeys) {
  TweetDataset dataset(PartitionSpec{0, 100});
  ASSERT_TRUE(dataset.AdoptShard(5, TweetTable(64)).ok());
  EXPECT_FALSE(dataset.AdoptShard(5, TweetTable(64)).ok());
}

TEST(TweetDatasetTest, DatasetFilesRoundtrip) {
  const std::string path = testing::TempDir() + "/twimob_dataset_roundtrip.twdb";
  const std::vector<Tweet> tweets = RandomTweets(2000, 27, 50, 30'000);
  TweetDataset dataset(PartitionSpec{0, 6000}, 128);
  ASSERT_TRUE(dataset.AppendBatch(tweets).ok());
  dataset.CompactShards();
  ASSERT_GT(dataset.num_shards(), 1u);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());

  auto reread = ReadDatasetFiles(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->num_shards(), dataset.num_shards());
  EXPECT_TRUE(reread->partition() == dataset.partition());
  for (size_t s = 0; s < dataset.num_shards(); ++s) {
    EXPECT_EQ(reread->shard_key(s), dataset.shard_key(s));
    const std::vector<Tweet> a = Rows(dataset.shard(s));
    const std::vector<Tweet> b = Rows(reread->shard(s));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(SameTweet(a[i], b[i])) << "shard " << s << " row " << i;
    }
  }
}

/// Records every env operation, in call order, as "<kind> <file> [args]".
class RecordingEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    ops.push_back("create " + path);
    return base_->NewWritableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    ops.push_back("open " + path);
    TWIMOB_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                            base_->NewRandomAccessFile(path));
    return std::unique_ptr<RandomAccessFile>(
        new RecordingFile(std::move(file), path, &ops));
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    ops.push_back("rename " + from + " " + to);
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    ops.push_back("remove " + path);
    return base_->RemoveFile(path);
  }
  bool FileExists(const std::string& path) override {
    ops.push_back("exists " + path);
    return base_->FileExists(path);
  }

  std::vector<std::string> ops;

 private:
  class RecordingFile : public RandomAccessFile {
   public:
    RecordingFile(std::unique_ptr<RandomAccessFile> base, std::string path,
                  std::vector<std::string>* ops)
        : base_(std::move(base)), path_(std::move(path)), ops_(ops) {}
    Status Read(uint64_t offset, size_t n, std::string* out) const override {
      ops_->push_back(StrFormat("read %s %llu %zu", path_.c_str(),
                                static_cast<unsigned long long>(offset), n));
      return base_->Read(offset, n, out);
    }
    Result<uint64_t> Size() const override {
      ops_->push_back("size " + path_);
      return base_->Size();
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::string path_;
    std::vector<std::string>* ops_;
  };

  Env* base_ = Env::Default();
};

std::string DumpRecovery(const ShardRecovery& r) {
  return StrFormat("  key=%lld dropped=%d truncated=%d rows=%llu/%llu blocks=%llu-%llu "
                   "crc=%llu %s\n",
                   static_cast<long long>(r.key), r.dropped, r.truncated,
                   static_cast<unsigned long long>(r.rows_recovered),
                   static_cast<unsigned long long>(r.rows_expected),
                   static_cast<unsigned long long>(r.blocks_total),
                   static_cast<unsigned long long>(r.blocks_dropped),
                   static_cast<unsigned long long>(r.checksum_failures),
                   r.status.ToString().c_str());
}

std::string DumpReport(const RecoveryReport& report) {
  std::string out = StrFormat("policy=%d generation=%llu seq=%llu\n",
                              static_cast<int>(report.policy),
                              static_cast<unsigned long long>(report.generation),
                              static_cast<unsigned long long>(report.next_delta_seq));
  for (const ShardRecovery& r : report.shards) out += "shard" + DumpRecovery(r);
  for (const ShardRecovery& r : report.deltas) out += "delta" + DumpRecovery(r);
  return out;
}

std::string DumpDataset(const Result<TweetDataset>& dataset) {
  if (!dataset.ok()) return dataset.status().ToString();
  std::string out;
  for (size_t s = 0; s < dataset->num_shards(); ++s) {
    const TweetTable& shard = dataset->shard(s);
    out += StrFormat("shard %lld: %zu blocks, sorted=%d\n",
                     static_cast<long long>(dataset->shard_key(s)), shard.num_blocks(),
                     shard.sorted_by_user_time());
    shard.ForEachRow([&out](const Tweet& t) {
      out += StrFormat("%llu %lld %a %a\n", static_cast<unsigned long long>(t.user_id),
                       static_cast<long long>(t.timestamp), t.pos.lat, t.pos.lon);
    });
  }
  return out;
}

/// ReadDatasetFiles with a pool returns the serial call's dataset and
/// report, and its env sees the serial call's operation sequence, under
/// both policies.
void ExpectPooledReadMatchesSerial(const std::string& path, const std::string& where) {
  for (const RecoveryPolicy policy : {RecoveryPolicy::kStrict, RecoveryPolicy::kSalvage}) {
    RecordingEnv serial_env;
    RecoveryReport serial_report;
    const std::string serial =
        DumpDataset(ReadDatasetFiles(path, policy, &serial_report, &serial_env));
    ASSERT_FALSE(serial_env.ops.empty());
    for (const size_t threads : {1, 3}) {
      ThreadPool pool(threads);
      RecordingEnv pooled_env;
      RecoveryReport pooled_report;
      const std::string pooled = DumpDataset(
          ReadDatasetFiles(path, policy, &pooled_report, &pooled_env, &pool));
      const std::string at = where + ", policy " +
                             std::to_string(static_cast<int>(policy)) + ", " +
                             std::to_string(threads) + " threads";
      EXPECT_EQ(serial, pooled) << at;
      EXPECT_EQ(DumpReport(serial_report), DumpReport(pooled_report)) << at;
      EXPECT_EQ(serial_env.ops, pooled_env.ops) << at;
    }
  }
}

void FlipMiddleByte(const std::string& file) {
  auto bytes = ReadFileToString(*Env::Default(), file);
  ASSERT_TRUE(bytes.ok()) << file;
  (*bytes)[bytes->size() / 2] ^= 0x5a;
  ASSERT_TRUE(AtomicWriteFile(*Env::Default(), file, *bytes).ok()) << file;
}

TEST(ReadDatasetFilesTest, PooledDecodeMatchesSerial) {
  const std::string path = testing::TempDir() + "/twimob_pooled_read.twdb";
  std::remove(path.c_str());
  TweetDataset dataset(PartitionSpec{0, 6000}, 128);
  ASSERT_TRUE(dataset.AppendBatch(RandomTweets(3000, 31, 80, 30'000)).ok());
  dataset.CompactShards();
  ASSERT_GT(dataset.num_shards(), 3u);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());
  IngestOptions options;
  options.partition = dataset.partition();
  options.block_capacity = 128;
  auto writer = IngestWriter::Open(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 32, 80, 30'000)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(RandomTweets(300, 33, 80, 30'000)).ok());
  const Manifest manifest = (*writer)->manifest();
  ASSERT_EQ(manifest.deltas.size(), 2u);
  ExpectPooledReadMatchesSerial(path, "intact");

  FlipMiddleByte(ShardFilePath(path, manifest.generation, manifest.shards[1].key));
  ASSERT_FALSE(ReadDatasetFiles(path).ok());
  RecoveryReport report;
  ASSERT_TRUE(ReadDatasetFiles(path, RecoveryPolicy::kSalvage, &report).ok());
  ASSERT_TRUE(report.degraded());
  ExpectPooledReadMatchesSerial(path, "corrupted shard");

  const DeltaSummary& delta = manifest.deltas[0];
  FlipMiddleByte(DeltaFilePath(path, delta.generation, delta.seq));
  ExpectPooledReadMatchesSerial(path, "corrupted shard and delta");

  std::remove(ShardFilePath(path, manifest.generation, manifest.shards[2].key).c_str());
  ExpectPooledReadMatchesSerial(path, "missing shard");
}

}  // namespace
}  // namespace twimob::tweetdb
