// SnapshotCatalog: pinning the committed generation, atomic refresh to
// newer generations, old readers keeping their snapshot (and its shard
// files) alive across writer commits.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "census/census_data.h"
#include "random/rng.h"
#include "serve/snapshot_catalog.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "serve/snapshot_dump.h"

namespace twimob::serve {
namespace {

using tweetdb::TweetDataset;

/// Tweets cluster near census area centres (jitter well inside the finest
/// 2 km search radius) so every scale's per-area counts vary and the
/// population stage's Pearson correlation is well defined.
TweetDataset MakeDataset(uint64_t seed, size_t num_rows, size_t num_shards = 2) {
  random::Xoshiro256 rng(seed);
  TweetDataset dataset(tweetdb::PartitionSpec::ForWindow(0, 1000000, num_shards), 128);
  for (size_t i = 0; i < num_rows; ++i) {
    const auto& areas =
        census::AreasForScale(census::kAllScales[rng.NextUint64(3)]);
    const census::Area& area = areas[rng.NextUint64(areas.size())];
    const geo::LatLon pos{area.center.lat + rng.NextUniform(-0.004, 0.004),
                          area.center.lon + rng.NextUniform(-0.004, 0.004)};
    EXPECT_TRUE(dataset
                    .Append(tweetdb::Tweet{
                        rng.NextUint64(50) + 1,
                        static_cast<int64_t>(rng.NextUint64(1000000)), pos})
                    .ok());
  }
  dataset.SealAll();
  return dataset;
}

/// `n` tweets near census area centres with timestamps in [begin, end):
/// an append batch that lands in that window's shards only.
std::vector<tweetdb::Tweet> WindowBatch(uint64_t seed, size_t n, int64_t begin,
                                        int64_t end) {
  random::Xoshiro256 rng(seed);
  std::vector<tweetdb::Tweet> batch;
  for (size_t i = 0; i < n; ++i) {
    const auto& areas = census::AreasForScale(census::kAllScales[rng.NextUint64(3)]);
    const census::Area& area = areas[rng.NextUint64(areas.size())];
    batch.push_back(tweetdb::Tweet{
        rng.NextUint64(50) + 1,
        begin + static_cast<int64_t>(rng.NextUint64(static_cast<uint64_t>(end - begin))),
        geo::LatLon{area.center.lat + rng.NextUniform(-0.004, 0.004),
                    area.center.lon + rng.NextUniform(-0.004, 0.004)}});
  }
  return batch;
}

/// Every row of one committed shard file, in storage order.
std::vector<tweetdb::Tweet> ShardFileRows(const std::string& path,
                                          const tweetdb::ShardSummary& shard) {
  auto table = tweetdb::ReadBinaryFile(
      tweetdb::ShardFilePath(path, shard.generation, shard.key));
  EXPECT_TRUE(table.ok()) << table.status();
  std::vector<tweetdb::Tweet> rows;
  if (table.ok()) table->ForEachRow([&rows](const tweetdb::Tweet& t) { rows.push_back(t); });
  return rows;
}

CatalogOptions FastOptions() {
  CatalogOptions options;
  options.analysis.run_mobility = false;  // population-only loads are fast
  options.num_threads = 2;
  return options;
}

TEST(SnapshotCatalogTest, OpenServesTheCommittedGeneration) {
  const std::string path = testing::TempDir() + "/twimob_catalog_open.twdb";
  std::remove(path.c_str());
  TweetDataset gen1 = MakeDataset(31, 800);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());

  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();
  const auto snapshot = (*catalog)->Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->generation(), 1u);
  EXPECT_EQ((*catalog)->current_generation(), 1u);
  EXPECT_EQ(snapshot->num_rows(), 800u);
  // The snapshot pinned its generation and carries per-scale estimates.
  EXPECT_TRUE(tweetdb::IsGenerationPinned(path, 1));
  EXPECT_EQ(snapshot->result().population.size(), snapshot->specs().size());
  EXPECT_TRUE(snapshot->serving_tables().empty());  // mobility off
  ASSERT_TRUE(snapshot->recovery().has_value());
  EXPECT_FALSE(snapshot->recovery()->degraded());
}

TEST(SnapshotCatalogTest, OpenFailsOnMissingDataset) {
  const std::string path = testing::TempDir() + "/twimob_catalog_missing.twdb";
  std::remove(path.c_str());
  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  EXPECT_FALSE(catalog.ok());
}

TEST(SnapshotCatalogTest, RefreshIsNoOpWithoutNewGeneration) {
  const std::string path = testing::TempDir() + "/twimob_catalog_noop.twdb";
  std::remove(path.c_str());
  TweetDataset gen1 = MakeDataset(32, 500);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());

  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok());
  const auto before = (*catalog)->Current();
  auto refreshed = (*catalog)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().message();
  EXPECT_FALSE(*refreshed);
  // Same snapshot object — not merely equal content.
  EXPECT_EQ((*catalog)->Current().get(), before.get());
}

TEST(SnapshotCatalogTest, RefreshSwapsToNewerGenerationWhileReadersKeepTheirs) {
  const std::string path = testing::TempDir() + "/twimob_catalog_swap.twdb";
  std::remove(path.c_str());
  tweetdb::Env& env = *tweetdb::Env::Default();
  TweetDataset gen1 = MakeDataset(33, 500);
  TweetDataset gen2 = MakeDataset(34, 900);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());

  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok());
  // An in-flight reader acquires the generation-1 snapshot and holds it.
  const auto reader = (*catalog)->Current();
  ASSERT_EQ(reader->generation(), 1u);
  const std::string gen1_shard0 = tweetdb::ShardFilePath(path, 1, 0);
  ASSERT_TRUE(env.FileExists(gen1_shard0));

  // Writer commits generation 2; the catalog swaps on Refresh.
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen2, path).ok());
  auto refreshed = (*catalog)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().message();
  EXPECT_TRUE(*refreshed);
  EXPECT_EQ((*catalog)->current_generation(), 2u);
  EXPECT_EQ((*catalog)->Current()->num_rows(), 900u);

  // The reader's snapshot is untouched and its generation's shard files
  // survived the writer's GC (deferred under the reader's pin).
  EXPECT_EQ(reader->generation(), 1u);
  EXPECT_EQ(reader->num_rows(), 500u);
  EXPECT_TRUE(tweetdb::IsGenerationPinned(path, 1));
  EXPECT_TRUE(env.FileExists(gen1_shard0));
}

TEST(SnapshotCatalogTest, DroppingTheLastReaderUnpinsAndLaterCommitsSweep) {
  const std::string path = testing::TempDir() + "/twimob_catalog_sweep.twdb";
  std::remove(path.c_str());
  tweetdb::Env& env = *tweetdb::Env::Default();
  TweetDataset gen1 = MakeDataset(35, 400);
  TweetDataset gen2 = MakeDataset(36, 600);
  TweetDataset gen3 = MakeDataset(37, 700);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());

  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok());
  const std::string gen1_shard0 = tweetdb::ShardFilePath(path, 1, 0);

  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen2, path).ok());
  ASSERT_TRUE(*(*catalog)->Refresh());
  // The catalog itself released the generation-1 snapshot on swap: the pin
  // is gone, the files linger until a commit sweeps them.
  EXPECT_FALSE(tweetdb::IsGenerationPinned(path, 1));
  EXPECT_TRUE(env.FileExists(gen1_shard0));

  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen3, path).ok());
  EXPECT_FALSE(env.FileExists(gen1_shard0));
  ASSERT_TRUE(*(*catalog)->Refresh());
  EXPECT_EQ((*catalog)->current_generation(), 3u);
}

TEST(SnapshotCatalogTest, RefreshPicksUpDeltaAppendsWithinAGeneration) {
  const std::string path = testing::TempDir() + "/twimob_catalog_delta.twdb";
  std::remove(path.c_str());
  TweetDataset gen1 = MakeDataset(39, 500);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());

  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok());
  const auto reader = (*catalog)->Current();
  ASSERT_EQ((*catalog)->current_generation(), 1u);
  ASSERT_EQ((*catalog)->current_ingest_seq(), 0u);

  // An ingest writer appends a delta: the generation is unchanged but the
  // commit version (generation, ingest_seq) advanced, so Refresh swaps.
  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  random::Xoshiro256 rng(71);
  std::vector<tweetdb::Tweet> batch;
  for (size_t i = 0; i < 120; ++i) {
    const auto& areas = census::AreasForScale(census::Scale::kState);
    const census::Area& area = areas[rng.NextUint64(areas.size())];
    batch.push_back(tweetdb::Tweet{
        rng.NextUint64(50) + 1, static_cast<int64_t>(rng.NextUint64(1000000)),
        geo::LatLon{area.center.lat + rng.NextUniform(-0.004, 0.004),
                    area.center.lon + rng.NextUniform(-0.004, 0.004)}});
  }
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());

  auto refreshed = (*catalog)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().message();
  EXPECT_TRUE(*refreshed);
  EXPECT_EQ((*catalog)->current_generation(), 1u);
  EXPECT_EQ((*catalog)->current_ingest_seq(), 1u);
  EXPECT_EQ((*catalog)->Current()->num_rows(), 620u);

  // The pre-append reader is untouched; repeated refreshes with no newer
  // commit are no-ops serving the same snapshot object.
  EXPECT_EQ(reader->num_rows(), 500u);
  const auto installed = (*catalog)->Current();
  auto again = (*catalog)->Refresh();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  auto once_more = (*catalog)->Refresh();
  ASSERT_TRUE(once_more.ok());
  EXPECT_FALSE(*once_more);
  EXPECT_EQ((*catalog)->Current().get(), installed.get());
}

TEST(SnapshotCatalogTest, CompactionDefersPinnedDeltaFilesUntilReadersDrop) {
  const std::string path = testing::TempDir() + "/twimob_catalog_delta_gc.twdb";
  std::remove(path.c_str());
  tweetdb::Env& env = *tweetdb::Env::Default();
  TweetDataset gen1 = MakeDataset(40, 400);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());

  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  random::Xoshiro256 rng(72);
  std::vector<tweetdb::Tweet> batch;
  for (size_t i = 0; i < 100; ++i) {
    const auto& areas = census::AreasForScale(census::Scale::kNational);
    const census::Area& area = areas[rng.NextUint64(areas.size())];
    batch.push_back(tweetdb::Tweet{
        rng.NextUint64(50) + 1, static_cast<int64_t>(rng.NextUint64(1000000)),
        geo::LatLon{area.center.lat + rng.NextUniform(-0.004, 0.004),
                    area.center.lon + rng.NextUniform(-0.004, 0.004)}});
  }
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  const std::string delta_file = tweetdb::DeltaFilePath(path, 1, 0);
  ASSERT_TRUE(env.FileExists(delta_file));

  // A reader serves generation 1 including the delta rows.
  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok());
  auto reader = (*catalog)->Current();
  ASSERT_EQ(reader->num_rows(), 500u);
  ASSERT_TRUE(tweetdb::IsGenerationPinned(path, 1));

  // Compaction supersedes the delta file, but the born generation is
  // pinned: the file (and the generation's shards) defer, never vanish
  // under the reader.
  auto compacted = (*writer)->Compact();
  ASSERT_TRUE(compacted.ok());
  ASSERT_TRUE(*compacted);
  EXPECT_TRUE(env.FileExists(delta_file));
  EXPECT_TRUE(env.FileExists(tweetdb::ShardFilePath(path, 1, 0)));

  // The catalog moves to generation 2; the reader still holds the pin.
  ASSERT_TRUE(*(*catalog)->Refresh());
  EXPECT_EQ((*catalog)->current_generation(), 2u);
  EXPECT_EQ((*catalog)->Current()->num_rows(), 500u);
  EXPECT_TRUE(env.FileExists(delta_file));

  // Last reader drops → pin released. An append unlinks nothing; the next
  // compaction's commit sweeps the deferred delta and shard files.
  reader.reset();
  EXPECT_FALSE(tweetdb::IsGenerationPinned(path, 1));
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  EXPECT_TRUE(env.FileExists(delta_file));
  EXPECT_TRUE(env.FileExists(tweetdb::ShardFilePath(path, 1, 0)));
  ASSERT_TRUE((*writer)->Compact().ok());
  EXPECT_FALSE(env.FileExists(delta_file));
  EXPECT_FALSE(env.FileExists(tweetdb::ShardFilePath(path, 1, 0)));
}

TEST(SnapshotCatalogTest, TouchedShardCompactionMatchesAFullRewrite) {
  // The same history and deltas, merged two ways: a compaction that
  // rewrites only the shard its deltas touch, and a full rewrite of every
  // shard. Per shard, both hold the same rows in the same order, and a
  // cold open of each serves the same answers.
  const std::string touched_path = testing::TempDir() + "/twimob_catalog_touched.twdb";
  const std::string full_path = testing::TempDir() + "/twimob_catalog_full.twdb";
  const std::vector<std::vector<tweetdb::Tweet>> batches = {
      WindowBatch(80, 150, 500000, 750000), WindowBatch(81, 90, 500000, 750000)};
  for (const std::string& path : {touched_path, full_path}) {
    std::remove(path.c_str());
    TweetDataset history = MakeDataset(45, 900, 4);
    ASSERT_TRUE(tweetdb::WriteDatasetFiles(history, path).ok());
    auto writer = tweetdb::IngestWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const auto& batch : batches) ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  }
  {
    auto writer = tweetdb::IngestWriter::Open(touched_path);
    ASSERT_TRUE(writer.ok());
    auto compacted = (*writer)->Compact();
    ASSERT_TRUE(compacted.ok() && *compacted);
  }
  auto full = tweetdb::ReadDatasetFiles(full_path);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(*full, full_path).ok());

  auto touched_manifest = PeekManifest(*tweetdb::Env::Default(), touched_path);
  auto full_manifest = PeekManifest(*tweetdb::Env::Default(), full_path);
  ASSERT_TRUE(touched_manifest.ok() && full_manifest.ok());
  ASSERT_EQ(touched_manifest->shards.size(), 4u);
  ASSERT_EQ(full_manifest->shards.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const tweetdb::ShardSummary& t = touched_manifest->shards[i];
    const tweetdb::ShardSummary& f = full_manifest->shards[i];
    EXPECT_EQ(t.generation, t.key == 2 ? 2u : 1u) << t.key;
    EXPECT_EQ(t.key, f.key);
    EXPECT_EQ(t.num_rows, f.num_rows) << t.key;
    EXPECT_TRUE(ShardFileRows(touched_path, t) == ShardFileRows(full_path, f))
        << "shard " << t.key;
  }

  CatalogOptions options;
  options.num_threads = 2;
  auto touched_open = SnapshotCatalog::Open(touched_path, options);
  auto full_open = SnapshotCatalog::Open(full_path, options);
  ASSERT_TRUE(touched_open.ok()) << touched_open.status();
  ASSERT_TRUE(full_open.ok()) << full_open.status();
  EXPECT_EQ(DumpResult((*touched_open)->Current()->result()),
            DumpResult((*full_open)->Current()->result()));
}

TEST(SnapshotCatalogTest, PinnedReaderKeepsACarriedShardFileItsShardRewriteSupersedes) {
  // Generation 2 rewrites shard 0 and carries shards 1-3 from generation 1.
  // A reader serving generation 2 names the carried generation-1 file of
  // shard 1; the compaction that rewrites shard 1 defers its removal until
  // that reader drops.
  const std::string path = testing::TempDir() + "/twimob_catalog_carried_pin.twdb";
  std::remove(path.c_str());
  tweetdb::Env& env = *tweetdb::Env::Default();
  TweetDataset gen1 = MakeDataset(46, 800, 4);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());
  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(WindowBatch(82, 100, 0, 250000)).ok());
  ASSERT_TRUE(*(*writer)->Compact());
  const std::string carried = tweetdb::ShardFilePath(path, 1, 1);
  ASSERT_EQ((*writer)->manifest().shards[1].generation, 1u);

  auto catalog = SnapshotCatalog::Open(path, FastOptions());
  ASSERT_TRUE(catalog.ok());
  auto reader = (*catalog)->Current();
  ASSERT_EQ(reader->generation(), 2u);
  ASSERT_FALSE(tweetdb::IsGenerationPinned(path, 1));

  ASSERT_TRUE((*writer)->AppendBatch(WindowBatch(83, 100, 250000, 500000)).ok());
  ASSERT_TRUE(*(*writer)->Compact());
  ASSERT_EQ((*writer)->manifest().shards[1].generation, 3u);
  EXPECT_TRUE(env.FileExists(carried));
  // The files shard 1's rewrite did not touch are still carried.
  for (const int64_t key : {2, 3}) {
    EXPECT_TRUE(env.FileExists(tweetdb::ShardFilePath(path, 1, key))) << key;
  }

  // The catalog rebases onto generation 3; the reader still serves 2.
  ASSERT_TRUE(*(*catalog)->Refresh());
  EXPECT_EQ((*catalog)->current_generation(), 3u);
  EXPECT_TRUE(env.FileExists(carried));
  reader.reset();
  EXPECT_FALSE(tweetdb::IsGenerationPinned(path, 2));
  EXPECT_FALSE(*(*writer)->Compact());
  EXPECT_FALSE(env.FileExists(carried));
  for (const int64_t key : {2, 3}) {
    EXPECT_TRUE(env.FileExists(tweetdb::ShardFilePath(path, 1, key))) << key;
  }
}

TEST(SnapshotCatalogTest, PeekManifestReadsGenerationWithoutShardData) {
  const std::string path = testing::TempDir() + "/twimob_catalog_peek.twdb";
  std::remove(path.c_str());
  TweetDataset gen1 = MakeDataset(38, 300);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(gen1, path).ok());
  auto manifest = PeekManifest(*tweetdb::Env::Default(), path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->generation, 1u);
  EXPECT_EQ(manifest->shards.size(), 2u);
}

}  // namespace
}  // namespace twimob::serve
