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

namespace twimob::serve {
namespace {

using tweetdb::TweetDataset;

/// Tweets cluster near census area centres (jitter well inside the finest
/// 2 km search radius) so every scale's per-area counts vary and the
/// population stage's Pearson correlation is well defined.
TweetDataset MakeDataset(uint64_t seed, size_t num_rows) {
  random::Xoshiro256 rng(seed);
  TweetDataset dataset(tweetdb::PartitionSpec::ForWindow(0, 1000000, 2), 128);
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

  // Last reader drops → pin released; the next commit sweeps the deferred
  // delta and shard files.
  reader.reset();
  EXPECT_FALSE(tweetdb::IsGenerationPinned(path, 1));
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  EXPECT_FALSE(env.FileExists(delta_file));
  EXPECT_FALSE(env.FileExists(tweetdb::ShardFilePath(path, 1, 0)));
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
