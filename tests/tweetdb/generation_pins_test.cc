// Refcount-aware GC: a superseded generation pinned by a live GenerationPin
// survives the writer's post-commit cleanup, and its files are swept by the
// next commit after the pin drops.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/dataset.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "tweetdb/storage_env.h"

namespace twimob::tweetdb {
namespace {

TweetDataset MakeDataset(uint64_t seed, size_t num_shards) {
  random::Xoshiro256 rng(seed);
  TweetDataset dataset(PartitionSpec::ForWindow(0, 1000000, num_shards), 128);
  for (int i = 0; i < 600; ++i) {
    EXPECT_TRUE(dataset
                    .Append(Tweet{rng.NextUint64(40) + 1,
                                  static_cast<int64_t>(rng.NextUint64(1000000)),
                                  geo::LatLon{rng.NextUniform(-44, -10),
                                              rng.NextUniform(113, 154)}})
                    .ok());
  }
  dataset.SealAll();
  return dataset;
}

/// Shard file paths of the manifest currently installed at `path`.
std::vector<std::string> InstalledShardFiles(const std::string& path) {
  auto bytes = ReadFileToString(*Env::Default(), path);
  EXPECT_TRUE(bytes.ok());
  auto manifest = DecodeManifest(*bytes);
  EXPECT_TRUE(manifest.ok());
  std::vector<std::string> files;
  for (const ShardSummary& s : manifest->shards) {
    files.push_back(ShardFilePath(path, manifest->generation, s.key));
  }
  return files;
}

TEST(GenerationPinsTest, PinLifecycleAndRegistry) {
  const std::string path = "pin_lifecycle.twdb";
  EXPECT_FALSE(IsGenerationPinned(path, 1));
  {
    GenerationPin pin(path, 1);
    EXPECT_TRUE(pin.armed());
    EXPECT_EQ(pin.path(), path);
    EXPECT_EQ(pin.generation(), 1u);
    EXPECT_TRUE(IsGenerationPinned(path, 1));
    EXPECT_FALSE(IsGenerationPinned(path, 2));
    EXPECT_EQ(internal::GenerationPinCount(path, 1), 1u);

    GenerationPin second(path, 1);
    EXPECT_EQ(internal::GenerationPinCount(path, 1), 2u);
    second.Release();
    second.Release();  // idempotent
    EXPECT_EQ(internal::GenerationPinCount(path, 1), 1u);

    GenerationPin moved = std::move(pin);
    EXPECT_FALSE(pin.armed());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.armed());
    EXPECT_EQ(internal::GenerationPinCount(path, 1), 1u);
  }
  EXPECT_FALSE(IsGenerationPinned(path, 1));
  EXPECT_EQ(internal::GenerationPinCount(path, 1), 0u);
}

TEST(GenerationPinsTest, DefaultPinIsInert) {
  GenerationPin pin;
  EXPECT_FALSE(pin.armed());
  pin.Release();
  EXPECT_FALSE(pin.armed());
}

TEST(GenerationPinsTest, WriterDefersGcOfPinnedGenerationThenSweeps) {
  const std::string path =
      testing::TempDir() + "/twimob_pin_gc.twdb";
  std::remove(path.c_str());
  Env& env = *Env::Default();

  TweetDataset gen1 = MakeDataset(11, 2);
  TweetDataset gen2 = MakeDataset(12, 2);
  TweetDataset gen3 = MakeDataset(13, 2);

  ASSERT_TRUE(WriteDatasetFiles(gen1, path).ok());
  const std::vector<std::string> gen1_files = InstalledShardFiles(path);
  ASSERT_FALSE(gen1_files.empty());

  // Pin generation 1 (as the serve layer does for a snapshot), then commit
  // generation 2: the superseded shard files must survive.
  GenerationPin pin(path, 1);
  ASSERT_TRUE(WriteDatasetFiles(gen2, path).ok());
  for (const std::string& f : gen1_files) {
    EXPECT_TRUE(env.FileExists(f)) << f << " was GC'd under a live pin";
  }
  EXPECT_EQ(internal::DeferredGenerationCount(path), 1u);

  // A pinned generation stays fully readable: a reader holding the pin can
  // still load generation 1's shard files directly.
  for (const std::string& f : gen1_files) {
    auto bytes = ReadFileToString(env, f);
    EXPECT_TRUE(bytes.ok()) << f;
    auto table = ReadBinaryFile(f);
    EXPECT_TRUE(table.ok()) << f;
  }

  // While the pin lives, further commits keep deferring.
  const std::vector<std::string> gen2_files = InstalledShardFiles(path);
  ASSERT_TRUE(WriteDatasetFiles(gen3, path).ok());
  for (const std::string& f : gen1_files) EXPECT_TRUE(env.FileExists(f));
  // Generation 2 had no pin, so its files were GC'd immediately.
  for (const std::string& f : gen2_files) EXPECT_FALSE(env.FileExists(f));

  // Release the pin; the NEXT commit sweeps the deferred generation-1 files.
  pin.Release();
  TweetDataset gen4 = MakeDataset(14, 2);
  ASSERT_TRUE(WriteDatasetFiles(gen4, path).ok());
  for (const std::string& f : gen1_files) {
    EXPECT_FALSE(env.FileExists(f)) << f << " leaked after its pin dropped";
  }
  EXPECT_EQ(internal::DeferredGenerationCount(path), 0u);
}

TEST(GenerationPinsTest, DeferredFilesKeyedByPathDoNotCrossDatasets) {
  const std::string path_a = testing::TempDir() + "/twimob_pin_a.twdb";
  const std::string path_b = testing::TempDir() + "/twimob_pin_b.twdb";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  Env& env = *Env::Default();

  TweetDataset a1 = MakeDataset(21, 1);
  TweetDataset a2 = MakeDataset(22, 1);
  TweetDataset b1 = MakeDataset(23, 1);
  TweetDataset b2 = MakeDataset(24, 1);

  ASSERT_TRUE(WriteDatasetFiles(a1, path_a).ok());
  ASSERT_TRUE(WriteDatasetFiles(b1, path_b).ok());
  const std::vector<std::string> a1_files = InstalledShardFiles(path_a);

  GenerationPin pin_a(path_a, 1);
  ASSERT_TRUE(WriteDatasetFiles(a2, path_a).ok());
  EXPECT_EQ(internal::DeferredGenerationCount(path_a), 1u);

  // Commits on an unrelated path neither sweep nor observe A's deferral.
  ASSERT_TRUE(WriteDatasetFiles(b2, path_b).ok());
  EXPECT_EQ(internal::DeferredGenerationCount(path_a), 1u);
  for (const std::string& f : a1_files) EXPECT_TRUE(env.FileExists(f));

  pin_a.Release();
  // Sweep A explicitly (a later commit would do the same).
  for (const std::string& f : TakeUnpinnedDeferredFiles(path_a)) {
    EXPECT_TRUE(env.RemoveFile(f).ok());
  }
  EXPECT_EQ(internal::DeferredGenerationCount(path_a), 0u);
}

// The degraded writer's emergency sweep (ingest.cc, ENOSPC parking) frees
// disk by removing unpinned superseded files — but a generation held by a
// live reader's GenerationPin must survive the sweep byte-for-byte and only
// fall to a commit after the pin drops.
class EmergencySweepPinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmergencySweepPinTest, SweepNeverDeletesPinnedGenerations) {
  const uint64_t seed = GetParam();
  const std::string path = testing::TempDir() + "/twimob_sweep_pins_" +
                           std::to_string(seed) + "_pin.twdb";
  std::remove(path.c_str());
  TweetDataset base = MakeDataset(seed, 2);
  ASSERT_TRUE(WriteDatasetFiles(base, path).ok());
  const std::vector<std::string> g1_files = InstalledShardFiles(path);
  ASSERT_FALSE(g1_files.empty());

  GenerationPin pin(path, 1);

  FaultInjectionEnv fault_env(Env::Default(), seed);
  IngestOptions options;
  options.partition = PartitionSpec::ForWindow(0, 1000000, 2);
  options.block_capacity = 128;
  auto writer = IngestWriter::Open(path, options, &fault_env);
  ASSERT_TRUE(writer.ok());

  random::Xoshiro256 rng(seed + 99);
  std::vector<Tweet> batch;
  for (int i = 0; i < 80; ++i) {
    batch.push_back(Tweet{rng.NextUint64(40) + 1,
                          static_cast<int64_t>(rng.NextUint64(1000000)),
                          geo::LatLon{rng.NextUniform(-44, -10),
                                      rng.NextUniform(113, 154)}});
  }
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  auto compacted = (*writer)->Compact();
  ASSERT_TRUE(compacted.ok());
  ASSERT_EQ(internal::DeferredGenerationCount(path), 1u);

  // Full disk: the failed append parks the writer and emergency-sweeps.
  // Every generation-1 file must survive — its pin is live.
  FaultInjectionEnv::FaultSchedule full_disk;
  full_disk.windows.push_back(
      {FaultInjectionEnv::FaultKind::kNoSpace, 0, ~uint64_t{0}, 0.0});
  fault_env.set_schedule(full_disk);
  EXPECT_TRUE((*writer)->AppendBatch(batch).IsResourceExhausted());
  EXPECT_TRUE((*writer)->degraded());
  for (const std::string& f : g1_files) {
    EXPECT_TRUE(fault_env.FileExists(f)) << "sweep deleted pinned file " << f;
  }
  EXPECT_EQ(internal::DeferredGenerationCount(path), 1u);

  // Pin drops, disk recovers: the probe commit sweeps the deferral.
  pin.Release();
  fault_env.set_schedule({});
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  EXPECT_FALSE((*writer)->degraded());
  for (const std::string& f : g1_files) {
    EXPECT_FALSE(fault_env.FileExists(f)) << "post-release commit kept " << f;
  }
  EXPECT_EQ(internal::DeferredGenerationCount(path), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmergencySweepPinTest,
                         ::testing::Values(uint64_t{5}, uint64_t{6}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace twimob::tweetdb
