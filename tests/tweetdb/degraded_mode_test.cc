// Disk-full degraded mode of the ingest writer: an ENOSPC append or
// compaction parks the writer read-only (manifest never half-committed,
// served snapshots untouched), an emergency sweep frees unpinned
// superseded files, and the first append that commits — the probe —
// returns the writer to healthy automatically.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "tweetdb/storage_env.h"

namespace twimob::tweetdb {
namespace {

using FaultKind = FaultInjectionEnv::FaultKind;
using FaultSchedule = FaultInjectionEnv::FaultSchedule;
using FaultWindow = FaultInjectionEnv::FaultWindow;

IngestOptions TestIngestOptions() {
  IngestOptions options;
  options.partition = PartitionSpec::ForWindow(0, 1000000, 2);
  options.block_capacity = 128;
  return options;
}

std::vector<Tweet> BatchRows(uint64_t seed, size_t n) {
  random::Xoshiro256 rng(seed);
  std::vector<Tweet> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tweet{rng.NextUint64(40) + 1,
                         static_cast<int64_t>(rng.NextUint64(1000000)),
                         geo::LatLon{rng.NextUniform(-44, -10),
                                     rng.NextUniform(113, 154)}});
  }
  return rows;
}

/// An env whose every write path fails ENOSPC (one unbounded window).
FaultSchedule FullDisk() {
  FaultSchedule schedule;
  schedule.windows.push_back(
      FaultWindow{FaultKind::kNoSpace, 0, ~uint64_t{0}, 0.0});
  return schedule;
}

size_t ReopenRowCount(const std::string& path) {
  auto dataset = ReadDatasetFiles(path);
  EXPECT_TRUE(dataset.ok()) << dataset.status().message();
  return dataset.ok() ? dataset->num_rows() : 0;
}

TEST(DegradedModeTest, EnospcAppendParksWriterAndManifestStaysOld) {
  const std::string path = testing::TempDir() + "/twimob_degraded_append.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv env(Env::Default(), 7);

  auto writer = IngestWriter::Open(path, TestIngestOptions(), &env);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(1, 150)).ok());
  const size_t committed_rows = ReopenRowCount(path);
  EXPECT_FALSE((*writer)->degraded());

  env.set_schedule(FullDisk());
  const Status append = (*writer)->AppendBatch(BatchRows(2, 100));
  EXPECT_TRUE(append.IsResourceExhausted()) << append.ToString();

  const IngestHealth health = (*writer)->health();
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.degraded_entries, 1u);
  EXPECT_EQ(health.probe_successes, 0u);
  EXPECT_TRUE(health.last_error.IsResourceExhausted());

  // The failed batch never half-committed: a strict reopen serves exactly
  // the previous dataset.
  EXPECT_EQ(ReopenRowCount(path), committed_rows);

  // A second failed probe does not count another degraded entry.
  EXPECT_TRUE((*writer)->AppendBatch(BatchRows(3, 50)).IsResourceExhausted());
  EXPECT_EQ((*writer)->health().degraded_entries, 1u);
}

TEST(DegradedModeTest, CompactionIsParkedWhileDegradedAndProbeRecovers) {
  const std::string path = testing::TempDir() + "/twimob_degraded_compact.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv env(Env::Default(), 8);

  auto writer = IngestWriter::Open(path, TestIngestOptions(), &env);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(10, 120)).ok());

  env.set_schedule(FullDisk());
  EXPECT_TRUE((*writer)->AppendBatch(BatchRows(11, 60)).IsResourceExhausted());
  ASSERT_TRUE((*writer)->degraded());

  // Compact refuses without touching storage.
  const uint64_t ops_before = env.operations();
  auto compacted = (*writer)->Compact();
  EXPECT_FALSE(compacted.ok());
  EXPECT_TRUE(compacted.status().IsResourceExhausted());
  EXPECT_NE(compacted.status().message().find("parked"), std::string::npos);
  EXPECT_EQ(env.operations(), ops_before);

  // Disk space returns: the next append is the probe that re-enters
  // healthy mode, and compaction works again.
  env.set_schedule({});
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(12, 60)).ok());
  const IngestHealth health = (*writer)->health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.probe_successes, 1u);
  // The parking fault stays visible to operators after recovery.
  EXPECT_TRUE(health.last_error.IsResourceExhausted());
  auto retry = (*writer)->Compact();
  ASSERT_TRUE(retry.ok()) << retry.status().message();
  EXPECT_TRUE(*retry);
}

TEST(DegradedModeTest, EnospcDuringCompactionParksAndSweepsPartialOutput) {
  const std::string path = testing::TempDir() + "/twimob_degraded_merge.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv env(Env::Default(), 9);

  auto writer = IngestWriter::Open(path, TestIngestOptions(), &env);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(20, 200)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(21, 200)).ok());
  const size_t committed_rows = ReopenRowCount(path);

  // Let the merge land its first shard file, then hit the wall — the
  // sweep must remove that partial output (window placement per the
  // deterministic serial op layout: one AtomicWriteFile is five ops).
  FaultSchedule schedule;
  schedule.windows.push_back(
      FaultWindow{FaultKind::kNoSpace, 12, ~uint64_t{0}, 0.0});
  env.set_schedule(schedule);
  auto compacted = (*writer)->Compact();
  EXPECT_FALSE(compacted.ok());
  EXPECT_TRUE(compacted.status().IsResourceExhausted());
  const IngestHealth health = (*writer)->health();
  EXPECT_TRUE(health.degraded);
  // The sweep removed the aborted generation's partial shard files.
  EXPECT_GT(health.swept_files, 0u);

  // Old dataset intact — the manifest never referenced the aborted merge.
  env.set_schedule({});
  EXPECT_EQ(ReopenRowCount(path), committed_rows);
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(22, 50)).ok());
  EXPECT_FALSE((*writer)->degraded());
  auto retry = (*writer)->Compact();
  ASSERT_TRUE(retry.ok()) << retry.status().message();
}

TEST(DegradedModeTest, EmergencySweepFreesUnpinnedButNeverPinnedGenerations) {
  const std::string path = testing::TempDir() + "/twimob_degraded_sweep.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv env(Env::Default(), 10);

  auto writer = IngestWriter::Open(path, TestIngestOptions(), &env);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(30, 150)).ok());

  // Pin generation 1 (a reader), then compact to generation 2: the pinned
  // generation's superseded files defer instead of being deleted.
  const std::string g1_delta = DeltaFilePath(path, 1, 0);
  GenerationPin pin(path, 1);
  auto compacted = (*writer)->Compact();
  ASSERT_TRUE(compacted.ok());
  ASSERT_TRUE(env.FileExists(g1_delta));
  ASSERT_EQ(internal::DeferredGenerationCount(path), 1u);

  // Park the writer: the emergency sweep must leave the pinned files on
  // disk (the deferral stays queued for a post-release commit).
  env.set_schedule(FullDisk());
  EXPECT_TRUE((*writer)->AppendBatch(BatchRows(31, 40)).IsResourceExhausted());
  EXPECT_TRUE((*writer)->degraded());
  EXPECT_TRUE(env.FileExists(g1_delta));
  EXPECT_EQ(internal::DeferredGenerationCount(path), 1u);

  // Release the pin and park again from healthy: now the sweep frees the
  // superseded generation-1 files.
  env.set_schedule({});
  ASSERT_TRUE((*writer)->AppendBatch(BatchRows(32, 40)).ok());
  // The recovery commit itself sweeps released deferrals, so re-defer by
  // pinning across one more compaction.
  pin.Release();
  GenerationPin pin2(path, 2);
  ASSERT_TRUE((*writer)->Compact().ok());
  // Batch 31 failed before its commit, so batch 32 reused cursor seq 1.
  const std::string g2_delta = DeltaFilePath(path, 2, 1);
  ASSERT_EQ(internal::DeferredGenerationCount(path), 1u);
  ASSERT_TRUE(env.FileExists(g2_delta));
  pin2.Release();
  env.set_schedule(FullDisk());
  const uint64_t swept_before = (*writer)->health().swept_files;
  EXPECT_TRUE((*writer)->AppendBatch(BatchRows(33, 40)).IsResourceExhausted());
  EXPECT_GT((*writer)->health().swept_files, swept_before);
  EXPECT_FALSE(env.FileExists(g2_delta));
  EXPECT_EQ(internal::DeferredGenerationCount(path), 0u);
}

}  // namespace
}  // namespace twimob::tweetdb
