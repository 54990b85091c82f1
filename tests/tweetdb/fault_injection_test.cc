// Deterministic crash-point sweep: enumerate every storage-env operation a
// dataset write performs, re-run the write with a crash injected after each
// one, and prove the old-or-new invariant — a strict reopen always sees
// exactly the previous dataset or exactly the new one, never a hybrid, and
// a salvage reopen of the surviving dataset is clean with full row
// accounting.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "census/census_data.h"
#include "random/rng.h"
#include "serve/snapshot_catalog.h"
#include "serve/snapshot_dump.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/dataset.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "tweetdb/storage_env.h"

namespace twimob::tweetdb {
namespace {

/// Tweets cluster near census area centres (jitter well inside the finest
/// 2 km search radius) so datasets opened through SnapshotCatalog keep every
/// scale's Pearson correlation well defined in the serving sweeps below.
TweetDataset MakeDatasetRows(uint64_t seed, size_t num_shards,
                             size_t num_rows) {
  random::Xoshiro256 rng(seed);
  TweetDataset dataset(PartitionSpec::ForWindow(0, 1000000, num_shards), 128);
  for (size_t i = 0; i < num_rows; ++i) {
    const auto& areas =
        census::AreasForScale(census::kAllScales[rng.NextUint64(3)]);
    const census::Area& area = areas[rng.NextUint64(areas.size())];
    EXPECT_TRUE(
        dataset
            .Append(Tweet{
                rng.NextUint64(60) + 1,
                static_cast<int64_t>(rng.NextUint64(1000000)),
                geo::LatLon{area.center.lat + rng.NextUniform(-0.004, 0.004),
                            area.center.lon + rng.NextUniform(-0.004, 0.004)}})
            .ok());
  }
  // Compacted, as WriteDatasetFiles stores it: the rows captured before a
  // write are then the rows a reopen returns, in the same storage order.
  dataset.CompactShards();
  return dataset;
}

TweetDataset MakeDataset(uint64_t seed, size_t num_shards) {
  return MakeDatasetRows(seed, num_shards, 1500);
}

std::vector<Tweet> DatasetRows(const TweetDataset& dataset) {
  std::vector<Tweet> rows;
  rows.reserve(dataset.num_rows());
  dataset.ForEachRow([&rows](const Tweet& t) { rows.push_back(t); });
  return rows;
}

/// Strict-reopens `path` with the real env and returns its rows (storage
/// order — deterministic because shards load in ascending key order).
std::vector<Tweet> ReopenRows(const std::string& path) {
  auto dataset = ReadDatasetFiles(path);
  EXPECT_TRUE(dataset.ok()) << dataset.status().message();
  if (!dataset.ok()) return {};
  return DatasetRows(*dataset);
}

class FaultSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(FaultSweepTest, CrashAfterEveryOperationLeavesOldOrNew) {
  const auto [num_shards, seed] = GetParam();
  const std::string path =
      testing::TempDir() + "/twimob_fault_sweep_" + std::to_string(num_shards) +
      "_" + std::to_string(seed) + ".twdb";
  std::remove(path.c_str());
  Env& real = *Env::Default();
  FaultInjectionEnv fault_env(&real, seed);

  TweetDataset old_dataset = MakeDataset(seed, num_shards);
  TweetDataset new_dataset = MakeDataset(seed + 1000, num_shards);
  const std::vector<Tweet> old_rows = DatasetRows(old_dataset);
  const std::vector<Tweet> new_rows = DatasetRows(new_dataset);
  ASSERT_NE(old_rows, new_rows);

  // Count the gated operations one full rewrite performs (the write
  // succeeds; the old dataset is reinstalled afterwards). The count is a
  // pure function of the dataset shape, so it holds for every retry below.
  ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());
  fault_env.set_plan({});
  ASSERT_TRUE(WriteDatasetFiles(new_dataset, path, &fault_env).ok());
  const uint64_t total_ops = fault_env.operations();
  ASSERT_GT(total_ops, 0u);
  ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());

  for (const auto kind : {FaultInjectionEnv::FaultKind::kCrash,
                          FaultInjectionEnv::FaultKind::kTornWrite}) {
    for (uint64_t at = 0; at < total_ops; ++at) {
      fault_env.set_plan({kind, at});
      const Status write = WriteDatasetFiles(new_dataset, path, &fault_env);
      ASSERT_TRUE(fault_env.crashed())
          << "fault at op " << at << "/" << total_ops << " did not fire";

      // Old-or-new: before the manifest rename the write must fail and
      // leave the previous dataset bit-for-bit readable; a crash in the
      // post-commit cleanup (best-effort GC of the old generation) means
      // the write already succeeded and the NEW dataset must be installed.
      // Never a hybrid.
      const std::vector<Tweet>& expected = write.ok() ? new_rows : old_rows;
      EXPECT_EQ(ReopenRows(path), expected)
          << "crash at op " << at << " tore the dataset (write "
          << (write.ok() ? "committed" : "failed") << ")";

      // Salvage agrees and accounts for every row — the surviving dataset
      // is whole, not merely openable.
      RecoveryReport report;
      auto salvaged = ReadDatasetFiles(path, RecoveryPolicy::kSalvage, &report);
      ASSERT_TRUE(salvaged.ok()) << "crash at op " << at;
      EXPECT_FALSE(report.degraded()) << "crash at op " << at;
      EXPECT_EQ(report.rows_recovered(), expected.size());
      EXPECT_EQ(report.rows_expected(), expected.size());

      // Re-arm: if the faulted write committed, reinstall the old dataset
      // so every crash point is exercised against the same starting state.
      if (write.ok()) {
        ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());
      }
    }
  }

  // No fault: the rewrite commits and a strict reopen sees the new rows.
  fault_env.set_plan({});
  ASSERT_TRUE(WriteDatasetFiles(new_dataset, path, &fault_env).ok());
  EXPECT_EQ(ReopenRows(path), new_rows);
}

TEST_P(FaultSweepTest, TransientFaultsAreAbsorbedByTheRetryBudget) {
  const auto [num_shards, seed] = GetParam();
  const std::string path =
      testing::TempDir() + "/twimob_fault_transient_" +
      std::to_string(num_shards) + "_" + std::to_string(seed) + ".twdb";
  std::remove(path.c_str());
  FaultInjectionEnv fault_env(Env::Default(), seed);

  TweetDataset dataset = MakeDataset(seed, num_shards);
  const std::vector<Tweet> rows = DatasetRows(dataset);

  fault_env.set_plan({});
  ASSERT_TRUE(WriteDatasetFiles(dataset, path, &fault_env).ok());
  const uint64_t total_ops = fault_env.operations();

  // A transient blip at every operation index in turn: each write still
  // commits (the env recovers on retry), and the result is intact.
  for (uint64_t at = 0; at < total_ops; at += 3) {
    fault_env.set_plan({FaultInjectionEnv::FaultKind::kTransient, at,
                        /*transient_failures=*/2});
    const Status write = WriteDatasetFiles(dataset, path, &fault_env);
    ASSERT_TRUE(write.ok()) << "transient at op " << at << ": "
                            << write.message();
    EXPECT_EQ(ReopenRows(path), rows) << "transient at op " << at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardCountsAndSeeds, FaultSweepTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                       ::testing::Values(uint64_t{101}, uint64_t{202})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FaultInjectionDatasetTest, NoSpaceDuringShardWriteLeavesOldDataset) {
  const std::string path = testing::TempDir() + "/twimob_fault_enospc_ds.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv fault_env(Env::Default(), 9);

  TweetDataset old_dataset = MakeDataset(5, 2);
  TweetDataset new_dataset = MakeDataset(6, 2);
  const std::vector<Tweet> old_rows = DatasetRows(old_dataset);
  ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());

  // Fail the first shard append like a full disk: the write errors, the
  // env stays up, and the installed dataset is untouched.
  fault_env.set_plan({FaultInjectionEnv::FaultKind::kNoSpace, /*at=*/3});
  const Status write = WriteDatasetFiles(new_dataset, path, &fault_env);
  ASSERT_FALSE(write.ok());
  EXPECT_FALSE(fault_env.crashed());
  EXPECT_NE(write.message().find("no space"), std::string::npos);
  EXPECT_EQ(ReopenRows(path), old_rows);
}

// --- Serving-layer crash sweeps -------------------------------------------
//
// The old-or-new storage guarantee must extend through SnapshotCatalog:
// whatever operation a writer crashes on, a subsequent Refresh() serves
// exactly the previous snapshot or exactly the new one — never an error,
// never a hybrid — and a read fault during Refresh() itself leaves the
// installed snapshot serving untouched.

serve::CatalogOptions ServeOptions(Env* env = nullptr) {
  serve::CatalogOptions options;
  options.analysis.run_mobility = false;  // population-only loads keep the
                                          // per-crash-point sweep fast
  options.env = env;
  options.num_threads = 1;
  return options;
}

TEST(FaultInjectionServeTest, RefreshAfterWriterCrashServesOldOrNewOnly) {
  const std::string path =
      testing::TempDir() + "/twimob_fault_refresh.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv fault_env(Env::Default(), 77);

  // Old and new generations carry different row counts so "which dataset is
  // the catalog serving" is a single-number check.
  TweetDataset old_dataset = MakeDatasetRows(301, 2, 1500);
  TweetDataset new_dataset = MakeDatasetRows(302, 2, 900);
  const size_t old_rows = old_dataset.num_rows();
  const size_t new_rows = new_dataset.num_rows();
  ASSERT_NE(old_rows, new_rows);

  ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());
  auto catalog = serve::SnapshotCatalog::Open(path, ServeOptions());
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();

  // Measure a clean rewrite's operation count for the sweep bound. The
  // exact count varies between iterations (pinned generations defer GC, so
  // later commits carry extra sweep removals); crash points past the end of
  // a given write simply commit, which the invariant check absorbs.
  fault_env.set_plan({});
  ASSERT_TRUE(WriteDatasetFiles(new_dataset, path, &fault_env).ok());
  const uint64_t total_ops = fault_env.operations();
  ASSERT_GT(total_ops, 0u);
  ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());
  ASSERT_TRUE((*catalog)->Refresh().ok());

  for (uint64_t at = 0; at < total_ops; ++at) {
    const size_t rows_before = (*catalog)->Current()->num_rows();
    fault_env.set_plan({FaultInjectionEnv::FaultKind::kCrash, at});
    const Status write = WriteDatasetFiles(new_dataset, path, &fault_env);

    // Refresh with the REAL env (the writer crashed, not the server): it
    // must succeed and serve exactly one of the two datasets, matching the
    // write's outcome.
    auto refreshed = (*catalog)->Refresh();
    ASSERT_TRUE(refreshed.ok())
        << "crash at op " << at << ": " << refreshed.status().message();
    const auto snapshot = (*catalog)->Current();
    const size_t served_rows = snapshot->num_rows();
    if (write.ok()) {
      EXPECT_EQ(served_rows, new_rows) << "crash at op " << at;
      EXPECT_TRUE(*refreshed) << "crash at op " << at;
    } else {
      EXPECT_EQ(served_rows, rows_before) << "crash at op " << at;
      EXPECT_FALSE(*refreshed) << "crash at op " << at;
    }
    // The serving generation is pinned; the snapshot keeps answering.
    EXPECT_TRUE(IsGenerationPinned(path, snapshot->generation()));
    EXPECT_GT(snapshot->result().population.size(), 0u);

    // Re-arm to the old dataset when the faulted write committed.
    if (write.ok()) {
      ASSERT_TRUE(WriteDatasetFiles(old_dataset, path).ok());
      ASSERT_TRUE((*catalog)->Refresh().ok());
      ASSERT_EQ((*catalog)->Current()->num_rows(), old_rows);
    }
  }
}

TEST(FaultInjectionServeTest, ReadFaultDuringRefreshLeavesServingIntact) {
  const std::string path =
      testing::TempDir() + "/twimob_fault_refresh_read.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv fault_env(Env::Default(), 88);

  TweetDataset content_a = MakeDatasetRows(401, 2, 1500);
  TweetDataset content_b = MakeDatasetRows(402, 2, 900);
  const size_t rows_a = content_a.num_rows();
  const size_t rows_b = content_b.num_rows();
  ASSERT_TRUE(WriteDatasetFiles(content_a, path).ok());

  // The catalog itself runs on the fault env: its refresh reads can die.
  fault_env.set_plan({});
  auto catalog = serve::SnapshotCatalog::Open(path, ServeOptions(&fault_env));
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();
  ASSERT_EQ((*catalog)->Current()->generation(), 1u);

  // Count the read operations of one full reload (serving A, picking up a
  // freshly committed B): the count is a function of B's dataset shape, so
  // it holds for every iteration below.
  ASSERT_TRUE(WriteDatasetFiles(content_b, path).ok());
  fault_env.set_plan({});
  auto reload = (*catalog)->Refresh();
  ASSERT_TRUE(reload.ok());
  ASSERT_TRUE(*reload);
  const uint64_t reload_ops = fault_env.operations();
  ASSERT_GT(reload_ops, 0u);

  for (uint64_t at = 0; at < reload_ops; ++at) {
    // Re-arm: serve content A, then commit content B for the refresh to
    // find (generation numbers keep advancing; content is what matters).
    fault_env.set_plan({});
    if ((*catalog)->Current()->num_rows() != rows_a) {
      ASSERT_TRUE(WriteDatasetFiles(content_a, path).ok());
      ASSERT_TRUE((*catalog)->Refresh().ok());
      ASSERT_EQ((*catalog)->Current()->num_rows(), rows_a);
    }
    ASSERT_TRUE(WriteDatasetFiles(content_b, path).ok());

    // Crash the refresh's `at`-th read operation. Every gated operation of
    // a refresh precedes the snapshot swap, so the refresh must fail and
    // the catalog must keep serving content A, whole and queryable.
    fault_env.set_plan({FaultInjectionEnv::FaultKind::kCrash, at});
    auto refreshed = (*catalog)->Refresh();
    EXPECT_FALSE(refreshed.ok() && *refreshed)
        << "read crash at op " << at << " still swapped";
    const auto snapshot = (*catalog)->Current();
    EXPECT_EQ(snapshot->num_rows(), rows_a)
        << "read crash at op " << at;
    EXPECT_GT(snapshot->result().population.size(), 0u);
    EXPECT_TRUE(IsGenerationPinned(path, snapshot->generation()));

    // Revived, the next refresh picks content B up cleanly.
    fault_env.set_plan({});
    auto recovered = (*catalog)->Refresh();
    ASSERT_TRUE(recovered.ok()) << "after crash at op " << at;
    EXPECT_TRUE(*recovered);
    EXPECT_EQ((*catalog)->Current()->num_rows(), rows_b);
  }
}

// The delta path of Refresh (deltas on the installed generation) must hold
// the same line: a fault while it reads its delta files is a typed error
// that leaves the installed snapshot serving, and the next clean refresh
// equals a from-scratch open. A kSalvage catalog never takes it.

std::vector<Tweet> BatchRows(uint64_t seed, size_t n);

/// A committed history at `path` (removed first), a writer on it with the
/// real env and a catalog opened with `options`.
void StartLiveDataset(const std::string& path, const serve::CatalogOptions& options,
                      std::unique_ptr<IngestWriter>* writer,
                      std::unique_ptr<serve::SnapshotCatalog>* catalog) {
  std::remove(path.c_str());
  TweetDataset history = MakeDatasetRows(501, 2, 1500);
  ASSERT_TRUE(WriteDatasetFiles(history, path).ok());
  auto opened_writer = IngestWriter::Open(path);
  ASSERT_TRUE(opened_writer.ok()) << opened_writer.status().message();
  *writer = std::move(*opened_writer);
  auto opened = serve::SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  *catalog = std::move(*opened);
}

/// The served snapshot equals a from-scratch open (real env) bitwise.
void ExpectMatchesFreshOpen(const serve::SnapshotCatalog& catalog,
                            serve::CatalogOptions options, const std::string& where) {
  options.env = nullptr;
  auto fresh = serve::SnapshotCatalog::Open(catalog.path(), options);
  ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status().message();
  const std::vector<serve::Probe> probes = {{geo::LatLon{-33.87, 151.21}, 20000.0},
                                            {geo::LatLon{-37.81, 144.96}, 50000.0},
                                            {geo::LatLon{-50.0, 100.0}, 1000.0}};
  EXPECT_EQ(serve::DumpSnapshot(catalog.Current(), probes),
            serve::DumpSnapshot((*fresh)->Current(), probes))
      << where;
}

TEST(FaultInjectionServeTest, ReadFaultDuringIncrementalRefreshLeavesServingIntact) {
  const std::string path = testing::TempDir() + "/twimob_fault_delta_refresh.twdb";
  FaultInjectionEnv fault_env(Env::Default(), 99);
  const serve::CatalogOptions options = ServeOptions(&fault_env);
  std::unique_ptr<IngestWriter> writer;
  std::unique_ptr<serve::SnapshotCatalog> catalog;
  ASSERT_NO_FATAL_FAILURE(StartLiveDataset(path, options, &writer, &catalog));

  // The gated operations of one delta refresh: a manifest peek and one
  // delta file read — the same count for every one-delta refresh below.
  uint64_t seed = 600;
  ASSERT_TRUE(writer->AppendBatch(BatchRows(seed++, 120)).ok());
  fault_env.set_plan({});
  auto first = catalog->Refresh();
  ASSERT_TRUE(first.ok() && *first);
  ASSERT_TRUE(serve::RanDeltaPath(*catalog->Current()));
  const uint64_t refresh_ops = fault_env.operations();
  ASSERT_GT(refresh_ops, 0u);

  for (const auto kind : {FaultInjectionEnv::FaultKind::kCrash,
                          FaultInjectionEnv::FaultKind::kShortRead}) {
    const bool crash = kind == FaultInjectionEnv::FaultKind::kCrash;
    uint64_t failed = 0;
    for (uint64_t at = 0; at < refresh_ops; ++at) {
      const std::string where =
          std::string(crash ? "crash" : "short read") + " at op " + std::to_string(at);
      ASSERT_TRUE(writer->AppendBatch(BatchRows(seed++, 120)).ok());
      const auto before = catalog->Current();
      fault_env.set_plan({kind, at});
      auto refreshed = catalog->Refresh();
      // A crash fails every operation; a short read only tears reads, so
      // one planned on a file open is inert and the refresh goes through.
      EXPECT_TRUE(!crash || !refreshed.ok()) << where;
      if (!refreshed.ok()) {
        ++failed;
        EXPECT_EQ(catalog->Current().get(), before.get()) << where;
        EXPECT_TRUE(IsGenerationPinned(path, before->generation())) << where;
        fault_env.set_plan({});
        auto recovered = catalog->Refresh();
        ASSERT_TRUE(recovered.ok()) << where << ": " << recovered.status().message();
        EXPECT_TRUE(*recovered) << where;
      }
      EXPECT_TRUE(serve::RanDeltaPath(*catalog->Current())) << where;
      ExpectMatchesFreshOpen(*catalog, options, where);
    }
    EXPECT_GT(failed, 0u);
  }
}

TEST(FaultInjectionServeTest, DamagedDeltaFileFailsIncrementalRefreshWithATypedError) {
  const std::string path = testing::TempDir() + "/twimob_fault_delta_damage.twdb";
  const serve::CatalogOptions options = ServeOptions();
  std::unique_ptr<IngestWriter> writer;
  std::unique_ptr<serve::SnapshotCatalog> catalog;
  ASSERT_NO_FATAL_FAILURE(StartLiveDataset(path, options, &writer, &catalog));
  Env& env = *Env::Default();

  uint64_t seed = 700;
  for (const bool torn : {true, false}) {
    const std::string where = torn ? "torn delta file" : "flipped delta byte";
    ASSERT_TRUE(writer->AppendBatch(BatchRows(seed++, 300)).ok());
    const Manifest manifest = writer->manifest();
    const DeltaSummary& delta = manifest.deltas.back();
    const std::string file = DeltaFilePath(path, delta.generation, delta.seq);
    auto intact = ReadFileToString(env, file);
    ASSERT_TRUE(intact.ok());
    // A torn write keeps a prefix; a flip lands in the block payloads.
    std::string damaged = *intact;
    if (torn) {
      damaged.resize(damaged.size() / 2);
    } else {
      damaged[damaged.size() * 2 / 3] ^= 0x40;
    }
    ASSERT_TRUE(AtomicWriteFile(env, file, damaged).ok());

    const auto before = catalog->Current();
    auto refreshed = catalog->Refresh();
    ASSERT_FALSE(refreshed.ok()) << where;
    EXPECT_TRUE(refreshed.status().IsIOError()) << where << ": " << refreshed.status();
    EXPECT_EQ(catalog->Current().get(), before.get()) << where;

    ASSERT_TRUE(AtomicWriteFile(env, file, *intact).ok());
    auto recovered = catalog->Refresh();
    ASSERT_TRUE(recovered.ok() && *recovered) << where;
    EXPECT_TRUE(serve::RanDeltaPath(*catalog->Current())) << where;
    ExpectMatchesFreshOpen(*catalog, options, where);
  }
}

TEST(FaultInjectionServeTest, SalvageCatalogAlwaysTakesTheFullPath) {
  const std::string path = testing::TempDir() + "/twimob_fault_salvage_refresh.twdb";
  serve::CatalogOptions options = ServeOptions();
  options.policy = RecoveryPolicy::kSalvage;
  std::unique_ptr<IngestWriter> writer;
  std::unique_ptr<serve::SnapshotCatalog> catalog;
  ASSERT_NO_FATAL_FAILURE(StartLiveDataset(path, options, &writer, &catalog));
  for (uint64_t seed = 800; seed < 803; ++seed) {
    ASSERT_TRUE(writer->AppendBatch(BatchRows(seed, 200)).ok());
    auto refreshed = catalog->Refresh();
    ASSERT_TRUE(refreshed.ok() && *refreshed);
    const core::PipelineTrace& trace = catalog->Current()->result().trace;
    EXPECT_NE(trace.Find("compact"), nullptr);
    EXPECT_EQ(trace.Find("delta"), nullptr);
    ExpectMatchesFreshOpen(*catalog, options, "seed " + std::to_string(seed));
  }
}

// --- Ingest-writer crash sweeps -------------------------------------------
//
// The append/compact lifecycle must uphold the same old-or-new contract as
// full rewrites: a crashed AppendBatch leaves exactly the previous dataset
// or exactly the appended one (and a retry lands the batch exactly once),
// while a crashed compaction NEVER loses a committed delta row — the old
// manifest keeps every delta until the new generation's manifest commits.

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

IngestOptions SweepIngestOptions() {
  IngestOptions options;
  options.partition = PartitionSpec::ForWindow(0, 1000000, 2);
  options.block_capacity = 128;
  return options;
}

/// Strict-reopens `path` with the real env, sorted by the (user, time, lat,
/// lon) total order — delta fold order must not matter to the comparison.
std::vector<Tweet> ReopenRowsSorted(const std::string& path) {
  std::vector<Tweet> rows = ReopenRows(path);
  std::sort(rows.begin(), rows.end(), UserTimeLess);
  return rows;
}

/// The storage-quantised sorted row set of `batches` merged — the ground
/// truth an ingest path must land on (built through a plain dataset write
/// so both sides round-trip the fixed-point position codec).
std::vector<Tweet> QuantisedSortedRows(
    const std::string& scratch_path,
    const std::vector<std::vector<Tweet>>& batches) {
  std::remove(scratch_path.c_str());
  TweetDataset dataset(SweepIngestOptions().partition, 128);
  for (const auto& batch : batches) {
    EXPECT_TRUE(dataset.AppendBatch(batch).ok());
  }
  EXPECT_TRUE(WriteDatasetFiles(dataset, scratch_path).ok());
  std::vector<Tweet> rows = ReopenRowsSorted(scratch_path);
  std::remove(scratch_path.c_str());
  return rows;
}

TEST(FaultInjectionIngestTest, CrashedAppendLeavesOldOrNewAndRetryLandsOnce) {
  const std::string path = testing::TempDir() + "/twimob_fault_append.twdb";
  const std::string scratch = path + ".ref";
  FaultInjectionEnv fault_env(Env::Default(), 55);

  const std::vector<Tweet> base_batch = BatchRows(501, 200);
  const std::vector<Tweet> new_batch = BatchRows(502, 150);
  const std::vector<Tweet> old_rows = QuantisedSortedRows(scratch, {base_batch});
  const std::vector<Tweet> all_rows =
      QuantisedSortedRows(scratch, {base_batch, new_batch});
  ASSERT_NE(old_rows, all_rows);

  // Base state: one committed delta, cursor at 1.
  auto make_base = [&] {
    std::remove(path.c_str());
    auto writer = IngestWriter::Open(path, SweepIngestOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE((*writer)->AppendBatch(base_batch).ok());
  };

  // Count the gated operations of one open + append from the base state.
  make_base();
  fault_env.set_plan({});
  {
    auto writer = IngestWriter::Open(path, SweepIngestOptions(), &fault_env);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendBatch(new_batch).ok());
  }
  const uint64_t total_ops = fault_env.operations();
  ASSERT_GT(total_ops, 0u);

  for (const auto kind : {FaultInjectionEnv::FaultKind::kCrash,
                          FaultInjectionEnv::FaultKind::kTornWrite}) {
    for (uint64_t at = 0; at < total_ops; ++at) {
      make_base();
      fault_env.set_plan({kind, at});
      Status append = Status::OK();
      {
        auto writer = IngestWriter::Open(path, SweepIngestOptions(), &fault_env);
        append = writer.ok() ? (*writer)->AppendBatch(new_batch)
                             : writer.status();
      }
      ASSERT_TRUE(fault_env.crashed())
          << "fault at op " << at << "/" << total_ops << " did not fire";

      // Old-or-new: the committed dataset is exactly the base rows or
      // exactly base + batch — never a hybrid, never unreadable.
      const std::vector<Tweet> survived = ReopenRowsSorted(path);
      if (append.ok()) {
        EXPECT_EQ(survived, all_rows) << "crash at op " << at;
      } else {
        EXPECT_TRUE(survived == old_rows || survived == all_rows)
            << "crash at op " << at << " tore the dataset";
      }

      // Retry with a healthy env: reopen resumes the cursor, the orphaned
      // delta file (if any) is atomically replaced, and the batch lands
      // exactly once.
      auto retry = IngestWriter::Open(path, SweepIngestOptions());
      ASSERT_TRUE(retry.ok()) << "crash at op " << at;
      if (survived != all_rows) {
        ASSERT_TRUE((*retry)->AppendBatch(new_batch).ok())
            << "crash at op " << at;
      }
      EXPECT_EQ(ReopenRowsSorted(path), all_rows) << "crash at op " << at;
      EXPECT_EQ((*retry)->manifest().next_delta_seq, 2u)
          << "crash at op " << at;
    }
  }
}

TEST(FaultInjectionIngestTest, CrashedCompactionNeverLosesDeltaRows) {
  const std::string path = testing::TempDir() + "/twimob_fault_compact.twdb";
  const std::string scratch = path + ".ref";
  FaultInjectionEnv fault_env(Env::Default(), 66);

  const std::vector<Tweet> b0 = BatchRows(601, 250);
  const std::vector<Tweet> b1 = BatchRows(602, 180);
  const std::vector<Tweet> b2 = BatchRows(603, 120);
  const std::vector<Tweet> all_rows = QuantisedSortedRows(scratch, {b0, b1, b2});

  // Base state: generation 2 shards (one compaction already ran) plus two
  // committed deltas pending — the merge reads shards AND deltas.
  auto make_base = [&] {
    std::remove(path.c_str());
    auto writer = IngestWriter::Open(path, SweepIngestOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE((*writer)->AppendBatch(b0).ok());
    auto compacted = (*writer)->Compact();
    ASSERT_TRUE(compacted.ok());
    ASSERT_TRUE(*compacted);
    ASSERT_TRUE((*writer)->AppendBatch(b1).ok());
    ASSERT_TRUE((*writer)->AppendBatch(b2).ok());
  };

  // Count the gated operations of one open + compaction of the base state.
  make_base();
  fault_env.set_plan({});
  {
    auto writer = IngestWriter::Open(path, SweepIngestOptions(), &fault_env);
    ASSERT_TRUE(writer.ok());
    auto compacted = (*writer)->Compact();
    ASSERT_TRUE(compacted.ok());
    ASSERT_TRUE(*compacted);
  }
  const uint64_t total_ops = fault_env.operations();
  ASSERT_GT(total_ops, 0u);

  for (const auto kind : {FaultInjectionEnv::FaultKind::kCrash,
                          FaultInjectionEnv::FaultKind::kTornWrite}) {
    for (uint64_t at = 0; at < total_ops; ++at) {
      make_base();
      fault_env.set_plan({kind, at});
      {
        auto writer = IngestWriter::Open(path, SweepIngestOptions(), &fault_env);
        if (writer.ok()) (void)(*writer)->Compact();
      }
      ASSERT_TRUE(fault_env.crashed())
          << "fault at op " << at << "/" << total_ops << " did not fire";

      // The cardinal invariant: whatever the crash point, EVERY committed
      // row survives — the old manifest keeps its deltas until the new
      // generation's manifest rename, which installs the merged rows.
      EXPECT_EQ(ReopenRowsSorted(path), all_rows)
          << "crash at op " << at << " lost delta rows";

      // Retry with a healthy env: the compaction completes, the cursor is
      // preserved, and the dataset is fully merged.
      auto retry = IngestWriter::Open(path, SweepIngestOptions());
      ASSERT_TRUE(retry.ok()) << "crash at op " << at;
      auto compacted = (*retry)->Compact();
      ASSERT_TRUE(compacted.ok()) << "crash at op " << at << ": "
                                  << compacted.status().message();
      const Manifest manifest = (*retry)->manifest();
      EXPECT_TRUE(manifest.deltas.empty()) << "crash at op " << at;
      EXPECT_EQ(manifest.next_delta_seq, 3u) << "crash at op " << at;
      EXPECT_EQ(ReopenRowsSorted(path), all_rows) << "crash at op " << at;
    }
  }
}

TEST(FaultInjectionDatasetTest, ShortReadOnManifestIsCaughtNotMisread) {
  const std::string path = testing::TempDir() + "/twimob_fault_shortread_ds.twdb";
  std::remove(path.c_str());
  FaultInjectionEnv fault_env(Env::Default(), 10);

  TweetDataset dataset = MakeDataset(7, 2);
  ASSERT_TRUE(WriteDatasetFiles(dataset, path).ok());

  // A short read truncates the manifest bytes mid-flight; the CRC (or the
  // structural validators) must reject them — never a silently smaller
  // dataset.
  fault_env.set_plan({FaultInjectionEnv::FaultKind::kShortRead, /*at=*/1});
  auto read = ReadDatasetFiles(path, RecoveryPolicy::kStrict, nullptr,
                               &fault_env);
  EXPECT_FALSE(read.ok());
}

}  // namespace
}  // namespace twimob::tweetdb
