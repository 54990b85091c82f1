// The delta and rebase paths of SnapshotCatalog::Refresh against
// from-scratch opens. An IngestWriter appends a seeded corpus onto
// committed history in single-row, prime-sized, shuffled and whole-stream
// batches, at 1, 4 and 16 shards and 1, 2 and 4 threads, with compactions
// between batches. After every Refresh the served snapshot must equal
// SnapshotCatalog::Open of the same path bitwise — population, mobility,
// models, serving tables, the RecoveryReport and population queries at
// seeded centres and radii (an empty disc included) — and its trace must
// name the path that ran: the delta path for deltas on the installed
// generation, the rebase path after a compaction of it, and the full path
// after a rewrite, a compaction the catalog fell behind, or under kSalvage.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "census/census_data.h"
#include "random/rng.h"
#include "serve/snapshot_catalog.h"
#include "serve/snapshot_dump.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/ingest.h"

namespace twimob::serve {
namespace {

using tweetdb::Tweet;

/// The Refresh path a snapshot's trace names.
enum class Path { kDelta, kRebase, kFull };

bool Ran(const core::AnalysisSnapshot& snapshot, Path path) {
  switch (path) {
    case Path::kDelta:
      return RanDeltaPath(snapshot);
    case Path::kRebase:
      return RanDeltaPath(snapshot, /*rebased=*/true);
    case Path::kFull:
      return snapshot.result().trace.Find("compact") != nullptr &&
             snapshot.result().trace.Find("delta") == nullptr;
  }
  return false;
}

core::PipelineConfig ChainConfig() {
  core::PipelineConfig config;
  config.corpus.num_users = 3000;
  config.corpus.seed = 7;
  return config;
}

/// Population probes: every paper centre at its own ε and at 25 km, random
/// points at random radii, and a disc far out at sea that holds nothing.
std::vector<Probe> Probes() {
  std::vector<Probe> probes;
  for (const core::ScaleSpec& spec : core::PaperScales()) {
    for (const census::Area& area : spec.areas) {
      probes.push_back({area.center, spec.radius_m});
      probes.push_back({area.center, 25000.0});
    }
  }
  random::Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    probes.push_back({geo::LatLon{rng.NextUniform(-40.0, -12.0), rng.NextUniform(115.0, 153.0)},
                      rng.NextUniform(500.0, 300000.0)});
  }
  probes.push_back({geo::LatLon{-50.0, 100.0}, 1000.0});
  return probes;
}

/// One live chain: committed history, a writer appending to it and a
/// catalog serving it.
struct Chain {
  std::string path;
  CatalogOptions options;
  std::unique_ptr<tweetdb::IngestWriter> writer;
  std::unique_ptr<SnapshotCatalog> catalog;
  size_t refreshes = 0;
  /// The served snapshot's dump after each refresh, in order.
  std::vector<std::string> served_dumps;
};

class IncrementalRefreshTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const core::PipelineConfig config = ChainConfig();
    auto generator = synth::TweetGenerator::Create(config.corpus);
    ASSERT_TRUE(generator.ok()) << generator.status();
    auto dataset = generator->GenerateDataset(tweetdb::PartitionSpec::Single());
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    // About 60% of the rows are history; the rest stream in time order, so
    // they extend existing users, splice into the middle of their
    // sequences and bring new users.
    history_ = new std::vector<Tweet>();
    stream_ = new std::vector<Tweet>();
    random::Xoshiro256 rng(3);
    dataset->ForEachRow([&rng](const Tweet& t) {
      (rng.NextUniform(0.0, 1.0) < 0.6 ? history_ : stream_)->push_back(t);
    });
    std::sort(stream_->begin(), stream_->end(),
              [](const Tweet& a, const Tweet& b) { return a.timestamp < b.timestamp; });
    probes_ = new std::vector<Probe>(Probes());
  }
  static void TearDownTestSuite() {
    delete history_;
    delete stream_;
    delete probes_;
    history_ = stream_ = nullptr;
    probes_ = nullptr;
  }

  static const std::vector<Tweet>& stream() { return *stream_; }

  /// Commits the history (`history_rows` of its rows evenly spaced, all by
  /// default) at `path` in `shards` time shards and opens a writer and a
  /// catalog (`threads` workers, `policy`) on it.
  static void StartChain(const std::string& name, size_t shards, size_t threads,
                         Chain* chain, size_t history_rows = SIZE_MAX,
                         tweetdb::RecoveryPolicy policy = tweetdb::RecoveryPolicy::kStrict) {
    const core::PipelineConfig config = ChainConfig();
    chain->path = testing::TempDir() + "/twimob_incremental_" + name + ".twdb";
    std::remove(chain->path.c_str());
    tweetdb::TweetDataset history(tweetdb::PartitionSpec::ForWindow(
        config.corpus.window_start, config.corpus.window_end, shards));
    const size_t take = std::min(history_rows, history_->size());
    for (size_t k = 0; k < take; ++k) {
      ASSERT_TRUE(history.Append((*history_)[k * history_->size() / take]).ok());
    }
    history.SealAll();
    ASSERT_TRUE(tweetdb::WriteDatasetFiles(history, chain->path).ok());
    auto writer = tweetdb::IngestWriter::Open(chain->path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    chain->writer = std::move(*writer);
    chain->options.analysis = config;
    chain->options.num_threads = threads;
    chain->options.policy = policy;
    auto catalog = SnapshotCatalog::Open(chain->path, chain->options);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    chain->catalog = std::move(*catalog);
    EXPECT_TRUE(Ran(*chain->catalog->Current(), Path::kFull));
  }

  /// Refreshes and checks the served snapshot against a from-scratch open
  /// of the same path and the path its trace names.
  static void RefreshAndCheck(Chain& chain, Path expected) {
    auto refreshed = chain.catalog->Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status();
    ASSERT_TRUE(*refreshed);
    const std::string where = chain.path + ", refresh " + std::to_string(++chain.refreshes);
    const auto served = chain.catalog->Current();
    EXPECT_TRUE(Ran(*served, expected)) << where;
    auto fresh = SnapshotCatalog::Open(chain.path, chain.options);
    ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status();
    const auto reference = (*fresh)->Current();
    EXPECT_TRUE(Ran(*reference, Path::kFull)) << where;
    chain.served_dumps.push_back(DumpSnapshot(served, *probes_));
    EXPECT_EQ(chain.served_dumps.back(), DumpSnapshot(reference, *probes_)) << where;
  }

  /// Appends `batch`, then RefreshAndCheck.
  static void AppendAndCheck(Chain& chain, const std::vector<Tweet>& batch,
                             Path expected = Path::kDelta) {
    ASSERT_TRUE(chain.writer->AppendBatch(batch).ok());
    RefreshAndCheck(chain, expected);
  }

  /// Compacts every pending delta into the next generation.
  static void Compact(Chain& chain) {
    auto compacted = chain.writer->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status();
    ASSERT_TRUE(*compacted);
  }

  /// Appends rows [begin, end) of `rows` in batches of `batch_rows`,
  /// checking after each; with `compact_between`, every pending delta is
  /// compacted before each batch after the first, so those refreshes
  /// rebase.
  static void AppendRange(Chain& chain, const std::vector<Tweet>& rows, size_t begin,
                          size_t end, size_t batch_rows, bool compact_between = false) {
    for (size_t off = begin; off < end; off += batch_rows) {
      const bool rebase = compact_between && off != begin;
      if (rebase) {
        ASSERT_NO_FATAL_FAILURE(Compact(chain));
      }
      const std::vector<Tweet> batch(rows.begin() + off,
                                     rows.begin() + std::min(end, off + batch_rows));
      AppendAndCheck(chain, batch, rebase ? Path::kRebase : Path::kDelta);
      if (testing::Test::HasFatalFailure()) return;
    }
  }

  /// The mixed chain: single rows with a compaction between them, a
  /// prime-sized batch, a compaction, then shuffled batches with
  /// compactions between them and in-order batches on the last generation.
  static void RunSweep(const std::string& name, size_t shards, size_t threads,
                       Chain* chain) {
    ASSERT_NO_FATAL_FAILURE(StartChain("sweep_" + name, shards, threads, chain));
    const std::vector<Tweet> shuffled = Shuffled(stream(), shards * 10 + 1);
    AppendRange(*chain, stream(), 0, 3, 1, /*compact_between=*/true);
    AppendRange(*chain, stream(), 3, 3 + 997, 997);
    if (testing::Test::HasFatalFailure()) return;
    // A compaction folds every delta into the next generation, whose rows
    // the served snapshot already holds: the next refresh rebases.
    ASSERT_NO_FATAL_FAILURE(Compact(*chain));
    AppendAndCheck(*chain, std::vector<Tweet>(shuffled.begin(), shuffled.begin() + 500),
                   Path::kRebase);
    AppendRange(*chain, shuffled, 500, 500 + 3 * 500, 500, /*compact_between=*/true);
    AppendRange(*chain, stream(), 2000, 2000 + 2 * 997, 997);
  }

  static std::vector<Tweet> Shuffled(std::vector<Tweet> rows, uint64_t seed) {
    random::Xoshiro256 rng(seed);
    for (size_t i = rows.size(); i > 1; --i) std::swap(rows[i - 1], rows[rng.NextUint64(i)]);
    return rows;
  }

 private:
  static std::vector<Tweet>* history_;
  static std::vector<Tweet>* stream_;
  static std::vector<Probe>* probes_;
};

std::vector<Tweet>* IncrementalRefreshTest::history_ = nullptr;
std::vector<Tweet>* IncrementalRefreshTest::stream_ = nullptr;
std::vector<Probe>* IncrementalRefreshTest::probes_ = nullptr;

TEST_F(IncrementalRefreshTest, SingleRowBatchesMatchAFromScratchOpen) {
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("single_row", 4, 2, &chain));
  AppendRange(chain, stream(), 0, 30, 1);
}

TEST_F(IncrementalRefreshTest, PrimeSizedBatchesMatchAFromScratchOpen) {
  // 997 rows leave a ragged tail and split most users' sequences across
  // many deltas.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("prime", 4, 2, &chain));
  AppendRange(chain, stream(), 0, 4 * 997, 997);
}

TEST_F(IncrementalRefreshTest, ShuffledBatchesMatchAFromScratchOpen) {
  // Batches out of time order: every batch touches users all over the
  // window, so most replays splice rows into old sequences.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("shuffled", 4, 4, &chain));
  AppendRange(chain, Shuffled(stream(), 99), 0, 4 * 800, 800);
}

TEST_F(IncrementalRefreshTest, OneLargeBatchMatchesAFromScratchOpen) {
  // The whole stream in one delta: a new run two thirds the history's size.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("one_batch", 4, 4, &chain));
  AppendAndCheck(chain, stream());
}

TEST_F(IncrementalRefreshTest, ChainMatchesAFromScratchOpenAtEveryShardCount) {
  for (const size_t shards : {1, 4, 16}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    Chain chain;
    RunSweep("shards_" + std::to_string(shards), shards, 2, &chain);
    if (HasFatalFailure()) return;
  }
}

TEST_F(IncrementalRefreshTest, ChainRefreshIsThreadCountInvariant) {
  // The same chain at 1, 2 and 4 threads: every refresh equals a
  // from-scratch open at its own thread count, and all serve bitwise-equal
  // snapshots.
  for (const size_t shards : {1, 4, 16}) {
    std::vector<std::string> served_at_one_thread;
    for (const size_t threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " + std::to_string(threads) +
                   " threads");
      Chain chain;
      RunSweep("threads_" + std::to_string(shards) + "_" + std::to_string(threads), shards,
               threads, &chain);
      if (HasFatalFailure()) return;
      if (threads == 1) {
        served_at_one_thread = std::move(chain.served_dumps);
        continue;
      }
      ASSERT_EQ(chain.served_dumps.size(), served_at_one_thread.size());
      for (size_t i = 0; i < served_at_one_thread.size(); ++i) {
        EXPECT_EQ(chain.served_dumps[i], served_at_one_thread[i]) << "refresh " << i + 1;
      }
    }
  }
}

TEST_F(IncrementalRefreshTest, NoOpRefreshKeepsTheDerivedSnapshot) {
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("noop", 2, 2, &chain));
  AppendRange(chain, stream(), 0, 200, 100);
  const auto derived = chain.catalog->Current();
  ASSERT_TRUE(RanDeltaPath(*derived));
  for (int i = 0; i < 3; ++i) {
    auto refreshed = chain.catalog->Refresh();
    ASSERT_TRUE(refreshed.ok());
    EXPECT_FALSE(*refreshed);
    EXPECT_EQ(chain.catalog->Current().get(), derived.get());
  }
}

TEST_F(IncrementalRefreshTest, DerivedSnapshotsShareTheBaseAndCountEveryRow) {
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("share", 4, 2, &chain));
  const auto opened = chain.catalog->Current();
  const size_t history_rows = opened->num_rows();
  ASSERT_EQ(opened->runs().size(), 1u);
  size_t appended = 0;
  for (size_t off = 0; off < 1500; off += 500) {
    const std::vector<Tweet> batch(stream().begin() + off, stream().begin() + off + 500);
    AppendAndCheck(chain, batch);
    appended += batch.size();
    const auto derived = chain.catalog->Current();
    // One in-memory copy of the history: every derived snapshot shares
    // the opened snapshot's run and per-scale context; the newer runs
    // hold every row since.
    EXPECT_EQ(derived->runs().front().get(), opened->runs().front().get());
    EXPECT_EQ(derived->scales().get(), opened->scales().get());
    EXPECT_EQ(derived->num_rows(), history_rows + appended);
    const core::StageRecord* delta = derived->result().trace.Find("delta");
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(delta->Counter("rows"), 500);
    EXPECT_EQ(delta->Counter("overlay_rows"), static_cast<int64_t>(appended));
    EXPECT_EQ(delta->Counter("runs"), static_cast<int64_t>(derived->runs().size()));
    EXPECT_GT(delta->Counter("touched_users"), 0);
    // The trace reads: the delta files read, the delta stage, the fits.
    const std::vector<core::StageRecord>& stages = derived->result().trace.stages();
    ASSERT_FALSE(stages.empty());
    EXPECT_EQ(stages.front().name, "recover");
    EXPECT_EQ(stages.front().Counter("rows_recovered"), 500);
    for (const core::StageRecord& r : stages) {
      EXPECT_TRUE(r.name == "recover" || r.name == "delta" || r.name.rfind("fit@", 0) == 0)
          << r.name;
    }
  }
  // A compaction moves every row into the next generation's shards. The
  // catalog already holds them, so it rebases: the runs are carried, not
  // rebuilt, and only the new batch is read.
  const auto before = chain.catalog->Current();
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 1500, stream().begin() + 1600),
                 Path::kRebase);
  const auto rebased = chain.catalog->Current();
  EXPECT_EQ(rebased->generation(), before->generation() + 1);
  EXPECT_EQ(rebased->runs().front().get(), opened->runs().front().get());
  EXPECT_EQ(rebased->scales().get(), opened->scales().get());
  EXPECT_EQ(rebased->num_rows(), history_rows + appended + 100);
  const core::StageRecord* rebase = rebased->result().trace.Find("rebase");
  ASSERT_NE(rebase, nullptr);
  EXPECT_EQ(rebase->Counter("carried_rows"), static_cast<int64_t>(history_rows + appended));
  EXPECT_EQ(rebase->Counter("merged_rows"), static_cast<int64_t>(history_rows + appended));
  EXPECT_EQ(rebase->Counter("runs"), static_cast<int64_t>(before->runs().size()));
  const core::StageRecord* recover = rebased->result().trace.Find("recover");
  ASSERT_NE(recover, nullptr);
  EXPECT_EQ(recover->Counter("rows_recovered"), 100);
}

TEST_F(IncrementalRefreshTest, RefreshAfterACompactionAloneRebases) {
  // No delta since the compaction: the rebase carries the installed runs
  // and results onto the new generation and reads no file at all.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("compaction_alone", 4, 2, &chain));
  AppendRange(chain, stream(), 0, 600, 300);
  const auto before = chain.catalog->Current();
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  ASSERT_NO_FATAL_FAILURE(RefreshAndCheck(chain, Path::kRebase));
  const auto rebased = chain.catalog->Current();
  EXPECT_EQ(rebased->runs(), before->runs());
  EXPECT_EQ(rebased->result().trace.Find("delta")->Counter("rows"), 0);
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 600, stream().begin() + 900));
}

TEST_F(IncrementalRefreshTest, RewriteTakesTheFullPath) {
  // A WriteDatasetFiles rewrite names no source generation: whatever its
  // rows, the catalog re-reads them.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("rewrite", 4, 2, &chain));
  AppendRange(chain, stream(), 0, 400, 200);
  auto rows = tweetdb::ReadDatasetFiles(chain.path);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(*rows, chain.path).ok());
  auto manifest = PeekManifest(*tweetdb::Env::Default(), chain.path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_EQ(manifest->compacted_from, 0u);
  ASSERT_NO_FATAL_FAILURE(RefreshAndCheck(chain, Path::kFull));
  // A writer reopened on the rewrite appends on the delta path again.
  auto writer = tweetdb::IngestWriter::Open(chain.path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  chain.writer = std::move(*writer);
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 400, stream().begin() + 600));
}

TEST_F(IncrementalRefreshTest, CatalogBehindACompactionTakesTheFullPath) {
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("behind", 4, 2, &chain));
  AppendRange(chain, stream(), 0, 300, 300);
  // The compaction merges a delta the catalog never read.
  ASSERT_TRUE(chain.writer->AppendBatch(
      std::vector<Tweet>(stream().begin() + 300, stream().begin() + 500)).ok());
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 500, stream().begin() + 600),
                 Path::kFull);
  // Two compactions between refreshes: the newest names a generation the
  // catalog never served.
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  ASSERT_TRUE(chain.writer->AppendBatch(
      std::vector<Tweet>(stream().begin() + 600, stream().begin() + 700)).ok());
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  ASSERT_NO_FATAL_FAILURE(RefreshAndCheck(chain, Path::kFull));
  // Caught up, the next compaction rebases again.
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 700, stream().begin() + 800));
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  ASSERT_NO_FATAL_FAILURE(RefreshAndCheck(chain, Path::kRebase));
}

TEST_F(IncrementalRefreshTest, SalvageCatalogTakesTheFullPathAfterACompaction) {
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("salvage", 4, 2, &chain, SIZE_MAX,
                                     tweetdb::RecoveryPolicy::kSalvage));
  ASSERT_TRUE(chain.writer->AppendBatch(
      std::vector<Tweet>(stream().begin(), stream().begin() + 300)).ok());
  ASSERT_NO_FATAL_FAILURE(RefreshAndCheck(chain, Path::kFull));
  ASSERT_NO_FATAL_FAILURE(Compact(chain));
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 300, stream().begin() + 400),
                 Path::kFull);
}

TEST_F(IncrementalRefreshTest, RunCountStaysLogarithmicInTheBatches) {
  // A small history, so the runs outgrow it and merge into it, and batch
  // sizes that rise and fall: after N batches at most floor(log2 N) + 2
  // runs remain, and every refresh still equals a from-scratch open.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("runs", 4, 2, &chain, /*history_rows=*/4000));
  random::Xoshiro256 rng(17);
  size_t off = 0;
  size_t max_runs = 0;
  bool merged_into_oldest = false;
  for (size_t n = 1; n <= 48; ++n) {
    const size_t rows = n % 5 == 0 ? 1 : 1 + rng.NextUint64(300);
    if (n % 16 == 0) {
      ASSERT_NO_FATAL_FAILURE(Compact(chain));
    }
    AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + off, stream().begin() + off + rows),
                   n % 16 == 0 ? Path::kRebase : Path::kDelta);
    if (HasFatalFailure()) return;
    off += rows;
    const auto served = chain.catalog->Current();
    const size_t bound = static_cast<size_t>(std::floor(std::log2(n))) + 2;
    EXPECT_LE(served->runs().size(), bound) << "after " << n << " batches";
    max_runs = std::max(max_runs, served->runs().size());
    merged_into_oldest |= served->runs().front()->rows.num_rows() > 4000;
  }
  EXPECT_GE(max_runs, 3u);
  EXPECT_TRUE(merged_into_oldest);
}

TEST_F(IncrementalRefreshTest, RejectedAppendLeavesTheServedSnapshot) {
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("rejected", 2, 2, &chain));
  AppendRange(chain, stream(), 0, 100, 100);
  const auto derived = chain.catalog->Current();
  std::vector<Tweet> batch(stream().begin() + 100, stream().begin() + 110);
  batch.push_back(Tweet{1, -5, geo::LatLon{-33.0, 151.0}});  // negative time
  EXPECT_FALSE(chain.writer->AppendBatch(batch).ok());
  auto refreshed = chain.catalog->Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_FALSE(*refreshed);
  EXPECT_EQ(chain.catalog->Current().get(), derived.get());
  AppendRange(chain, stream(), 100, 200, 100);
}

}  // namespace
}  // namespace twimob::serve
