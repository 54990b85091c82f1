// The delta path of SnapshotCatalog::Refresh against from-scratch opens.
// An IngestWriter appends a seeded corpus onto committed history in
// single-row, prime-sized, shuffled and whole-stream batches, at 1, 4 and
// 16 shards and 1 and 4 threads, with compactions mid-chain. After every
// Refresh the served snapshot must equal SnapshotCatalog::Open of the same
// path bitwise — population, mobility, models, serving tables, the
// RecoveryReport and population queries at seeded centres and radii (an
// empty disc included) — and its trace must name the path that ran: the
// delta path for deltas on the installed generation, the full path after a
// compaction.

#include <algorithm>
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

  /// Commits the history at `path` in `shards` time shards and opens a
  /// writer and a catalog (`threads` workers) on it.
  static void StartChain(const std::string& name, size_t shards, size_t threads,
                         Chain* chain) {
    const core::PipelineConfig config = ChainConfig();
    chain->path = testing::TempDir() + "/twimob_incremental_" + name + ".twdb";
    std::remove(chain->path.c_str());
    tweetdb::TweetDataset history(tweetdb::PartitionSpec::ForWindow(
        config.corpus.window_start, config.corpus.window_end, shards));
    ASSERT_TRUE(history.AppendBatch(*history_).ok());
    history.SealAll();
    ASSERT_TRUE(tweetdb::WriteDatasetFiles(history, chain->path).ok());
    auto writer = tweetdb::IngestWriter::Open(chain->path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    chain->writer = std::move(*writer);
    chain->options.analysis = config;
    chain->options.num_threads = threads;
    auto catalog = SnapshotCatalog::Open(chain->path, chain->options);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    chain->catalog = std::move(*catalog);
    EXPECT_FALSE(RanDeltaPath(*chain->catalog->Current()));
  }

  /// Appends `batch`, refreshes, and checks the served snapshot against a
  /// from-scratch open of the same path and the path its trace names.
  static void AppendAndCheck(Chain& chain, const std::vector<Tweet>& batch,
                             bool expect_delta) {
    ASSERT_TRUE(chain.writer->AppendBatch(batch).ok());
    auto refreshed = chain.catalog->Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status();
    ASSERT_TRUE(*refreshed);
    const std::string where = chain.path + ", refresh " + std::to_string(++chain.refreshes);
    const auto served = chain.catalog->Current();
    EXPECT_EQ(RanDeltaPath(*served), expect_delta) << where;
    auto fresh = SnapshotCatalog::Open(chain.path, chain.options);
    ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status();
    const auto reference = (*fresh)->Current();
    EXPECT_FALSE(RanDeltaPath(*reference)) << where;
    chain.served_dumps.push_back(DumpSnapshot(served, *probes_));
    EXPECT_EQ(chain.served_dumps.back(), DumpSnapshot(reference, *probes_)) << where;
  }

  /// Appends rows [begin, end) of `rows` in batches of `batch_rows`,
  /// checking after each; the first refresh follows `full_first` (a
  /// compaction) on the full path.
  static void AppendRange(Chain& chain, const std::vector<Tweet>& rows, size_t begin,
                          size_t end, size_t batch_rows, bool full_first = false) {
    for (size_t off = begin; off < end; off += batch_rows) {
      const std::vector<Tweet> batch(rows.begin() + off,
                                     rows.begin() + std::min(end, off + batch_rows));
      AppendAndCheck(chain, batch, !(full_first && off == begin));
      if (testing::Test::HasFatalFailure()) return;
    }
  }

  /// The mixed chain: single rows, a prime-sized batch, a compaction, then
  /// shuffled and in-order batches on the next generation.
  static void RunSweep(const std::string& name, size_t shards, size_t threads,
                       Chain* chain) {
    ASSERT_NO_FATAL_FAILURE(StartChain("sweep_" + name, shards, threads, chain));
    const std::vector<Tweet> shuffled = Shuffled(stream(), shards * 10 + 1);
    AppendRange(*chain, stream(), 0, 3, 1);
    AppendRange(*chain, stream(), 3, 3 + 997, 997);
    if (testing::Test::HasFatalFailure()) return;
    // A compaction folds the overlay into the next generation's base: the
    // next refresh takes the full path, the ones after it the delta path.
    auto compacted = chain->writer->Compact();
    ASSERT_TRUE(compacted.ok() && *compacted);
    AppendRange(*chain, shuffled, 0, 2 * 500, 500, /*full_first=*/true);
    AppendRange(*chain, stream(), 1000, 1000 + 997, 997);
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
  // The whole stream in one delta: an overlay two thirds the base's size.
  Chain chain;
  ASSERT_NO_FATAL_FAILURE(StartChain("one_batch", 4, 4, &chain));
  AppendAndCheck(chain, stream(), true);
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
  // The same chain at 1 and 4 threads: every refresh equals a from-scratch
  // open at its own thread count, and the two serve bitwise-equal snapshots.
  for (const size_t shards : {1, 4, 16}) {
    std::vector<std::string> served_at_one_thread;
    for (const size_t threads : {1, 4}) {
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
  EXPECT_EQ(opened->overlay(), nullptr);
  size_t appended = 0;
  for (size_t off = 0; off < 1500; off += 500) {
    const std::vector<Tweet> batch(stream().begin() + off, stream().begin() + off + 500);
    AppendAndCheck(chain, batch, true);
    appended += batch.size();
    const auto derived = chain.catalog->Current();
    // One in-memory copy of the history: every derived snapshot shares
    // the opened snapshot's base; the overlay holds every row since.
    EXPECT_EQ(derived->base().get(), opened->base().get());
    ASSERT_NE(derived->overlay(), nullptr);
    EXPECT_EQ(derived->overlay()->rows.num_rows(), appended);
    EXPECT_EQ(derived->num_rows(), history_rows + appended);
    const core::StageRecord* delta = derived->result().trace.Find("delta");
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(delta->Counter("rows"), 500);
    EXPECT_EQ(delta->Counter("overlay_rows"), static_cast<int64_t>(appended));
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
  auto compacted = chain.writer->Compact();
  ASSERT_TRUE(compacted.ok() && *compacted);
  AppendAndCheck(chain, std::vector<Tweet>(stream().begin() + 1500, stream().begin() + 1600),
                 false);
  EXPECT_NE(chain.catalog->Current()->base().get(), opened->base().get());
  EXPECT_EQ(chain.catalog->Current()->overlay(), nullptr);
  EXPECT_EQ(chain.catalog->Current()->num_rows(), history_rows + appended + 100);
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
