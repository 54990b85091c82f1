// DeltaAccumulator's equivalence contract: after ingesting any slicing of a
// corpus into batches — in any row order — Refresh() is bitwise-identical
// to a from-scratch AnalysisSnapshot::Build over the merged corpus, at
// every shard count the rebuild might use. Doubles are compared by bit
// pattern, not tolerance.

#include "core/delta_accumulator.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_snapshot.h"
#include "random/rng.h"
#include "tweetdb/tweet.h"

namespace twimob::core {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_EQ(Bits(a), Bits(b)) << #a " = " << (a) << " vs " #b " = " << (b)

void ExpectSameCorrelation(const stats::CorrelationResult& a,
                           const stats::CorrelationResult& b) {
  EXPECT_SAME_BITS(a.r, b.r);
  EXPECT_SAME_BITS(a.t_stat, b.t_stat);
  EXPECT_SAME_BITS(a.p_value, b.p_value);
  EXPECT_EQ(a.n, b.n);
}

void ExpectSamePopulation(const std::vector<PopulationEstimateResult>& got,
                          const std::vector<PopulationEstimateResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t s = 0; s < got.size(); ++s) {
    SCOPED_TRACE(want[s].scale_name);
    EXPECT_EQ(got[s].scale_name, want[s].scale_name);
    EXPECT_SAME_BITS(got[s].radius_m, want[s].radius_m);
    EXPECT_SAME_BITS(got[s].rescale_factor, want[s].rescale_factor);
    EXPECT_SAME_BITS(got[s].median_users, want[s].median_users);
    ExpectSameCorrelation(got[s].correlation, want[s].correlation);
    ASSERT_EQ(got[s].areas.size(), want[s].areas.size());
    for (size_t i = 0; i < got[s].areas.size(); ++i) {
      const AreaPopulationEstimate& ga = got[s].areas[i];
      const AreaPopulationEstimate& wa = want[s].areas[i];
      EXPECT_EQ(ga.area_id, wa.area_id);
      EXPECT_EQ(ga.name, wa.name);
      EXPECT_EQ(ga.tweet_count, wa.tweet_count);
      EXPECT_EQ(ga.unique_users, wa.unique_users);
      EXPECT_SAME_BITS(ga.census_population, wa.census_population);
      EXPECT_SAME_BITS(ga.rescaled_estimate, wa.rescaled_estimate);
    }
  }
}

void ExpectSameMobility(const std::vector<ScaleMobilityResult>& got,
                        const std::vector<ScaleMobilityResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t s = 0; s < got.size(); ++s) {
    SCOPED_TRACE(want[s].scale_name);
    EXPECT_EQ(got[s].scale_name, want[s].scale_name);
    EXPECT_SAME_BITS(got[s].radius_m, want[s].radius_m);
    EXPECT_EQ(got[s].extraction.tweets_seen, want[s].extraction.tweets_seen);
    EXPECT_EQ(got[s].extraction.tweets_in_some_area,
              want[s].extraction.tweets_in_some_area);
    EXPECT_EQ(got[s].extraction.consecutive_pairs,
              want[s].extraction.consecutive_pairs);
    EXPECT_EQ(got[s].extraction.inter_area_trips,
              want[s].extraction.inter_area_trips);
    EXPECT_EQ(got[s].extraction.intra_area_pairs,
              want[s].extraction.intra_area_pairs);
    EXPECT_EQ(got[s].extraction.gap_filtered_pairs,
              want[s].extraction.gap_filtered_pairs);
    ASSERT_EQ(got[s].observations.size(), want[s].observations.size());
    for (size_t i = 0; i < got[s].observations.size(); ++i) {
      const mobility::FlowObservation& go = got[s].observations[i];
      const mobility::FlowObservation& wo = want[s].observations[i];
      EXPECT_EQ(go.src, wo.src);
      EXPECT_EQ(go.dst, wo.dst);
      EXPECT_SAME_BITS(go.m, wo.m);
      EXPECT_SAME_BITS(go.n, wo.n);
      EXPECT_SAME_BITS(go.d_meters, wo.d_meters);
      EXPECT_SAME_BITS(go.flow, wo.flow);
    }
    ASSERT_EQ(got[s].models.size(), want[s].models.size());
    for (size_t m = 0; m < got[s].models.size(); ++m) {
      const ModelSummary& gm = got[s].models[m];
      const ModelSummary& wm = want[s].models[m];
      SCOPED_TRACE(wm.model_name);
      EXPECT_EQ(gm.model_name, wm.model_name);
      EXPECT_SAME_BITS(gm.log10_c, wm.log10_c);
      EXPECT_SAME_BITS(gm.alpha, wm.alpha);
      EXPECT_SAME_BITS(gm.beta, wm.beta);
      EXPECT_SAME_BITS(gm.gamma, wm.gamma);
      EXPECT_SAME_BITS(gm.metrics.pearson_r, wm.metrics.pearson_r);
      EXPECT_SAME_BITS(gm.metrics.hit_rate, wm.metrics.hit_rate);
      EXPECT_SAME_BITS(gm.metrics.rmsle, wm.metrics.rmsle);
      EXPECT_SAME_BITS(gm.metrics.log_pearson_r, wm.metrics.log_pearson_r);
      EXPECT_EQ(gm.metrics.n, wm.metrics.n);
      ASSERT_EQ(gm.estimated.size(), wm.estimated.size());
      for (size_t i = 0; i < gm.estimated.size(); ++i) {
        EXPECT_SAME_BITS(gm.estimated[i], wm.estimated[i]);
      }
    }
  }
}

void ExpectMatchesReference(const IncrementalAnalysis& got,
                            const PipelineResult& want) {
  ExpectSamePopulation(got.population, want.population);
  ExpectSameCorrelation(got.pooled_population_correlation,
                        want.pooled_population_correlation);
  ExpectSameMobility(got.mobility, want.mobility);
}

/// One reduced-size from-scratch build shared by every test: the corpus
/// rows (already storage-quantised by the dataset round-trip) and the
/// reference analysis they produce.
class DeltaAccumulatorTest : public ::testing::Test {
 protected:
  static PipelineConfig Config(size_t num_shards) {
    PipelineConfig config;
    config.corpus.num_users = 20000;
    config.corpus.seed = 11;
    config.num_shards = num_shards;
    return config;
  }

  static void SetUpTestSuite() {
    auto snapshot = AnalysisSnapshot::Build(Config(1));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    rows_ = new std::vector<tweetdb::Tweet>();
    snapshot->dataset().ForEachRow(
        [](const tweetdb::Tweet& t) { rows_->push_back(t); });
    reference_ = new PipelineResult(snapshot->result());
  }
  static void TearDownTestSuite() {
    delete rows_;
    delete reference_;
    rows_ = nullptr;
    reference_ = nullptr;
  }

  static const std::vector<tweetdb::Tweet>& rows() { return *rows_; }
  static const PipelineResult& reference() { return *reference_; }

  /// Ingests `all` sliced into `batch_size` chunks and refreshes.
  static IncrementalAnalysis IngestAndRefresh(
      const std::vector<tweetdb::Tweet>& all, size_t batch_size) {
    auto acc = DeltaAccumulator::Create(Config(1));
    EXPECT_TRUE(acc.ok()) << acc.status();
    for (size_t off = 0; off < all.size(); off += batch_size) {
      const size_t end = std::min(all.size(), off + batch_size);
      EXPECT_TRUE(
          acc->Ingest(std::vector<tweetdb::Tweet>(all.begin() + off,
                                                  all.begin() + end))
              .ok());
    }
    auto analysis = acc->Refresh();
    EXPECT_TRUE(analysis.ok()) << analysis.status();
    return std::move(*analysis);
  }

 private:
  static std::vector<tweetdb::Tweet>* rows_;
  static PipelineResult* reference_;
};

std::vector<tweetdb::Tweet>* DeltaAccumulatorTest::rows_ = nullptr;
PipelineResult* DeltaAccumulatorTest::reference_ = nullptr;

TEST_F(DeltaAccumulatorTest, SingleBatchMatchesFromScratchBuild) {
  ExpectMatchesReference(IngestAndRefresh(rows(), rows().size()), reference());
}

TEST_F(DeltaAccumulatorTest, ManySmallBatchesMatchFromScratchBuild) {
  // A prime batch size leaves a ragged tail and splits most users'
  // sequences across many replays.
  ExpectMatchesReference(IngestAndRefresh(rows(), 997), reference());
}

TEST_F(DeltaAccumulatorTest, ShuffledRowOrderMatchesFromScratchBuild) {
  // Batch contents are arbitrary: a deterministic Fisher-Yates shuffle
  // interleaves every user across every batch, so each batch replays
  // almost every touched user's merged sequence.
  std::vector<tweetdb::Tweet> shuffled = rows();
  random::Xoshiro256 rng(99);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextUint64(i)]);
  }
  ExpectMatchesReference(IngestAndRefresh(shuffled, 5000), reference());
}

TEST_F(DeltaAccumulatorTest, MatchesRebuildAtEveryShardCount) {
  // The rebuild side is shard-count invariant; the incremental side must
  // match it no matter how the merged corpus would be partitioned.
  auto sharded = AnalysisSnapshot::Build(Config(4));
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ExpectMatchesReference(IngestAndRefresh(rows(), 3000), sharded->result());
}

TEST_F(DeltaAccumulatorTest, RepeatedRefreshIsIdempotent) {
  auto acc = DeltaAccumulator::Create(Config(1));
  ASSERT_TRUE(acc.ok());
  ASSERT_TRUE(acc->Ingest(rows()).ok());
  auto first = acc->Refresh();
  ASSERT_TRUE(first.ok());
  auto second = acc->Refresh();
  ASSERT_TRUE(second.ok());
  ExpectMatchesReference(*first, reference());
  ExpectMatchesReference(*second, reference());
}

TEST_F(DeltaAccumulatorTest, CountsTrackTheIngestedCorpus) {
  auto acc = DeltaAccumulator::Create(Config(1));
  ASSERT_TRUE(acc.ok());
  ASSERT_TRUE(acc->Ingest(rows()).ok());
  EXPECT_EQ(acc->num_rows(), rows().size());
  std::unordered_set<uint64_t> users;
  for (const tweetdb::Tweet& t : rows()) users.insert(t.user_id);
  EXPECT_EQ(acc->num_users(), users.size());
  ASSERT_EQ(acc->specs().size(), 3u);
  EXPECT_EQ(acc->specs()[0].name, "National");
}

TEST_F(DeltaAccumulatorTest, RefreshIsThreadCountInvariant) {
  auto acc = DeltaAccumulator::Create(Config(1));
  ASSERT_TRUE(acc.ok());
  ASSERT_TRUE(acc->Ingest(rows()).ok());
  AnalysisContext one(1);
  auto serial = acc->Refresh(&one);
  ASSERT_TRUE(serial.ok());
  AnalysisContext four(4);
  auto parallel = acc->Refresh(&four);
  ASSERT_TRUE(parallel.ok());
  ExpectMatchesReference(*serial, reference());
  ExpectMatchesReference(*parallel, reference());
}

TEST_F(DeltaAccumulatorTest, InvalidRowIsRejected) {
  auto acc = DeltaAccumulator::Create(Config(1));
  ASSERT_TRUE(acc.ok());
  std::vector<tweetdb::Tweet> batch = {
      tweetdb::Tweet{1, -5, geo::LatLon{-33.0, 151.0}}};
  EXPECT_FALSE(acc->Ingest(batch).ok());
  EXPECT_EQ(acc->num_rows(), 0u);
}

}  // namespace
}  // namespace twimob::core
