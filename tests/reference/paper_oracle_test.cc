// The staged analysis against the brute-force paper oracle. Every corpus is
// stored at a random thread count (1-8), shard count (1-16) and block
// capacity, analysed by AnalysisSnapshot::Analyze, and compared bit for bit
// with reference::AnalyzeRows over the same stored rows. Beside seeded
// random corpora the sweep runs adversarial ones: points exactly at ε,
// points on the bisector of two centres, users whose runs span shards and
// blocks, and duplicate (user, time) rows. A second sweep drives the one
// trip extractor, the population index and AnalyzeScaleMobility on a
// custom scale built for exact ties and a max-gap option, and a third
// serves an adversarial append chain through the delta path of
// SnapshotCatalog::Refresh. When the two sides disagree the program is
// wrong, never the oracle. Last, the engine's determinism contract at
// scale: a 20k-user corpus answers alike at every thread and shard count.

#include "reference/paper_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/analysis_snapshot.h"
#include "core/population_estimator.h"
#include "core/stage_engine.h"
#include "geo/geodesic.h"
#include "random/rng.h"
#include "serve/snapshot_catalog.h"
#include "serve/snapshot_dump.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/ingest.h"

namespace twimob::reference {
namespace {

using tweetdb::Tweet;

constexpr int64_t kStart = 1400000000;
constexpr int64_t kWindow = 60 * 86400;

/// `p` moved onto the store's fixed-point grid, offset by whole grid steps.
geo::LatLon Quantised(const geo::LatLon& p, int dlat = 0, int dlon = 0) {
  return geo::LatLon{geo::FixedToDegrees(geo::DegreesToFixed(p.lat) + dlat),
                     geo::FixedToDegrees(geo::DegreesToFixed(p.lon) + dlon)};
}

// Results compare through serve/snapshot_dump.h's dumps: every compared
// field, doubles in exact hex notation, one record per line.

using serve::DumpResult;
using serve::DumpScale;
using serve::DumpStats;

std::string DumpTrips(const mobility::OdMatrix& od, const mobility::ExtractionStats& s) {
  std::string out = DumpStats(s);
  for (size_t i = 0; i < od.num_areas(); ++i) {
    for (size_t j = 0; j < od.num_areas(); ++j) {
      if (od.Flow(i, j) != 0.0) out += StrFormat("%zu->%zu %a\n", i, j, od.Flow(i, j));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Corpora.

struct Corpus {
  std::string name;
  std::vector<Tweet> rows;
  double metro_radius_override_m = 0.0;
};

/// Users wandering among the areas of one random paper scale each, at
/// random times in the window, within about ε of the centres they visit.
void AddRandomUsers(random::Xoshiro256& rng, size_t max_rows, uint64_t first_user,
                    std::vector<Tweet>* rows) {
  const std::vector<core::ScaleSpec> specs = core::PaperScales();
  for (uint64_t user = first_user; rows->size() < max_rows; ++user) {
    const core::ScaleSpec& spec = specs[rng.NextUint64(specs.size())];
    const size_t tweets = 1 + rng.NextUint64(25);
    for (size_t k = 0; k < tweets && rows->size() < max_rows; ++k) {
      const census::Area& area = spec.areas[rng.NextUint64(spec.areas.size())];
      const double dist = std::fabs(rng.NextGaussian()) * spec.radius_m * 0.8;
      rows->push_back(Tweet{
          user, kStart + static_cast<int64_t>(rng.NextUint64(kWindow)),
          geo::DestinationPoint(area.center, rng.NextUniform(0.0, 360.0), dist)});
    }
  }
}

/// Hands `points` to random users at random times.
void AddPointsAsUsers(random::Xoshiro256& rng, const std::vector<geo::LatLon>& points,
                      uint64_t first_user, size_t num_users, std::vector<Tweet>* rows) {
  for (const geo::LatLon& p : points) {
    rows->push_back(Tweet{first_user + rng.NextUint64(num_users),
                          kStart + static_cast<int64_t>(rng.NextUint64(kWindow)), p});
  }
}

Corpus RandomCorpus(uint64_t seed) {
  random::Xoshiro256 rng(seed);
  Corpus corpus{"random seed " + std::to_string(seed), {}, 0.0};
  AddRandomUsers(rng, 1500 + rng.NextUint64(3000), 1, &corpus.rows);
  return corpus;
}

/// Points on the fixed-point grid straddling ε around centres of every
/// scale, plus a metro radius chosen so one stored point is exactly at ε.
Corpus AtEpsilonCorpus() {
  random::Xoshiro256 rng(11);
  Corpus corpus{"points at epsilon", {}, 0.0};
  AddRandomUsers(rng, 1200, 1, &corpus.rows);

  const core::ScaleSpec metro = core::MakeScaleSpec(census::Scale::kMetropolitan);
  const geo::LatLon exact =
      Quantised(geo::DestinationPoint(metro.areas[0].center, 30.0, 2000.0));
  corpus.metro_radius_override_m = geo::HaversineMeters(metro.areas[0].center, exact);

  std::vector<geo::LatLon> points{exact};
  for (core::ScaleSpec spec : core::PaperScales()) {
    if (spec.scale == census::Scale::kMetropolitan) {
      spec.radius_m = corpus.metro_radius_override_m;
    }
    for (size_t a = 0; a < spec.areas.size(); a += 3) {
      for (const double bearing : {0.0, 90.0, 225.0}) {
        const geo::LatLon edge =
            geo::DestinationPoint(spec.areas[a].center, bearing, spec.radius_m);
        for (int dlat = -1; dlat <= 1; ++dlat) {
          for (int dlon = -1; dlon <= 1; ++dlon) {
            points.push_back(Quantised(edge, dlat, dlon));
          }
        }
      }
    }
  }
  AddPointsAsUsers(rng, points, 100000, 120, &corpus.rows);
  return corpus;
}

/// Points on the perpendicular bisector of pairs of metro centres, with a
/// metro radius wide enough that both centres reach them.
Corpus BisectorCorpus() {
  random::Xoshiro256 rng(13);
  Corpus corpus{"points between centres", {}, 6000.0};
  AddRandomUsers(rng, 1200, 1, &corpus.rows);
  const core::ScaleSpec metro = core::MakeScaleSpec(census::Scale::kMetropolitan);
  std::vector<geo::LatLon> points;
  for (size_t i = 0; i < metro.areas.size(); ++i) {
    for (size_t j = i + 1; j < metro.areas.size(); ++j) {
      const geo::LatLon a = metro.areas[i].center;
      const geo::LatLon b = metro.areas[j].center;
      if (geo::HaversineMeters(a, b) > 10000.0) continue;
      const geo::LatLon mid{(a.lat + b.lat) / 2.0, (a.lon + b.lon) / 2.0};
      for (int dlat = -1; dlat <= 1; ++dlat) {
        for (int dlon = -1; dlon <= 1; ++dlon) {
          points.push_back(Quantised(mid, dlat, dlon));
        }
      }
    }
  }
  AddPointsAsUsers(rng, points, 100000, 80, &corpus.rows);
  return corpus;
}

/// A few users with long runs over the whole window, so their rows cross
/// every shard and many blocks.
Corpus SpanningCorpus() {
  random::Xoshiro256 rng(17);
  Corpus corpus{"users spanning shards and blocks", {}, 0.0};
  AddRandomUsers(rng, 1000, 1, &corpus.rows);
  for (const core::ScaleSpec& spec : core::PaperScales()) {
    for (uint64_t u = 0; u < 3; ++u) {
      const uint64_t user = 200000 + u * 10 + static_cast<uint64_t>(spec.scale);
      for (size_t k = 0; k < 300; ++k) {
        const census::Area& area = spec.areas[rng.NextUint64(spec.areas.size())];
        corpus.rows.push_back(Tweet{
            user, kStart + static_cast<int64_t>(k * (kWindow / 300)),
            geo::DestinationPoint(area.center, rng.NextUniform(0.0, 360.0),
                                  rng.NextUniform(0.0, spec.radius_m))});
      }
    }
  }
  return corpus;
}

/// Exact duplicate rows, and rows sharing a (user, time) with an existing
/// row but landing in another area — their order is decided by position.
Corpus DuplicatesCorpus() {
  random::Xoshiro256 rng(19);
  Corpus corpus{"duplicate (user, time) rows", {}, 0.0};
  AddRandomUsers(rng, 2500, 1, &corpus.rows);
  const std::vector<core::ScaleSpec> specs = core::PaperScales();
  const size_t base = corpus.rows.size();
  for (size_t k = 0; k < 600; ++k) {
    Tweet t = corpus.rows[rng.NextUint64(base)];
    if (k % 2 == 1) {
      const core::ScaleSpec& spec = specs[rng.NextUint64(specs.size())];
      t.pos = spec.areas[rng.NextUint64(spec.areas.size())].center;
    }
    corpus.rows.push_back(t);
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// The staged analysis against the oracle.

struct Layout {
  size_t threads;
  size_t shards;
  size_t block_capacity;
};

tweetdb::TweetDataset Store(const std::vector<Tweet>& rows, const Layout& layout) {
  tweetdb::TweetDataset dataset(
      tweetdb::PartitionSpec::ForWindow(kStart, kStart + kWindow, layout.shards),
      layout.block_capacity);
  for (const Tweet& t : rows) EXPECT_TRUE(dataset.Append(t).ok());
  return dataset;
}

std::string Describe(const Corpus& corpus, const Layout& layout) {
  return corpus.name + " (" + std::to_string(layout.threads) + " threads, " +
         std::to_string(layout.shards) + " shards, blocks of " +
         std::to_string(layout.block_capacity) + ")";
}

void CheckAgainstOracle(const Corpus& corpus, uint64_t layout_seed) {
  ASSERT_LE(corpus.rows.size(), 5000u) << corpus.name;
  core::PipelineConfig config;
  config.metro_radius_override_m = corpus.metro_radius_override_m;
  const std::vector<core::ScaleSpec> specs = core::ResolveScaleSpecs(config);

  random::Xoshiro256 rng(layout_seed);
  const size_t kBlockCapacities[] = {3, 17, 256, tweetdb::kDefaultBlockCapacity};
  std::optional<core::PipelineResult> oracle;
  for (int trial = 0; trial < 2; ++trial) {
    const Layout layout{1 + rng.NextUint64(8), 1 + rng.NextUint64(16),
                        kBlockCapacities[rng.NextUint64(4)]};
    const std::string where = Describe(corpus, layout);
    tweetdb::TweetDataset dataset = Store(corpus.rows, layout);
    if (!oracle.has_value()) {
      auto reference = AnalyzeRows(StoredRows(dataset), specs);
      ASSERT_TRUE(reference.ok()) << where << ": " << reference.status();
      oracle = std::move(*reference);
    }
    core::AnalysisContext ctx(layout.threads);
    auto snapshot =
        core::AnalysisSnapshot::Analyze(std::move(dataset), config, {}, &ctx);
    ASSERT_TRUE(snapshot.ok()) << where << ": " << snapshot.status();
    EXPECT_EQ(DumpResult(*oracle), DumpResult(snapshot->result())) << where;
  }
}

class SeededCorpusTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCorpusTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_P(SeededCorpusTest, AnalysisMatchesOracle) {
  CheckAgainstOracle(RandomCorpus(GetParam()), 1000 + GetParam());
}

TEST(AdversarialCorpusTest, PointsAtEpsilonMatchOracle) {
  CheckAgainstOracle(AtEpsilonCorpus(), 21);
}

TEST(AdversarialCorpusTest, PointsBetweenCentresMatchOracle) {
  CheckAgainstOracle(BisectorCorpus(), 22);
}

TEST(AdversarialCorpusTest, UsersSpanningShardsAndBlocksMatchOracle) {
  CheckAgainstOracle(SpanningCorpus(), 23);
}

TEST(AdversarialCorpusTest, DuplicateUserTimeRowsMatchOracle) {
  CheckAgainstOracle(DuplicatesCorpus(), 24);
}

// ---------------------------------------------------------------------------
// The delta path. A live dataset takes an append chain whose deltas are
// adversarial for a snapshot derived from the installed one: a late row
// spliced into the middle of a user's stored sequence, rows exactly at ε,
// duplicate (user, time) rows, a brand-new user, and a user's new row in a
// shard that holds none of their stored rows. Every refresh must take the
// delta path and agree with the oracle over all committed rows.

TEST(IncrementalRefreshOracleTest, AdversarialDeltaChainMatchesOracle) {
  Corpus corpus = AtEpsilonCorpus();
  core::PipelineConfig config;
  config.metro_radius_override_m = corpus.metro_radius_override_m;
  const std::vector<core::ScaleSpec> specs = core::ResolveScaleSpecs(config);
  const Layout layout{3, 4, 17};
  const tweetdb::PartitionSpec partition =
      tweetdb::PartitionSpec::ForWindow(kStart, kStart + kWindow, layout.shards);

  const std::string path = testing::TempDir() + "/twimob_oracle_delta_chain.twdb";
  std::remove(path.c_str());
  tweetdb::TweetDataset stored = Store(corpus.rows, layout);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(stored, path).ok());
  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  serve::CatalogOptions options;
  options.analysis = config;
  options.num_threads = layout.threads;
  auto catalog = serve::SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  // Every user's stored rows in time order.
  std::map<uint64_t, std::vector<Tweet>> by_user;
  for (const Tweet& t : StoredRows(stored)) by_user[t.user_id].push_back(t);
  for (auto& [user, rows] : by_user) {
    std::sort(rows.begin(), rows.end(), tweetdb::UserTimeLess);
  }
  const core::ScaleSpec& metro = specs[2];
  const geo::LatLon at_epsilon =
      Quantised(geo::DestinationPoint(metro.areas[0].center, 30.0, 2000.0));
  ASSERT_EQ(geo::HaversineMeters(metro.areas[0].center, at_epsilon), metro.radius_m);
  const int64_t shard_width = kWindow / static_cast<int64_t>(layout.shards);

  std::vector<std::pair<std::string, std::vector<Tweet>>> deltas;
  {
    // A late row between two stored rows of one user in one shard.
    std::vector<Tweet> batch;
    for (const auto& [user, rows] : by_user) {
      for (size_t k = 0; k + 1 < rows.size() && batch.size() < 5; ++k) {
        if (rows[k + 1].timestamp - rows[k].timestamp < 2 ||
            partition.KeyForTime(rows[k].timestamp) !=
                partition.KeyForTime(rows[k + 1].timestamp)) {
          continue;
        }
        batch.push_back(Tweet{user, (rows[k].timestamp + rows[k + 1].timestamp) / 2,
                              specs[user % 3].areas[user % 20].center});
        break;
      }
    }
    deltas.emplace_back("late rows spliced into stored sequences", batch);
  }
  deltas.emplace_back("rows exactly at epsilon",
                      std::vector<Tweet>{Tweet{by_user.begin()->first, kStart + 77, at_epsilon},
                                         Tweet{424242, kStart + 78, at_epsilon},
                                         Tweet{424242, kStart + 79, metro.areas[1].center}});
  {
    // An exact duplicate and a same-(user, time) row elsewhere.
    const Tweet& copied = by_user.rbegin()->second.front();
    Tweet moved = copied;
    moved.pos = metro.areas[3].center;
    deltas.emplace_back("duplicate (user, time) rows", std::vector<Tweet>{copied, moved});
  }
  {
    std::vector<Tweet> batch;
    for (size_t k = 0; k < 12; ++k) {
      batch.push_back(Tweet{900001, kStart + static_cast<int64_t>(k) * (kWindow / 12),
                            specs[k % 3].areas[(5 * k) % 20].center});
    }
    deltas.emplace_back("a brand-new user across every shard", batch);
  }
  {
    // Users whose stored rows all sit in one shard get a row in another.
    std::vector<Tweet> batch;
    for (const auto& [user, rows] : by_user) {
      const int64_t key = partition.KeyForTime(rows.front().timestamp);
      if (partition.KeyForTime(rows.back().timestamp) != key || batch.size() == 6) continue;
      const int64_t other = (key + 2) % static_cast<int64_t>(layout.shards);
      batch.push_back(Tweet{user, kStart + other * shard_width + 5,
                            specs[0].areas[user % 20].center});
    }
    deltas.emplace_back("new rows in a shard the user had none in", batch);
  }

  for (const auto& [name, batch] : deltas) {
    ASSERT_FALSE(batch.empty()) << name;
    ASSERT_TRUE((*writer)->AppendBatch(batch).ok()) << name;
    auto refreshed = (*catalog)->Refresh();
    ASSERT_TRUE(refreshed.ok()) << name << ": " << refreshed.status();
    ASSERT_TRUE(*refreshed) << name;
    const auto served = (*catalog)->Current();
    EXPECT_TRUE(serve::RanDeltaPath(*served)) << name;

    auto committed = tweetdb::ReadDatasetFiles(path);
    ASSERT_TRUE(committed.ok()) << name;
    auto oracle = AnalyzeRows(StoredRows(*committed), specs);
    ASSERT_TRUE(oracle.ok()) << name << ": " << oracle.status();
    EXPECT_EQ(DumpResult(*oracle), DumpResult(served->result())) << name;
  }
}

// ---------------------------------------------------------------------------
// Trip work units. ExtractTrips cuts every shard at each block start and at
// every mobility::kTripUnitRows rows inside a block; the cut users split
// the user-id space into units. These corpora put user runs exactly on
// those cuts, stretch one user over many of them in every shard, hide
// users in the last shard only, and present blocks as empty, and check the
// one trip extractor against the oracle at random pool sizes.

/// `count` rows of `user` inside time shard `shard` of `shards`, each near
/// a random centre of a random paper scale.
void AddUserRows(random::Xoshiro256& rng, uint64_t user, size_t count, size_t shard,
                 size_t shards, std::vector<Tweet>* rows) {
  static const std::vector<core::ScaleSpec> specs = core::PaperScales();
  const int64_t width = (kWindow + static_cast<int64_t>(shards) - 1) /
                        static_cast<int64_t>(shards);
  for (size_t k = 0; k < count; ++k) {
    const core::ScaleSpec& spec = specs[rng.NextUint64(specs.size())];
    const census::Area& area = spec.areas[rng.NextUint64(spec.areas.size())];
    const double dist = std::fabs(rng.NextGaussian()) * spec.radius_m * 0.8;
    rows->push_back(Tweet{
        user,
        kStart + static_cast<int64_t>(shard) * width +
            static_cast<int64_t>(rng.NextUint64(static_cast<uint64_t>(width))),
        geo::DestinationPoint(area.center, rng.NextUniform(0.0, 360.0), dist)});
  }
}

/// The one trip extractor on `dataset` (compacted) at every paper scale
/// and three random pool sizes, against the oracle over its stored rows.
void CheckTripsOnDataset(const tweetdb::TweetDataset& dataset, const std::string& where,
                         uint64_t seed) {
  const std::vector<Tweet> stored = StoredRows(dataset);
  random::Xoshiro256 rng(seed);
  for (const core::ScaleSpec& spec : core::PaperScales()) {
    mobility::ExtractionStats want_stats;
    const mobility::OdMatrix want =
        CountTrips(stored, spec.areas, spec.radius_m, mobility::TripOptions{}, &want_stats);
    for (int trial = 0; trial < 3; ++trial) {
      const size_t threads = 1 + rng.NextUint64(8);
      ThreadPool pool(threads);
      mobility::ExtractionStats got_stats;
      auto got = mobility::ExtractTrips(dataset, spec.areas, spec.radius_m, pool,
                                        &got_stats);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status();
      EXPECT_EQ(DumpTrips(want, want_stats), DumpTrips(*got, got_stats))
          << where << ", " << spec.name << ", " << threads << " threads";
    }
  }
}

/// Stores `rows` in `shards` time shards with blocks of `block_capacity`,
/// compacts, checks the layout with `check_layout`, then the trips.
template <typename LayoutCheck>
void CheckTripUnits(const std::vector<Tweet>& rows, size_t shards, size_t block_capacity,
                    const std::string& name, uint64_t seed, LayoutCheck&& check_layout) {
  tweetdb::TweetDataset dataset = Store(rows, Layout{1, shards, block_capacity});
  dataset.CompactShards();
  ASSERT_EQ(dataset.num_shards(), shards) << name;
  const std::string where = name + " (" + std::to_string(shards) + " shards, blocks of " +
                            std::to_string(block_capacity) + ")";
  check_layout(dataset, where);
  CheckTripsOnDataset(dataset, where, seed);
}

/// Fillers 1..64, then user 1000 starting at row `first_row` of every shard
/// (the fillers take exactly `first_row` rows), then ten trailing users.
std::vector<Tweet> BoundaryRows(size_t shards, size_t first_row, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  std::vector<Tweet> rows;
  for (size_t s = 0; s < shards; ++s) {
    for (uint64_t user = 1; user <= 64; ++user) {
      const size_t count = first_row / 64 + (user <= first_row % 64 ? 1 : 0);
      AddUserRows(rng, user, count, s, shards, &rows);
    }
    AddUserRows(rng, 1000, 64, s, shards, &rows);
    for (uint64_t user = 1001; user <= 1010; ++user) {
      AddUserRows(rng, user, 10, s, shards, &rows);
    }
  }
  return rows;
}

/// The user at row `row` of every shard of `dataset` (blocks concatenated).
void ExpectUserAtRow(const tweetdb::TweetDataset& dataset, size_t row, uint64_t user,
                     const std::string& where) {
  for (size_t s = 0; s < dataset.num_shards(); ++s) {
    const tweetdb::TweetTable& table = dataset.shard(s);
    const size_t capacity = table.block(0).num_rows();
    ASSERT_LT(row / capacity, table.num_blocks()) << where;
    EXPECT_EQ(table.block(row / capacity).user_ids()[row % capacity], user)
        << where << ", shard " << s;
  }
}

TEST(TripUnitTest, RunStartingOnAUnitBoundaryMatchesOracle) {
  const size_t boundary = mobility::kTripUnitRows;
  for (const size_t shards : {1, 3}) {
    for (const size_t capacity : {tweetdb::kDefaultBlockCapacity, boundary / 2}) {
      CheckTripUnits(BoundaryRows(shards, boundary, 41), shards, capacity,
                     "run starting on a unit boundary", 42,
                     [&](const tweetdb::TweetDataset& dataset, const std::string& where) {
                       ExpectUserAtRow(dataset, boundary - 1, 64, where);
                       ExpectUserAtRow(dataset, boundary, 1000, where);
                     });
    }
  }
}

TEST(TripUnitTest, RunEndingOnAUnitBoundaryMatchesOracle) {
  const size_t boundary = mobility::kTripUnitRows;
  for (const size_t shards : {1, 3}) {
    for (const size_t capacity : {tweetdb::kDefaultBlockCapacity, boundary / 2}) {
      CheckTripUnits(BoundaryRows(shards, boundary - 64, 43), shards, capacity,
                     "run ending on a unit boundary", 44,
                     [&](const tweetdb::TweetDataset& dataset, const std::string& where) {
                       ExpectUserAtRow(dataset, boundary - 1, 1000, where);
                       ExpectUserAtRow(dataset, boundary, 1001, where);
                     });
    }
  }
}

TEST(TripUnitTest, HeavyUserSpanningUnitsInEveryShardMatchesOracle) {
  // User 500's run covers several cut rows (stride and block starts) in
  // every shard: those cuts all name user 500, so the whole cross-shard
  // run stays one unit's work, bounded by its neighbours' cuts.
  random::Xoshiro256 rng(45);
  const size_t shards = 3;
  const size_t heavy_rows = 2 * mobility::kTripUnitRows + 700;
  std::vector<Tweet> rows;
  for (size_t s = 0; s < shards; ++s) {
    for (uint64_t user = 1; user <= 30; ++user) AddUserRows(rng, user, 17, s, shards, &rows);
    AddUserRows(rng, 500, heavy_rows, s, shards, &rows);
    for (uint64_t user = 501; user <= 530; ++user) {
      AddUserRows(rng, user, 13, s, shards, &rows);
    }
  }
  for (const size_t capacity : {tweetdb::kDefaultBlockCapacity, size_t{256}}) {
    CheckTripUnits(rows, shards, capacity, "heavy user spanning units", 46,
                   [&](const tweetdb::TweetDataset& dataset, const std::string& where) {
                     ExpectUserAtRow(dataset, 30 * 17, 500, where);
                     ExpectUserAtRow(dataset, 30 * 17 + heavy_rows - 1, 500, where);
                   });
  }
}

TEST(TripUnitTest, UsersOnlyInTheLastShardMatchOracle) {
  random::Xoshiro256 rng(47);
  const size_t shards = 4;
  std::vector<Tweet> rows;
  for (uint64_t user = 1; user <= 400; ++user) {
    if (user % 5 == 0 || user <= 3 || user > 390) {
      AddUserRows(rng, user, 1 + rng.NextUint64(30), shards - 1, shards, &rows);
      continue;
    }
    for (size_t s = 0; s < shards; ++s) {
      AddUserRows(rng, user, rng.NextUint64(6), s, shards, &rows);
    }
  }
  for (const size_t capacity : {tweetdb::kDefaultBlockCapacity, size_t{17}}) {
    CheckTripUnits(rows, shards, capacity, "users only in the last shard", 48,
                   [](const tweetdb::TweetDataset&, const std::string&) {});
  }
}

// ---------------------------------------------------------------------------
// A custom scale built for exact ties: the west/east centres mirror about
// the 150°E meridian, so every stored point on it is bitwise equidistant
// from both; the north/south centres mirror about (33.5°S, 150°E), which
// ties all four. Radii equal to the distances of that point put it exactly
// at ε of two centres at once.

core::ScaleSpec TieScale(double radius_m) {
  core::ScaleSpec spec;
  spec.name = "Ties";
  spec.radius_m = radius_m;
  const geo::LatLon centres[] = {{-33.5, 149.75}, {-33.5, 150.25}, {-34.0, 150.0},
                                 {-33.0, 150.0},  {-37.8, 145.0}};
  for (uint32_t i = 0; i < 5; ++i) {
    spec.areas.push_back(census::Area{i, "tie" + std::to_string(i), centres[i],
                                      1000.0 * (i + 1)});
  }
  return spec;
}

std::vector<Tweet> TieRows(uint64_t seed) {
  random::Xoshiro256 rng(seed);
  std::vector<geo::LatLon> points{{-33.5, 150.0}};
  for (int k = -40; k <= 40; ++k) {
    points.push_back({-33.5 + 0.0125 * k, 150.0});  // west/east ties
    points.push_back({-33.5, 150.0 + 0.0125 * k});
  }
  for (int k = 0; k < 40; ++k) {
    points.push_back(geo::DestinationPoint({-37.8, 145.0}, rng.NextUniform(0.0, 360.0),
                                           rng.NextUniform(0.0, 20000.0)));
  }
  std::vector<Tweet> rows;
  AddPointsAsUsers(rng, points, 1, 25, &rows);
  AddPointsAsUsers(rng, points, 1, 25, &rows);
  // Short hops too, so a max-gap cap has pairs on both sides of it.
  for (size_t k = 0; k + 1 < rows.size(); k += 7) {
    rows.push_back(Tweet{rows[k].user_id, rows[k].timestamp + 1800, rows[k + 1].pos});
  }
  return rows;
}

TEST(ExactTieTest, ExtractorIndexAndScaleAnalysisMatchOracle) {
  const geo::LatLon tie{-33.5, 150.0};
  const double west_east = geo::HaversineMeters(tie, geo::LatLon{-33.5, 149.75});
  const double north_south = geo::HaversineMeters(tie, geo::LatLon{-34.0, 150.0});
  ASSERT_EQ(west_east, geo::HaversineMeters(tie, geo::LatLon{-33.5, 150.25}));
  ASSERT_EQ(north_south, geo::HaversineMeters(tie, geo::LatLon{-33.0, 150.0}));

  random::Xoshiro256 rng(31);
  const std::vector<Tweet> rows = TieRows(37);
  ASSERT_LE(rows.size(), 5000u);
  for (const double radius : {west_east, north_south, 30000.0}) {
    const core::ScaleSpec spec = TieScale(radius);
    for (int trial = 0; trial < 2; ++trial) {
      const Layout layout{1 + rng.NextUint64(8), 1 + rng.NextUint64(16),
                          static_cast<size_t>(2 + rng.NextUint64(40))};
      const std::string where =
          "radius " + std::to_string(radius) + ", " + Describe({"ties", {}, 0.0}, layout);
      tweetdb::TweetDataset dataset = Store(rows, layout);
      const std::vector<Tweet> stored = StoredRows(dataset);
      dataset.CompactShards();
      ThreadPool pool(layout.threads);

      const PopulationCounts counts = CountPopulation(stored, spec.areas, radius);
      auto estimator = core::PopulationEstimator::Build(dataset, &pool);
      ASSERT_TRUE(estimator.ok()) << where;
      for (size_t i = 0; i < spec.areas.size(); ++i) {
        EXPECT_EQ(counts.unique_users[i],
                  estimator->CountUniqueUsers(spec.areas[i].center, radius))
            << where << " area " << i;
        EXPECT_EQ(counts.tweets[i], estimator->CountTweets(spec.areas[i].center, radius))
            << where << " area " << i;
      }

      for (const int64_t max_gap : {int64_t{0}, int64_t{3600}, int64_t{86400}}) {
        mobility::TripOptions options;
        options.max_gap_seconds = max_gap;
        mobility::ExtractionStats want_stats, got_stats;
        const mobility::OdMatrix want =
            CountTrips(stored, spec.areas, radius, options, &want_stats);
        auto got = mobility::ExtractTrips(dataset, spec.areas, radius, pool,
                                          &got_stats, options);
        ASSERT_TRUE(got.ok()) << where;
        EXPECT_EQ(DumpTrips(want, want_stats), DumpTrips(*got, got_stats))
            << where << ", max gap " << max_gap;
      }

      mobility::ExtractionStats extraction;
      const mobility::OdMatrix od =
          CountTrips(stored, spec.areas, radius, mobility::TripOptions{}, &extraction);
      auto want = FitScale(spec, od, extraction, counts);
      auto got = core::AnalyzeScaleMobility(dataset, spec, *estimator, pool);
      ASSERT_TRUE(want.ok()) << where << ": " << want.status();
      ASSERT_TRUE(got.ok()) << where << ": " << got.status();
      EXPECT_EQ(DumpScale(*want), DumpScale(*got)) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism at scale: the synthetic corpus of 20,000 users (seed
// 20150413) is analysed as one table on 1 and on 4 threads, and built as
// 1, 4 and 16 time shards on 4 threads and as 16 shards on 1 thread. No
// oracle runs here; every pair must dump alike.

TEST(DeterminismTest, TwentyThousandUsersAnswerAlikeAtEveryThreadAndShardCount) {
  core::PipelineConfig config;
  config.corpus.num_users = 20000;
  config.corpus.seed = 20150413;

  const auto analyze_table = [&config](size_t threads) -> std::string {
    auto generator = synth::TweetGenerator::Create(config.corpus);
    EXPECT_TRUE(generator.ok()) << generator.status();
    auto table = generator->Generate();
    EXPECT_TRUE(table.ok()) << table.status();
    table->CompactByUserTime();
    core::AnalysisContext ctx(threads);
    auto snapshot = core::AnalysisSnapshot::Analyze(
        tweetdb::TweetDataset::FromTable(std::move(*table)), config, {}, &ctx);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status();
    return snapshot.ok() ? DumpResult(snapshot->result()) : "";
  };
  EXPECT_EQ(analyze_table(1), analyze_table(4)) << "1 vs 4 threads";

  const auto build = [&config](size_t shards, size_t threads) -> std::string {
    core::PipelineConfig sharded = config;
    sharded.num_shards = shards;
    core::AnalysisContext ctx(threads);
    auto snapshot = core::AnalysisSnapshot::Build(sharded, &ctx);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status();
    return snapshot.ok() ? DumpResult(snapshot->result()) : "";
  };
  const std::string one_shard = build(1, 4);
  const std::string sixteen_shards = build(16, 4);
  EXPECT_EQ(one_shard, build(4, 4)) << "1 vs 4 shards";
  EXPECT_EQ(one_shard, sixteen_shards) << "1 vs 16 shards";
  EXPECT_EQ(build(16, 1), sixteen_shards) << "16 shards, 1 vs 4 threads";
}

}  // namespace
}  // namespace twimob::reference
