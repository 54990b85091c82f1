// Deterministic chaos harness for the live loop: one seeded driver runs an
// appender, a compactor, a supervised refresher and a querier round-robin
// over a shared FaultInjectionEnv schedule (transient bursts, injected
// latency, or an ENOSPC window that clears). Invariants swept at every
// tick:
//   * every served snapshot is a committed commit version whose row
//     multiset equals the reference for that version (old-or-new, never a
//     hybrid), and a pinned snapshot answers workloads bit-identically;
//   * once the faults clear, the catalog reaches the manifest head within
//     a bounded number of supervisor steps and the ingest writer re-enters
//     healthy mode;
//   * no generation pin leaks once every snapshot reference drops.
// Registered in serve_test, so CI's TSan job builds it too; the chaos CI
// job runs it under ASan across the fixed seed matrix below.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "serve/query_service.h"
#include "serve/refresh_supervisor.h"
#include "serve/snapshot_catalog.h"
#include "serve/snapshot_dump.h"
#include "serve/whatif_service.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/generation_pins.h"
#include "tweetdb/ingest.h"
#include "tweetdb/storage_env.h"

namespace twimob::serve {
namespace {

using FaultKind = tweetdb::FaultInjectionEnv::FaultKind;
using FaultSchedule = tweetdb::FaultInjectionEnv::FaultSchedule;
using tweetdb::Tweet;

core::PipelineConfig ChaosConfig() {
  core::PipelineConfig config;
  config.corpus.num_users = 300;
  config.num_shards = 2;
  config.run_mobility = false;  // population-only keeps every swap cheap
  return config;
}

tweetdb::TweetDataset GenerateCorpus(const core::PipelineConfig& config) {
  auto generator = synth::TweetGenerator::Create(config.corpus);
  EXPECT_TRUE(generator.ok());
  auto dataset = generator->GenerateDataset(tweetdb::PartitionSpec::ForWindow(
      config.corpus.window_start, config.corpus.window_end,
      config.num_shards));
  EXPECT_TRUE(dataset.ok());
  return std::move(*dataset);
}

std::vector<Tweet> BatchRows(const core::PipelineConfig& config, uint64_t seed,
                             size_t n) {
  random::Xoshiro256 rng(seed);
  std::vector<Tweet> rows;
  rows.reserve(n);
  const auto span = static_cast<uint64_t>(config.corpus.window_end -
                                          config.corpus.window_start);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tweet{rng.NextUint64(40) + 1,
                         config.corpus.window_start +
                             static_cast<int64_t>(rng.NextUint64(span)),
                         geo::LatLon{rng.NextUniform(-44, -10),
                                     rng.NextUniform(113, 154)}});
  }
  return rows;
}

/// The sorted rows of a dataset or a served snapshot.
template <typename Rows>
std::vector<Tweet> SortedRows(const Rows& source) {
  std::vector<Tweet> rows;
  rows.reserve(source.num_rows());
  source.ForEachRow([&rows](const Tweet& t) { rows.push_back(t); });
  std::sort(rows.begin(), rows.end(), tweetdb::UserTimeLess);
  return rows;
}

/// The storage-quantised sorted row multiset of base ∪ batches[0..count) —
/// the reference a served snapshot at that append cursor must equal
/// (round-tripped through a scratch dataset write so both sides share the
/// fixed-point position codec).
std::vector<Tweet> ReferenceRows(const core::PipelineConfig& config,
                                 const std::string& scratch,
                                 const std::vector<Tweet>& base,
                                 const std::vector<std::vector<Tweet>>& batches,
                                 size_t count) {
  std::remove(scratch.c_str());
  tweetdb::TweetDataset dataset(
      tweetdb::PartitionSpec::ForWindow(config.corpus.window_start,
                                        config.corpus.window_end,
                                        config.num_shards),
      128);
  EXPECT_TRUE(dataset.AppendBatch(base).ok());
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(dataset.AppendBatch(batches[i]).ok());
  }
  EXPECT_TRUE(tweetdb::WriteDatasetFiles(dataset, scratch).ok());
  auto reopened = tweetdb::ReadDatasetFiles(scratch);
  EXPECT_TRUE(reopened.ok());
  std::vector<Tweet> rows = SortedRows(*reopened);
  std::remove(scratch.c_str());
  return rows;
}

/// Population + point-batch workload (the mobility tables are disabled in
/// ChaosConfig), flattened to doubles so runs compare bitwise.
std::vector<double> ChaosWorkload(const QueryService& service, uint64_t seed,
                                  int iterations) {
  random::Xoshiro256 rng(seed);
  std::vector<double> answers;
  std::vector<double> lats;
  std::vector<double> lons;
  for (int i = 0; i < iterations; ++i) {
    if (rng.NextUint64(2) == 0) {
      const geo::LatLon center{rng.NextUniform(-44.0, -10.0),
                               rng.NextUniform(113.0, 154.0)};
      auto answer = service.Population(center, rng.NextUniform(1000.0, 60000.0));
      EXPECT_TRUE(answer.ok());
      answers.push_back(static_cast<double>(answer->unique_users));
      answers.push_back(static_cast<double>(answer->tweets));
    } else {
      const size_t scale = rng.NextUint64(3);
      lats.clear();
      lons.clear();
      for (int p = 0; p < 16; ++p) {
        lats.push_back(rng.NextUniform(-44.0, -10.0));
        lons.push_back(rng.NextUniform(113.0, 154.0));
      }
      auto batch =
          service.PointEstimateBatch(scale, lats.data(), lons.data(), lats.size());
      EXPECT_TRUE(batch.ok());
      for (const PointAnswer& a : *batch) {
        answers.push_back(static_cast<double>(a.area));
        answers.push_back(a.rescaled_estimate);
      }
    }
  }
  return answers;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class ChaosScheduleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, FaultKind>> {};

TEST_P(ChaosScheduleTest, LiveLoopSurvivesScheduleAndRecovers) {
  const auto [seed, kind] = GetParam();
  const std::string path = testing::TempDir() + "/twimob_chaos_" +
                           std::to_string(seed) + "_" +
                           std::to_string(static_cast<int>(kind)) + ".twdb";
  const std::string scratch = path + ".ref";
  std::remove(path.c_str());

  const core::PipelineConfig config = ChaosConfig();
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  const std::vector<Tweet> base_rows = SortedRows(corpus);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());

  constexpr size_t kBatches = 5;
  std::vector<std::vector<Tweet>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(BatchRows(config, seed * 1000 + b, 120));
  }

  // The committed references: append cursor -> expected sorted row
  // multiset. Content is keyed by the cursor alone — a compaction
  // reorganises files, never rows.
  tweetdb::Env& real_env = *tweetdb::Env::Default();
  std::map<uint64_t, std::vector<Tweet>> expected;
  {
    auto head = PeekManifest(real_env, path);
    ASSERT_TRUE(head.ok());
    expected[head->next_delta_seq] =
        ReferenceRows(config, scratch, base_rows, batches, 0);
  }

  tweetdb::FaultInjectionEnv fault_env(&real_env, seed);

  CatalogOptions options;
  options.analysis = config;
  options.num_threads = 2;
  options.env = &fault_env;
  auto catalog = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();

  tweetdb::IngestOptions ingest_options;
  ingest_options.write.jitter_seed = seed;
  auto writer = tweetdb::IngestWriter::Open(path, ingest_options, &fault_env);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  SupervisorOptions sup_options;
  sup_options.backoff.jitter_seed = seed;
  sup_options.breaker_threshold = 2;
  sup_options.open_cooldown_steps = 2;
  RefreshSupervisor supervisor(catalog->get(), sup_options);

  const QueryService service(catalog->get());

  // The what-if lane: ChaosConfig disables mobility, so no snapshot the
  // loop ever serves carries a sweep engine — the typed
  // kFailedPrecondition contract must hold at every tick, under every
  // fault schedule, with deadline typing intact and no crash.
  WhatIfOptions whatif_options;
  whatif_options.num_threads = 1;
  const WhatIfService whatif(catalog->get(), whatif_options);
  epi::SweepGrid whatif_grid;
  whatif_grid.betas = {0.3};
  whatif_grid.mobility_reductions = {0.0};
  whatif_grid.seed_areas = {0};
  whatif_grid.steps = 10;

  // Arm the schedule AFTER the clean open (set_schedule resets the op
  // counter, so the windows cover the live loop's first few hundred ops).
  fault_env.set_schedule(
      FaultSchedule::Bursts(kind, seed, /*bursts=*/3, /*span_ops=*/400,
                            /*max_burst_ops=*/60, /*latency_ms=*/2.0));

  random::Xoshiro256 driver(seed ^ 0xC0FFEE);
  size_t next_batch = 0;
  uint64_t enospc_failures = 0;
  uint64_t transient_failures = 0;
  int tick = 0;
  for (; tick < 600 && (next_batch < kBatches || tick < 150); ++tick) {
    const uint64_t action = driver.NextUint64(4);
    if (action == 0 && next_batch < kBatches) {
      const Status append = (*writer)->AppendBatch(batches[next_batch]);
      // The manifest rename is the sole commit point, so the real head
      // tells whether the append landed regardless of what it returned.
      auto head = PeekManifest(real_env, path);
      ASSERT_TRUE(head.ok());
      if (expected.find(head->next_delta_seq) == expected.end()) {
        ASSERT_TRUE(append.ok()) << append.ToString();
        ++next_batch;
        expected[head->next_delta_seq] =
            ReferenceRows(config, scratch, base_rows, batches, next_batch);
      } else {
        EXPECT_FALSE(append.ok());
        if (append.IsResourceExhausted()) {
          ++enospc_failures;
          EXPECT_TRUE((*writer)->degraded());
        } else {
          ++transient_failures;
        }
      }
    } else if (action == 1) {
      const auto compacted = (*writer)->Compact();
      if (!compacted.ok() && compacted.status().IsResourceExhausted()) {
        ++enospc_failures;
      }
    } else if (action == 2) {
      (void)supervisor.Step();
    } else {
      // Query tick: the served snapshot must be a committed version and
      // carry exactly that version's rows; pinned answers are stable.
      const auto snapshot = (*catalog)->Current();
      const auto it = expected.find(snapshot->ingest_seq());
      ASSERT_NE(it, expected.end())
          << "tick " << tick << ": served uncommitted cursor "
          << snapshot->ingest_seq();
      EXPECT_EQ(SortedRows(*snapshot), it->second)
          << "tick " << tick << ": served rows diverge from the committed "
          << "reference at cursor " << snapshot->ingest_seq();
      const QueryService pinned(snapshot);
      const uint64_t wseed = seed * 7919 + static_cast<uint64_t>(tick);
      EXPECT_TRUE(BitwiseEqual(ChaosWorkload(pinned, wseed, 4),
                               ChaosWorkload(pinned, wseed, 4)));
      EXPECT_TRUE(whatif.WhatIf(whatif_grid).status().IsFailedPrecondition());
      QueryOptions expired_options;
      expired_options.deadline = Deadline::AlreadyExpired();
      EXPECT_TRUE(whatif.WhatIf(whatif_grid, expired_options)
                      .status()
                      .IsDeadlineExceeded());
    }
  }
  // The what-if lane never computed, cached or shed anything.
  EXPECT_EQ(whatif.stats().sweeps_run, 0u);
  EXPECT_EQ(whatif.stats().shed_queries, 0u);
  EXPECT_GT(fault_env.faults_injected(), 0u) << "schedule never fired";
  if (kind == FaultKind::kLatency) {
    EXPECT_GT(fault_env.injected_latency_ms(), 0.0);
    EXPECT_EQ(enospc_failures, 0u);
  }

  // --- Faults clear. ---
  fault_env.set_schedule({});

  // Drain the append stream; the first successful append is the probe that
  // returns a degraded writer to healthy.
  const bool was_degraded = (*writer)->degraded();
  for (; next_batch < kBatches; ++next_batch) {
    ASSERT_TRUE((*writer)->AppendBatch(batches[next_batch]).ok());
    auto head = PeekManifest(real_env, path);
    ASSERT_TRUE(head.ok());
    expected[head->next_delta_seq] =
        ReferenceRows(config, scratch, base_rows, batches, next_batch + 1);
  }
  if (was_degraded) {
    EXPECT_GE((*writer)->health().probe_successes, 1u);
  }
  EXPECT_FALSE((*writer)->degraded());
  auto compacted = (*writer)->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().message();

  // Staleness is bounded: within breaker cooldown + threshold + a probe the
  // supervisor must reach the manifest head and report fresh.
  const int bound = sup_options.open_cooldown_steps +
                    sup_options.breaker_threshold + 3;
  bool fresh = false;
  for (int i = 0; i < bound && !fresh; ++i) {
    (void)supervisor.Step();
    fresh = supervisor.health().fresh();
  }
  const HealthSnapshot health = supervisor.health();
  EXPECT_TRUE(fresh) << "not fresh after " << bound
                     << " post-fault steps: " << health.ToString();
  EXPECT_EQ(health.breaker, BreakerState::kClosed);

  // The final served content equals the full committed stream, and a cold
  // catalog on the pristine env agrees bitwise — the chaos left no trace.
  uint64_t last_generation = 0;
  {
    const auto final_snapshot = (*catalog)->Current();
    EXPECT_EQ(final_snapshot->ingest_seq(), expected.rbegin()->first);
    EXPECT_EQ(SortedRows(*final_snapshot), expected.rbegin()->second);
    CatalogOptions cold_options = options;
    cold_options.env = nullptr;
    auto cold = SnapshotCatalog::Open(path, cold_options);
    ASSERT_TRUE(cold.ok()) << cold.status().message();
    last_generation = (*cold)->current_generation();
    const QueryService cold_service((*cold)->Current());
    const QueryService warm_service(final_snapshot);
    EXPECT_TRUE(BitwiseEqual(ChaosWorkload(warm_service, seed + 17, 20),
                             ChaosWorkload(cold_service, seed + 17, 20)));
  }

  // No pin leaks: once every snapshot reference drops, every generation's
  // pin count is zero.
  catalog->reset();
  for (uint64_t g = 1; g <= last_generation + 1; ++g) {
    EXPECT_EQ(tweetdb::internal::GenerationPinCount(path, g), 0u)
        << "generation " << g << " leaked a pin";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchedules, ChaosScheduleTest,
    ::testing::Combine(::testing::Values(uint64_t{11}, uint64_t{23},
                                         uint64_t{37}),
                       ::testing::Values(FaultKind::kTransient,
                                         FaultKind::kNoSpace,
                                         FaultKind::kLatency)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, FaultKind>>& info) {
      const char* kind = "latency";
      switch (std::get<1>(info.param)) {
        case FaultKind::kTransient:
          kind = "transient";
          break;
        case FaultKind::kNoSpace:
          kind = "enospc";
          break;
        default:
          break;
      }
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" + kind;
    });

// A rebase refresh that fails — transient faults past the read retry
// budget from each of its env operations on, the delta read included — is
// an error that leaves the installed snapshot serving untouched and
// pinned; once the faults clear, the next refresh rebases and serves
// exactly the committed rows.
TEST(RebaseChaosTest, FailedRebaseDeltaReadKeepsTheInstalledSnapshotServing) {
  const core::PipelineConfig config = ChaosConfig();
  const std::string path = testing::TempDir() + "/twimob_chaos_rebase.twdb";
  const std::string scratch = path + ".ref";
  std::remove(path.c_str());
  tweetdb::FaultInjectionEnv fault_env(tweetdb::Env::Default(), 7);
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  const std::vector<Tweet> base = SortedRows(corpus);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());
  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  CatalogOptions options;
  options.analysis = config;
  options.env = &fault_env;
  options.num_threads = 2;
  auto catalog = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  // Arms a rebase: a delta the catalog reads, a compaction, a new delta.
  uint64_t seed = 1000;
  std::vector<std::vector<Tweet>> batches;
  auto arm = [&] {
    fault_env.set_schedule({});
    batches.push_back(BatchRows(config, seed++, 60));
    ASSERT_TRUE((*writer)->AppendBatch(batches.back()).ok());
    auto refreshed = (*catalog)->Refresh();
    ASSERT_TRUE(refreshed.ok() && *refreshed);
    ASSERT_TRUE(RanDeltaPath(*(*catalog)->Current()));
    auto compacted = (*writer)->Compact();
    ASSERT_TRUE(compacted.ok() && *compacted);
    batches.push_back(BatchRows(config, seed++, 40));
    ASSERT_TRUE((*writer)->AppendBatch(batches.back()).ok());
  };
  auto expect_rebased = [&](const std::string& where) {
    const auto served = (*catalog)->Current();
    EXPECT_TRUE(RanDeltaPath(*served, /*rebased=*/true)) << where;
    EXPECT_EQ(SortedRows(*served),
              ReferenceRows(config, scratch, base, batches, batches.size()))
        << where;
  };

  // The gated operations of one clean rebase refresh.
  ASSERT_NO_FATAL_FAILURE(arm());
  fault_env.set_schedule({});
  auto clean = (*catalog)->Refresh();
  ASSERT_TRUE(clean.ok() && *clean);
  const uint64_t refresh_ops = fault_env.operations();
  ASSERT_GT(refresh_ops, 0u);
  expect_rebased("clean rebase");

  for (uint64_t at = 0; at < refresh_ops; ++at) {
    const std::string where = "faults from op " + std::to_string(at);
    ASSERT_NO_FATAL_FAILURE(arm()) << where;
    const auto before = (*catalog)->Current();
    FaultSchedule schedule;
    schedule.windows.push_back({FaultKind::kTransient, at, at + 1000});
    fault_env.set_schedule(schedule);
    auto refreshed = (*catalog)->Refresh();
    EXPECT_FALSE(refreshed.ok()) << where;
    EXPECT_EQ((*catalog)->Current().get(), before.get()) << where;
    EXPECT_TRUE(tweetdb::IsGenerationPinned(path, before->generation())) << where;
    auto answer = QueryService(before).Population(geo::LatLon{-33.87, 151.21}, 20000.0);
    EXPECT_TRUE(answer.ok()) << where;

    fault_env.set_schedule({});
    auto recovered = (*catalog)->Refresh();
    ASSERT_TRUE(recovered.ok()) << where << ": " << recovered.status();
    EXPECT_TRUE(*recovered) << where;
    expect_rebased(where);
  }
}

}  // namespace
}  // namespace twimob::serve
