// Serving-layer stress: many query threads, a refresher, and a committing
// writer all running concurrently. Every query answer must be byte-identical
// to the serial reference no matter which snapshot generation served it and
// no matter the thread interleaving — content-equivalent generations are
// indistinguishable to queries. Run under ThreadSanitizer in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "serve/query_service.h"
#include "serve/refresh_supervisor.h"
#include "serve/snapshot_catalog.h"
#include "serve/whatif_service.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/ingest.h"

namespace twimob::serve {
namespace {

core::PipelineConfig StressConfig() {
  core::PipelineConfig config;
  config.corpus.num_users = 800;
  config.num_shards = 2;
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

/// One deterministic mixed-query workload; answers are flattened to doubles
/// so runs compare bitwise. Seeded per thread, independent of interleaving.
std::vector<double> RunWorkload(const QueryService& service, uint64_t seed,
                                int iterations) {
  random::Xoshiro256 rng(seed);
  std::vector<double> answers;
  std::vector<double> lats;
  std::vector<double> lons;
  for (int i = 0; i < iterations; ++i) {
    const uint64_t kind = rng.NextUint64(4);
    const size_t scale = rng.NextUint64(3);
    if (kind == 0) {
      const geo::LatLon center{rng.NextUniform(-44.0, -10.0),
                               rng.NextUniform(113.0, 154.0)};
      auto answer = service.Population(center, rng.NextUniform(1000.0, 60000.0));
      EXPECT_TRUE(answer.ok());
      answers.push_back(static_cast<double>(answer->unique_users));
      answers.push_back(static_cast<double>(answer->tweets));
    } else if (kind == 1) {
      lats.clear();
      lons.clear();
      for (int p = 0; p < 32; ++p) {
        lats.push_back(rng.NextUniform(-44.0, -10.0));
        lons.push_back(rng.NextUniform(113.0, 154.0));
      }
      auto batch =
          service.PointEstimateBatch(scale, lats.data(), lons.data(), lats.size());
      EXPECT_TRUE(batch.ok());
      for (const PointAnswer& a : *batch) {
        answers.push_back(static_cast<double>(a.area));
        answers.push_back(a.distance_m);
        answers.push_back(a.rescaled_estimate);
      }
    } else if (kind == 2) {
      auto answer = service.OdFlow(scale, rng.NextUint64(20), rng.NextUint64(20));
      EXPECT_TRUE(answer.ok());
      answers.push_back(answer->observed);
    } else {
      auto answer = service.Predict(scale, rng.NextUint64(3), rng.NextUint64(20),
                                    rng.NextUint64(20));
      EXPECT_TRUE(answer.ok());
      answers.push_back(answer->estimated);
    }
  }
  return answers;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ServingStressTest, ConcurrentQueriesRefreshAndCommitsAgreeWithSerial) {
  const std::string path = testing::TempDir() + "/twimob_serving_stress.twdb";
  std::remove(path.c_str());
  const core::PipelineConfig config = StressConfig();
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());

  CatalogOptions options;
  options.analysis = config;
  options.num_threads = 2;
  auto catalog = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();
  const QueryService service(catalog->get());

  constexpr int kQueryThreads = 4;
  constexpr int kIterations = 60;
  constexpr int kCommits = 3;

  // Serial references, one workload per future query thread, all answered
  // by the generation-1 snapshot.
  std::vector<std::vector<double>> reference(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    reference[t] = RunWorkload(service, 1000 + t, kIterations);
    ASSERT_FALSE(reference[t].empty());
  }

  // Writer: commits the SAME corpus content under fresh generations — a
  // swap changes the snapshot object, never the answers.
  std::atomic<bool> writer_done{false};
  std::thread writer([&corpus, &path, &writer_done] {
    for (int k = 0; k < kCommits; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Refresher: races the writer's commits; each Refresh either no-ops or
  // atomically swaps in a content-identical snapshot.
  std::atomic<int> swaps{0};
  std::thread refresher([&catalog, &writer_done, &swaps] {
    while (!writer_done.load(std::memory_order_acquire)) {
      auto refreshed = (*catalog)->Refresh();
      EXPECT_TRUE(refreshed.ok()) << refreshed.status().message();
      if (refreshed.ok() && *refreshed) {
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Query threads: replay the reference workloads while generations churn.
  std::vector<std::thread> queriers;
  std::vector<int> mismatches(kQueryThreads, 0);
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&service, &reference, &mismatches, t] {
      for (int round = 0; round < 3; ++round) {
        const std::vector<double> got =
            RunWorkload(service, 1000 + t, kIterations);
        if (!BitwiseEqual(got, reference[t])) ++mismatches[t];
      }
    });
  }
  for (std::thread& q : queriers) q.join();
  writer.join();
  refresher.join();

  for (int t = 0; t < kQueryThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0)
        << "thread " << t << " saw answers change across refreshes";
  }

  // Drain to the final committed generation and re-check one workload.
  auto final_refresh = (*catalog)->Refresh();
  ASSERT_TRUE(final_refresh.ok());
  EXPECT_EQ((*catalog)->current_generation(),
            static_cast<uint64_t>(1 + kCommits));
  EXPECT_TRUE(BitwiseEqual(RunWorkload(service, 1000, kIterations),
                           reference[0]));

  // The service counted every query from every thread (smoke check that
  // the relaxed counters are not dropping increments).
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.population_queries + stats.point_queries + stats.od_queries +
                stats.predict_queries,
            0u);
}

TEST(ServingStressTest, LiveIngestWithCompactionServesConsistentSnapshots) {
  // The full ingest lifecycle under concurrency: an appender commits delta
  // batches, a compactor merges them into fresh generations, a refresher
  // picks up every commit, and query threads pin snapshots mid-churn. Each
  // pinned snapshot must answer a workload bit-identically twice (snapshot
  // content is frozen no matter how many commits land meanwhile), and the
  // data each thread sees only ever grows. Run under TSan in CI.
  const std::string path = testing::TempDir() + "/twimob_serving_ingest.twdb";
  std::remove(path.c_str());
  const core::PipelineConfig config = StressConfig();
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  const size_t base_rows = corpus.num_rows();
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());

  // The append stream: a second corpus sliced into batches.
  core::PipelineConfig stream_config = StressConfig();
  stream_config.corpus.num_users = 400;
  stream_config.corpus.seed = 4242;
  tweetdb::TweetDataset stream = GenerateCorpus(stream_config);
  std::vector<tweetdb::Tweet> stream_rows;
  stream.ForEachRow(
      [&stream_rows](const tweetdb::Tweet& t) { stream_rows.push_back(t); });
  constexpr size_t kBatches = 6;
  const size_t batch_size = stream_rows.size() / kBatches + 1;

  CatalogOptions options;
  options.analysis = config;
  options.num_threads = 2;
  auto catalog = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();

  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  // Appender: commits the stream batch by batch.
  std::atomic<bool> ingest_done{false};
  std::thread appender([&] {
    for (size_t off = 0; off < stream_rows.size(); off += batch_size) {
      const size_t end = std::min(stream_rows.size(), off + batch_size);
      EXPECT_TRUE(
          (*writer)
              ->AppendBatch(std::vector<tweetdb::Tweet>(
                  stream_rows.begin() + off, stream_rows.begin() + end))
              .ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ingest_done.store(true, std::memory_order_release);
  });

  // Compactor: races the appender on the same writer; deltas committed
  // mid-merge are carried forward, never lost.
  std::thread compactor([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      auto compacted = (*writer)->Compact();
      EXPECT_TRUE(compacted.ok()) << compacted.status().message();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Refresher: every commit — delta append or compaction — is a newer
  // commit version; swaps must never go backwards.
  std::thread refresher([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      auto refreshed = (*catalog)->Refresh();
      EXPECT_TRUE(refreshed.ok()) << refreshed.status().message();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // Queriers: pin a snapshot, answer the same workload twice against it —
  // bitwise equal even while commits churn underneath — and watch the
  // served row count only ever grow.
  std::vector<std::thread> queriers;
  std::vector<int> failures(3, 0);
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&catalog, &failures, &ingest_done, t] {
      size_t prev_rows = 0;
      int round = 0;
      while (!ingest_done.load(std::memory_order_acquire) || round < 4) {
        const auto snapshot = (*catalog)->Current();
        const QueryService pinned(snapshot);
        const uint64_t seed = 9000 + 100 * t + round;
        if (!BitwiseEqual(RunWorkload(pinned, seed, 20),
                          RunWorkload(pinned, seed, 20))) {
          ++failures[t];
        }
        if (snapshot->num_rows() < prev_rows) ++failures[t];
        prev_rows = snapshot->num_rows();
        ++round;
      }
    });
  }

  appender.join();
  compactor.join();
  refresher.join();
  for (std::thread& q : queriers) q.join();
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(failures[t], 0) << "querier " << t;
  }

  // Drain: the final refresh serves every appended row exactly once, and a
  // cold catalog opened on the final state answers identically — the served
  // content depends only on the committed rows, not on the ingest history.
  ASSERT_TRUE((*catalog)->Refresh().ok());
  const auto final_snapshot = (*catalog)->Current();
  EXPECT_EQ(final_snapshot->num_rows(),
            base_rows + stream_rows.size());
  auto cold = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  const QueryService warm_service(final_snapshot);
  const QueryService cold_service((*cold)->Current());
  EXPECT_TRUE(BitwiseEqual(RunWorkload(warm_service, 31337, 40),
                           RunWorkload(cold_service, 31337, 40)));
}

TEST(ServingStressTest, SupervisedRefresherServesConsistentSnapshotsUnderIngest) {
  // The LiveIngest lifecycle with the refresh loop driven by a background
  // RefreshSupervisor thread instead of a hand-rolled refresher: queries,
  // supervisor steps and health() reads race appends and compactions. Runs
  // under TSan in CI via serve_test. Pinned snapshots must stay bitwise
  // stable, and once ingest settles one supervised step must report fresh.
  const std::string path = testing::TempDir() + "/twimob_serving_sup.twdb";
  std::remove(path.c_str());
  const core::PipelineConfig config = StressConfig();
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  const size_t base_rows = corpus.num_rows();
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());

  core::PipelineConfig stream_config = StressConfig();
  stream_config.corpus.num_users = 300;
  stream_config.corpus.seed = 777;
  tweetdb::TweetDataset stream = GenerateCorpus(stream_config);
  std::vector<tweetdb::Tweet> stream_rows;
  stream.ForEachRow(
      [&stream_rows](const tweetdb::Tweet& t) { stream_rows.push_back(t); });
  const size_t batch_size = stream_rows.size() / 4 + 1;

  CatalogOptions options;
  options.analysis = config;
  options.num_threads = 2;
  auto catalog = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();
  auto writer = tweetdb::IngestWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  SupervisorOptions sup_options;
  sup_options.poll_interval_ms = 2.0;
  RefreshSupervisor supervisor(catalog->get(), sup_options);
  supervisor.Start();

  std::atomic<bool> ingest_done{false};
  std::thread appender([&] {
    for (size_t off = 0; off < stream_rows.size(); off += batch_size) {
      const size_t end = std::min(stream_rows.size(), off + batch_size);
      EXPECT_TRUE(
          (*writer)
              ->AppendBatch(std::vector<tweetdb::Tweet>(
                  stream_rows.begin() + off, stream_rows.begin() + end))
              .ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ingest_done.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      auto compacted = (*writer)->Compact();
      EXPECT_TRUE(compacted.ok()) << compacted.status().message();
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
    }
  });

  std::vector<std::thread> queriers;
  std::vector<int> failures(2, 0);
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&catalog, &supervisor, &failures, &ingest_done, t] {
      int round = 0;
      while (!ingest_done.load(std::memory_order_acquire) || round < 3) {
        const auto snapshot = (*catalog)->Current();
        const QueryService pinned(snapshot);
        const uint64_t seed = 5000 + 100 * t + round;
        if (!BitwiseEqual(RunWorkload(pinned, seed, 15),
                          RunWorkload(pinned, seed, 15))) {
          ++failures[t];
        }
        // The health endpoint races the stepping thread and the writers.
        const HealthSnapshot h = supervisor.health();
        if (h.served_generation == 0) ++failures[t];
        ++round;
      }
    });
  }

  appender.join();
  compactor.join();
  for (std::thread& q : queriers) q.join();
  for (int t = 0; t < 2; ++t) EXPECT_EQ(failures[t], 0) << "querier " << t;

  supervisor.Stop();
  // Ingest has settled: one supervised step must land on the manifest head
  // and report fresh with a closed breaker and every appended row served.
  ASSERT_TRUE(supervisor.Step().ok());
  const HealthSnapshot health = supervisor.health();
  EXPECT_TRUE(health.fresh()) << health.ToString();
  EXPECT_EQ(health.breaker, BreakerState::kClosed);
  EXPECT_EQ(health.failures, 0u);
  EXPECT_EQ((*catalog)->Current()->num_rows(),
            base_rows + stream_rows.size());
}

/// Flattens a what-if answer to doubles so runs compare bitwise (the
/// commit version is deliberately excluded — content-equivalent
/// generations must be indistinguishable).
std::vector<double> FlattenWhatIf(const WhatIfAnswer& answer) {
  std::vector<double> flat;
  for (const epi::ScenarioResult& r : answer.results) {
    flat.push_back(r.final_totals.t);
    flat.push_back(r.final_totals.s);
    flat.push_back(r.final_totals.e);
    flat.push_back(r.final_totals.i);
    flat.push_back(r.final_totals.r);
    flat.push_back(r.peak_infectious);
    flat.push_back(r.peak_day);
    flat.push_back(r.attack_rate);
    flat.insert(flat.end(), r.arrival_day.begin(), r.arrival_day.end());
  }
  return flat;
}

TEST(ServingStressTest, ConcurrentWhatIfQueriersUnderRefreshChurn) {
  // What-if queriers race a committing writer and a refresher. Every
  // answer — cache hit, fresh sweep, or recompute after a snapshot swap to
  // a content-identical generation — must be bitwise equal to the serial
  // reference. Runs under TSan in CI via serve_test: the snapshot-keyed
  // cache's CAS publication and the pool fan-out are exercised from many
  // threads at once.
  const std::string path = testing::TempDir() + "/twimob_serving_whatif.twdb";
  std::remove(path.c_str());
  const core::PipelineConfig config = StressConfig();
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());

  CatalogOptions options;
  options.analysis = config;
  options.num_threads = 2;
  auto catalog = SnapshotCatalog::Open(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();

  WhatIfOptions whatif_options;
  whatif_options.num_threads = 2;
  const WhatIfService service(catalog->get(), whatif_options);

  constexpr int kWhatIfThreads = 3;
  const auto grid_for_thread = [](int t) {
    epi::SweepGrid grid;
    grid.betas = {0.3, 0.5};
    grid.mobility_reductions = {0.0, 0.4};
    grid.seed_areas = {static_cast<size_t>(t)};
    grid.seed_count = 10.0;
    grid.steps = 60;
    return grid;
  };

  // Serial references from the generation-1 snapshot.
  std::vector<std::vector<double>> reference(kWhatIfThreads);
  for (int t = 0; t < kWhatIfThreads; ++t) {
    auto answer = service.WhatIf(grid_for_thread(t));
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    reference[t] = FlattenWhatIf(**answer);
    ASSERT_FALSE(reference[t].empty());
  }

  // Writer commits the SAME corpus content under fresh generations; the
  // refresher's swaps invalidate the what-if cache (the key embeds the
  // commit version) without ever changing the answers.
  std::atomic<bool> writer_done{false};
  std::thread writer([&corpus, &path, &writer_done] {
    for (int k = 0; k < 3; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::thread refresher([&catalog, &writer_done] {
    while (!writer_done.load(std::memory_order_acquire)) {
      auto refreshed = (*catalog)->Refresh();
      EXPECT_TRUE(refreshed.ok()) << refreshed.status().message();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> queriers;
  std::vector<int> mismatches(kWhatIfThreads, 0);
  for (int t = 0; t < kWhatIfThreads; ++t) {
    queriers.emplace_back([&service, &grid_for_thread, &reference, &mismatches,
                           &writer_done, t] {
      int rounds = 0;
      while (!writer_done.load(std::memory_order_acquire) || rounds < 6) {
        auto answer = service.WhatIf(grid_for_thread(t));
        if (!answer.ok() ||
            !BitwiseEqual(FlattenWhatIf(**answer), reference[t])) {
          ++mismatches[t];
        }
        ++rounds;
      }
    });
  }
  for (std::thread& q : queriers) q.join();
  writer.join();
  refresher.join();

  for (int t = 0; t < kWhatIfThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0)
        << "what-if thread " << t << " saw answers change across refreshes";
  }
  const WhatIfStats stats = service.stats();
  EXPECT_GE(stats.queries, static_cast<uint64_t>(kWhatIfThreads * 6 + 3));
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GE(stats.sweeps_run, static_cast<uint64_t>(kWhatIfThreads));
}

TEST(ServingStressTest, ServedAnswersAreThreadCountInvariant) {
  // The same committed generation analysed with 1 and 3 worker threads must
  // serve bit-identical answers — the staged engine's determinism surfaces
  // intact through the serving layer.
  const std::string path = testing::TempDir() + "/twimob_serving_threads.twdb";
  std::remove(path.c_str());
  const core::PipelineConfig config = StressConfig();
  tweetdb::TweetDataset corpus = GenerateCorpus(config);
  ASSERT_TRUE(tweetdb::WriteDatasetFiles(corpus, path).ok());

  CatalogOptions one_thread;
  one_thread.analysis = config;
  one_thread.num_threads = 1;
  CatalogOptions three_threads;
  three_threads.analysis = config;
  three_threads.num_threads = 3;

  auto catalog1 = SnapshotCatalog::Open(path, one_thread);
  ASSERT_TRUE(catalog1.ok());
  auto catalog3 = SnapshotCatalog::Open(path, three_threads);
  ASSERT_TRUE(catalog3.ok());

  const QueryService service1(catalog1->get());
  const QueryService service3(catalog3->get());
  EXPECT_TRUE(BitwiseEqual(RunWorkload(service1, 555, 40),
                           RunWorkload(service3, 555, 40)));
}

}  // namespace
}  // namespace twimob::serve
