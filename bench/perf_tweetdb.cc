// Ablation A4 / storage micro-benchmarks (google-benchmark): ingest
// throughput, block codec speed, checksum (CRC32C) throughput, and the
// effect of zone-map pruning on scans.
//
// `--json <path>` skips google-benchmark and instead writes the
// machine-readable checksum/codec profile (`BENCH_tweetdb.json`: format
// version, DescribeTable storage accounting, CRC32C / encode / decode
// throughput, compression ratio, zone-map prune rate and the open +
// selective scan time of the on-disk dataset) via bench::JsonWriter. CI's
// perf-smoke job uploads it as an artifact and asserts on the
// compression/prune fields. `--users N` scales the
// profile corpus (10 rows per user; default 100,000 users = 1M rows, or
// $TWIMOB_BENCH_USERS when set); the corpus is cached under $TMPDIR
// keyed by (format version, users, seed) so repeat runs skip the build.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/crc32c.h"
#include "common/string_util.h"
#include "common/time_util.h"
#include "geo/bbox.h"
#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/block_compression.h"
#include "tweetdb/dataset.h"
#include "tweetdb/query.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {
namespace {

Tweet RandomTweet(random::Xoshiro256& rng, uint64_t num_users = 100000) {
  return Tweet{rng.NextUint64(num_users) + 1,
               1378000000 + static_cast<int64_t>(rng.NextUint64(20000000)),
               geo::LatLon{rng.NextUniform(-44.0, -10.0),
                           rng.NextUniform(113.0, 154.0)}};
}

TweetTable BuildTable(size_t rows, bool compact, uint64_t num_users = 100000,
                      uint64_t seed = 42) {
  random::Xoshiro256 rng(seed);
  TweetTable table;
  for (size_t i = 0; i < rows; ++i) {
    (void)table.Append(RandomTweet(rng, num_users));
  }
  if (compact) {
    table.CompactByUserTime();
  } else {
    table.SealActive();
  }
  return table;
}

/// Profile corpus scale: `--users N` wins, then $TWIMOB_BENCH_USERS, then
/// 100,000 (1M rows at 10 rows/user — the scale the acceptance numbers in
/// EXPERIMENTS.md quote).
size_t DefaultProfileUsers() {
  const char* env = std::getenv("TWIMOB_BENCH_USERS");
  if (env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 100000;
}

/// Cache path for the profile corpus. The key carries the format version
/// (a bump invalidates stale blobs), the user count (two scales must never
/// collide on one $TMPDIR entry) and the seed.
std::string ProfileCorpusCachePath(size_t users, uint64_t seed) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr ? tmp : "/tmp";
  return StrFormat("%s/twimob_bench_tweetdb_v%u_u%zu_s%llu.twdb", dir.c_str(),
                   kBinaryFormatVersion, users,
                   static_cast<unsigned long long>(seed));
}

/// The (user,time)-compacted profile corpus: 10 rows per user, loaded from
/// the $TMPDIR cache when a matching blob exists.
Result<TweetTable> LoadOrBuildProfileCorpus(size_t users, uint64_t seed) {
  const std::string cache = ProfileCorpusCachePath(users, seed);
  Env& env = *Env::Default();
  {
    auto cached = ReadBinaryFile(cache);
    if (cached.ok()) {
      std::fprintf(stderr, "[perf_tweetdb] loaded cached corpus %s (%zu rows)\n",
                   cache.c_str(), cached->num_rows());
      cached->CompactByUserTime();  // restore the sortedness flag
      return cached;
    }
    if (env.FileExists(cache)) {
      std::fprintf(stderr,
                   "[perf_tweetdb] cache %s failed verification (%s); "
                   "regenerating\n",
                   cache.c_str(), cached.status().ToString().c_str());
      (void)env.RemoveFile(cache);
    }
  }
  const size_t rows = users * 10;
  std::fprintf(stderr, "[perf_tweetdb] building %zu-row table (%zu users)...\n",
               rows, users);
  TweetTable table = BuildTable(rows, /*compact=*/true, users, seed);
  Status persisted = WriteBinaryFile(table, cache);
  if (persisted.ok()) {
    std::fprintf(stderr, "[perf_tweetdb] cached to %s\n", cache.c_str());
  } else {
    std::fprintf(stderr, "[perf_tweetdb] cache write failed (%s); continuing\n",
                 persisted.ToString().c_str());
  }
  return table;
}

void BM_Ingest(benchmark::State& state) {
  random::Xoshiro256 rng(1);
  const size_t rows = static_cast<size_t>(state.range(0));
  std::vector<Tweet> tweets;
  tweets.reserve(rows);
  for (size_t i = 0; i < rows; ++i) tweets.push_back(RandomTweet(rng));
  for (auto _ : state) {
    TweetTable table;
    for (const Tweet& t : tweets) (void)table.Append(t);
    table.SealActive();
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_Ingest)->Arg(10000)->Arg(100000);

void BM_EncodeTable(benchmark::State& state) {
  TweetTable table = BuildTable(static_cast<size_t>(state.range(0)), true);
  for (auto _ : state) {
    std::string bytes = EncodeTable(table);
    benchmark::DoNotOptimize(bytes.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeTable)->Arg(100000);

// Verified decode: payload CRC32C, decompression and zone-map check.
void BM_DecodeTable(benchmark::State& state) {
  TweetTable table = BuildTable(static_cast<size_t>(state.range(0)), true);
  const std::string bytes = EncodeTable(table);
  state.counters["bytes_per_row"] =
      static_cast<double>(bytes.size()) / static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto decoded = DecodeTable(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeTable)->Arg(100000);

// Raw CRC32C throughput over the encoded table blob (slice-by-8).
void BM_Crc32c(benchmark::State& state) {
  TweetTable table = BuildTable(static_cast<size_t>(state.range(0)), true);
  const std::string bytes = EncodeTable(table);
  for (auto _ : state) {
    uint32_t crc = Crc32c(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32c)->Arg(100000);

// The A4 question: zone-map pruning vs full scan for a selective predicate.
void BM_ScanUserFilter(benchmark::State& state) {
  const bool compacted = state.range(1) != 0;
  const TweetDataset dataset = TweetDataset::FromTable(
      BuildTable(static_cast<size_t>(state.range(0)), compacted));
  ScanSpec spec;
  spec.user_id = 777;
  size_t pruned = 0, total = 0;
  for (auto _ : state) {
    size_t count = 0;
    ScanStatistics stats = CountMatching(dataset, spec, &count);
    pruned = stats.blocks_pruned;
    total = stats.blocks_total;
    benchmark::DoNotOptimize(count);
  }
  state.counters["blocks_pruned"] = static_cast<double>(pruned);
  state.counters["blocks_total"] = static_cast<double>(total);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanUserFilter)
    ->Args({1000000, 0})   // appended order: zone maps useless
    ->Args({1000000, 1});  // compacted: zone maps prune nearly everything

void BM_ParallelScanBbox(benchmark::State& state) {
  const TweetDataset dataset = TweetDataset::FromTable(BuildTable(1000000, false));
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  ScanSpec spec;
  spec.bbox = geo::BoundingBox{-35.0, 150.0, -33.0, 152.0};
  for (auto _ : state) {
    size_t count = 0;
    CountMatching(dataset, spec, &count, &pool);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_ParallelScanBbox)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ScanBboxFilter(benchmark::State& state) {
  const TweetDataset dataset = TweetDataset::FromTable(BuildTable(1000000, false));
  ScanSpec spec;
  spec.bbox = geo::BoundingBox{-35.0, 150.0, -33.0, 152.0};  // Sydney box
  for (auto _ : state) {
    size_t count = 0;
    CountMatching(dataset, spec, &count);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_ScanBboxFilter);

template <typename Fn>
double BestOfSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const double t0 = MonotonicSeconds();
    fn();
    best = std::min(best, MonotonicSeconds() - t0);
  }
  return best;
}

/// The machine-readable checksum/codec profile behind `--json`.
int RunJsonProfile(const char* json_path, size_t users) {
  if (!Crc32cSelfTest()) {
    std::fprintf(stderr, "[perf_tweetdb] CRC32C self-test FAILED\n");
    return 1;
  }
  const uint64_t seed = 42;
  auto corpus = LoadOrBuildProfileCorpus(users, seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "[perf_tweetdb] corpus build failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  TweetTable table = std::move(*corpus);
  const TableDescription desc = DescribeTable(table);
  const std::string bytes = EncodeTable(table);
  const double mib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);

  const double crc_s = BestOfSeconds(5, [&] {
    uint32_t crc = Crc32c(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  });
  const double crc_scalar_s = BestOfSeconds(5, [&] {
    uint32_t crc = Crc32cScalar(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  });

  // Dispatched vs always-scalar FilterBlockColumnar over every block of the
  // 1M-row table (Sydney bbox: the pipeline's hot spatial predicate). The
  // selection lists must match exactly — the speedup is only meaningful if
  // the kernels agree.
  ScanSpec bbox_spec;
  bbox_spec.bbox = geo::BoundingBox{-35.0, 150.0, -33.0, 152.0};
  std::vector<uint32_t> sel;
  std::vector<uint32_t> sel_scalar;
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    FilterBlockColumnar(table.block(b), bbox_spec, &sel);
    FilterBlockColumnarScalar(table.block(b), bbox_spec, &sel_scalar);
    if (sel != sel_scalar) {
      std::fprintf(stderr,
                   "[perf_tweetdb] SIMD/scalar selection MISMATCH in block %zu\n",
                   b);
      return 1;
    }
  }
  const double filter_simd_s = BestOfSeconds(5, [&] {
    size_t matched = 0;
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      FilterBlockColumnar(table.block(b), bbox_spec, &sel);
      matched += sel.size();
    }
    benchmark::DoNotOptimize(matched);
  });
  const double filter_scalar_s = BestOfSeconds(5, [&] {
    size_t matched = 0;
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      FilterBlockColumnarScalar(table.block(b), bbox_spec, &sel_scalar);
      matched += sel_scalar.size();
    }
    benchmark::DoNotOptimize(matched);
  });
  const double encode_s = BestOfSeconds(3, [&] {
    std::string encoded = EncodeTable(table);
    benchmark::DoNotOptimize(encoded.size());
  });
  const double decode_verify_s = BestOfSeconds(3, [&] {
    auto decoded = DecodeTable(bytes);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded->num_rows());
  });

  // Zone-map pruning on the v6 directory: the selective scan the paper's
  // per-user workloads issue (point user filter over the (user,time)-
  // compacted corpus — well under 10% selectivity).
  ScanSpec selective;
  selective.user_id = 777;
  size_t selective_count = 0;
  TweetDataset wrapped = TweetDataset::FromTable(std::move(table));
  const ScanStatistics scan_stats =
      CountMatching(wrapped, selective, &selective_count);
  table = std::move(wrapped).ReleaseTable();
  const double prune_rate =
      scan_stats.blocks_total > 0
          ? static_cast<double>(scan_stats.blocks_pruned) /
                static_cast<double>(scan_stats.blocks_total)
          : 0.0;

  // Eager open + selective scan of the same rows written as an on-disk
  // dataset: the count must equal the in-memory table's.
  const std::string ds_path = ProfileCorpusCachePath(users, seed) + ".ds";
  {
    TweetDataset dataset;
    table.ForEachRow([&dataset](const Tweet& t) { (void)dataset.Append(t); });
    const Status written = WriteDatasetFiles(dataset, ds_path);
    if (!written.ok()) {
      std::fprintf(stderr, "[perf_tweetdb] dataset write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }
  size_t eager_count = 0;
  const double eager_open_scan_s = BestOfSeconds(3, [&] {
    auto ds = ReadDatasetFiles(ds_path);
    if (!ds.ok()) std::abort();
    CountMatching(*ds, selective, &eager_count);
    benchmark::DoNotOptimize(eager_count);
  });
  if (eager_count != selective_count) {
    std::fprintf(stderr,
                 "[perf_tweetdb] selective scan MISMATCH: table %zu, eager %zu\n",
                 selective_count, eager_count);
    return 1;
  }

  const double gib = static_cast<double>(bytes.size()) /
                     (1024.0 * 1024.0 * 1024.0);
  const double crc_speedup = crc_s > 0.0 ? crc_scalar_s / crc_s : 1.0;
  const double filter_speedup =
      filter_simd_s > 0.0 ? filter_scalar_s / filter_simd_s : 1.0;
  std::fprintf(stderr,
               "[perf_tweetdb] crc32c %s %.2f GiB/s (scalar %.2f, %.1fx) | "
               "encode %.0f MiB/s | decode %.0f MiB/s verified | filter %s "
               "%.1fx scalar\n",
               Crc32cImplementation(), gib / crc_s, gib / crc_scalar_s,
               crc_speedup, mib / encode_s, mib / decode_verify_s,
               FilterKernelsImplementation(), filter_speedup);
  std::fprintf(stderr,
               "[perf_tweetdb] v%u: %.2fx compression (%.1f B/row) | unpack %s "
               "| prune rate %.3f | open+selective scan %.1f ms\n",
               kBinaryFormatVersion, desc.compression_ratio, desc.bytes_per_row,
               ActiveUnpackKernels().name, prune_rate, 1e3 * eager_open_scan_s);

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "tweetdb");
  json.Field("format_version", static_cast<uint64_t>(kBinaryFormatVersion));
  json.Field("compression_ratio", desc.compression_ratio);
  json.Field("zone_map_prune_rate", prune_rate);
  json.Field("decode_compressed_mibps", mib / decode_verify_s);
  json.BeginObject("kernels")
      .Field("cpu_features", CpuFeaturesSummary(GetCpuFeatures()))
      .Field("crc32c_implementation", Crc32cImplementation())
      .Field("filter_implementation", FilterKernelsImplementation())
      .Field("unpack_implementation", ActiveUnpackKernels().name)
      .Field("crc32c_hw_gibps", gib / crc_s)
      .Field("crc32c_scalar_gibps", gib / crc_scalar_s)
      .Field("crc32c_speedup", crc_speedup)
      .Field("filter_simd_speedup", filter_speedup)
      .EndObject();
  json.BeginObject("corpus")
      .Field("users", static_cast<uint64_t>(users))
      .Field("rows", static_cast<uint64_t>(desc.num_rows))
      .Field("blocks", static_cast<uint64_t>(desc.num_blocks))
      .Field("encoded_bytes", static_cast<uint64_t>(desc.encoded_bytes))
      .Field("bytes_per_row", desc.bytes_per_row)
      .Field("compression_ratio", desc.compression_ratio)
      .EndObject();
  json.BeginObject("checksum")
      .Field("crc32c_mib_per_s", mib / crc_s)
      .Field("encode_mib_per_s", mib / encode_s)
      .Field("decode_verify_mib_per_s", mib / decode_verify_s)
      .Field("decode_verified_mibps", mib / decode_verify_s)
      .EndObject();
  json.BeginObject("zone_maps")
      .Field("scan", "user_eq_777")
      .Field("blocks_total", static_cast<uint64_t>(scan_stats.blocks_total))
      .Field("blocks_pruned", static_cast<uint64_t>(scan_stats.blocks_pruned))
      .Field("zone_map_prune_rate", prune_rate)
      .Field("eager_open_scan_s", eager_open_scan_s)
      .EndObject();
  json.EndObject();
  const Status written = json.WriteFile(json_path);
  if (!written.ok()) {
    std::fprintf(stderr, "[perf_tweetdb] json write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[perf_tweetdb] wrote %s\n", json_path);
  return 0;
}

}  // namespace
}  // namespace twimob::tweetdb

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  size_t users = twimob::tweetdb::DefaultProfileUsers();
  for (int i = 1; i < argc;) {
    const bool is_json = std::strcmp(argv[i], "--json") == 0;
    const bool is_users = std::strcmp(argv[i], "--users") == 0;
    if ((is_json || is_users) && i + 1 < argc) {
      if (is_json) {
        json_path = argv[i + 1];
      } else {
        const long long v = std::atoll(argv[i + 1]);
        if (v <= 0) {
          std::fprintf(stderr, "bad --users value: %s\n", argv[i + 1]);
          return 1;
        }
        users = static_cast<size_t>(v);
      }
      // Remove both arguments so google-benchmark never sees them.
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }
  if (json_path != nullptr) {
    return twimob::tweetdb::RunJsonProfile(json_path, users);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
