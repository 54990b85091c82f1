// Storage kernel micro-ratios: CRC32C (the dispatched hardware path vs the
// slice-by-8 scalar reference, over the encoded table) and the columnar
// filter (FilterBlockColumnar vs FilterBlockColumnarScalar over every
// block, Sydney bbox: the pipeline's hot spatial predicate). The table is
// random tweets, 10 rows per user, (user,time)-compacted. That the kernels
// agree is proven by common_test's Crc32cTest and tweetdb_test's
// FilterKernelDifferentialTest; this binary only times them.
//
// `--users N` scales the table (default 100,000 users = 1M rows, or
// $TWIMOB_BENCH_USERS when set). `--json <path>` also writes the profile
// (`BENCH_tweetdb.json`) for CI's artifact upload.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/crc32c.h"
#include "geo/bbox.h"
#include "random/rng.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/query.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {
namespace {

TweetTable BuildTable(size_t users, uint64_t seed) {
  random::Xoshiro256 rng(seed);
  TweetTable table;
  for (size_t i = 0; i < users * 10; ++i) {
    (void)table.Append(Tweet{rng.NextUint64(users) + 1,
                             1378000000 + static_cast<int64_t>(rng.NextUint64(20000000)),
                             geo::LatLon{rng.NextUniform(-44.0, -10.0),
                                         rng.NextUniform(113.0, 154.0)}});
  }
  table.CompactByUserTime();
  return table;
}

size_t DefaultUsers() {
  const char* env = std::getenv("TWIMOB_BENCH_USERS");
  if (env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 100000;
}

int Run(const char* json_path, size_t users) {
  std::fprintf(stderr, "[perf_tweetdb] building %zu-row table (%zu users)...\n",
               users * 10, users);
  const TweetTable table = BuildTable(users, /*seed=*/42);
  const std::string bytes = EncodeTable(table);

  const double crc_s =
      bench::BestOfSeconds(5, [&] { return Crc32c(bytes.data(), bytes.size()); });
  const double crc_scalar_s = bench::BestOfSeconds(
      5, [&] { return Crc32cScalar(bytes.data(), bytes.size()); });

  ScanSpec bbox_spec;
  bbox_spec.bbox = geo::BoundingBox{-35.0, 150.0, -33.0, 152.0};
  std::vector<uint32_t> sel;
  auto filter_all = [&](auto filter) {
    size_t matched = 0;
    for (size_t b = 0; b < table.num_blocks(); ++b) {
      filter(table.block(b), bbox_spec, &sel);
      matched += sel.size();
    }
    return matched;
  };
  const double filter_simd_s =
      bench::BestOfSeconds(5, [&] { return filter_all(FilterBlockColumnar); });
  const double filter_scalar_s =
      bench::BestOfSeconds(5, [&] { return filter_all(FilterBlockColumnarScalar); });

  const double gib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0 * 1024.0);
  const double crc_speedup = crc_scalar_s / crc_s;
  const double filter_speedup = filter_scalar_s / filter_simd_s;
  std::fprintf(stderr,
               "[perf_tweetdb] crc32c %s %.2f GiB/s (scalar %.2f, %.1fx) | "
               "filter %s %.1fx scalar\n",
               Crc32cImplementation(), gib / crc_s, gib / crc_scalar_s, crc_speedup,
               FilterKernelsImplementation(), filter_speedup);
  if (json_path == nullptr) return 0;

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "tweetdb");
  json.Field("format_version", static_cast<uint64_t>(kBinaryFormatVersion));
  json.BeginObject("kernels")
      .Field("cpu_features", CpuFeaturesSummary(GetCpuFeatures()))
      .Field("crc32c_implementation", Crc32cImplementation())
      .Field("filter_implementation", FilterKernelsImplementation())
      .Field("crc32c_hw_gibps", gib / crc_s)
      .Field("crc32c_scalar_gibps", gib / crc_scalar_s)
      .Field("crc32c_speedup", crc_speedup)
      .Field("filter_simd_speedup", filter_speedup)
      .EndObject();
  json.BeginObject("corpus")
      .Field("users", static_cast<uint64_t>(users))
      .Field("rows", static_cast<uint64_t>(table.num_rows()))
      .Field("blocks", static_cast<uint64_t>(table.num_blocks()))
      .Field("encoded_bytes", static_cast<uint64_t>(bytes.size()))
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
  size_t users = twimob::tweetdb::DefaultUsers();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v <= 0) {
        std::fprintf(stderr, "bad --users value: %s\n", argv[i]);
        return 1;
      }
      users = static_cast<size_t>(v);
    } else {
      std::fprintf(stderr, "usage: %s [--users N] [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  return twimob::tweetdb::Run(json_path, users);
}
