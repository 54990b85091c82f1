#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "common/time_util.h"
#include "core/report.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/storage_env.h"

namespace twimob::bench {

namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  auto parsed = ParseInt64(value);
  if (!parsed.ok() || *parsed <= 0) return fallback;
  return static_cast<uint64_t>(*parsed);
}

/// Corpus seed; override with TWIMOB_BENCH_SEED.
uint64_t BenchSeed() { return EnvOr("TWIMOB_BENCH_SEED", 20150413); }

}  // namespace

JsonWriter& JsonWriter::BeginObject(const std::string& key) {
  Prefix(key);
  out_ += '{';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_elements_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray(const std::string& key) {
  Prefix(key);
  out_ += '[';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_elements_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, double value) {
  Prefix(key);
  // %.17g round-trips every finite double; JSON has no NaN/Inf literal.
  if (std::isfinite(value)) {
    out_ += StrFormat("%.17g", value);
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, uint64_t value) {
  Prefix(key);
  out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, bool value) {
  Prefix(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, const std::string& value) {
  Prefix(key);
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(double v) { return Field("", v); }

void JsonWriter::Prefix(const std::string& key) {
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
  if (!key.empty()) {
    out_ += '"';
    out_ += key;  // keys are programmer-chosen identifiers, no escaping needed
    out_ += "\":";
  }
}

Status JsonWriter::WriteFile(const std::string& path) const {
  // Atomic tmp + rename: a crash mid-write leaves either the previous
  // artifact or the complete new one, never a torn JSON document.
  return tweetdb::AtomicWriteFile(*tweetdb::Env::Default(), path, out_ + "\n");
}

size_t BenchUserCount() {
  // Paper scale by default (Table I: 473,956 unique users).
  return static_cast<size_t>(EnvOr("TWIMOB_BENCH_USERS", 473956));
}

synth::CorpusConfig BenchCorpusConfig() {
  synth::CorpusConfig config;
  config.num_users = BenchUserCount();
  config.seed = BenchSeed();
  return config;
}

std::string CorpusCachePath() {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr ? tmp : "/tmp";
  // The storage format version is part of the key, so a format bump can
  // never make the benches analyse a stale cache written by an older build.
  return StrFormat("%s/twimob_bench_corpus_v%u_u%zu_s%llu.twdb", dir.c_str(),
                   tweetdb::kBinaryFormatVersion, BenchUserCount(),
                   static_cast<unsigned long long>(BenchSeed()));
}

Result<tweetdb::TweetTable> LoadOrGenerateCorpus() {
  const std::string cache = CorpusCachePath();
  tweetdb::Env& env = *tweetdb::Env::Default();
  {
    auto cached = tweetdb::ReadBinaryFile(cache);
    if (cached.ok()) {
      std::fprintf(stderr, "[bench] loaded cached corpus %s (%zu tweets)\n",
                   cache.c_str(), cached->num_rows());
      // Cached corpora were compacted before writing; restore the flag.
      cached->CompactByUserTime();
      return cached;
    }
    if (env.FileExists(cache)) {
      // The file is there but failed checksum/format verification — a relic
      // of a crashed bench run or an older build. Never analyse it: delete
      // and regenerate from the seed.
      std::fprintf(stderr,
                   "[bench] cache %s failed verification (%s); regenerating\n",
                   cache.c_str(), cached.status().ToString().c_str());
      (void)env.RemoveFile(cache);
    }
  }

  std::fprintf(stderr, "[bench] generating corpus: %zu users, seed %llu...\n",
               BenchUserCount(), static_cast<unsigned long long>(BenchSeed()));
  const double t0 = MonotonicSeconds();
  auto generator = synth::TweetGenerator::Create(BenchCorpusConfig());
  if (!generator.ok()) return generator.status();
  auto table = generator->Generate();
  if (!table.ok()) return table.status();
  table->CompactByUserTime();
  std::fprintf(stderr, "[bench] generated %zu tweets in %.1fs\n",
               table->num_rows(), MonotonicSeconds() - t0);

  Status persisted = tweetdb::WriteBinaryFile(*table, cache);
  if (persisted.ok()) {
    std::fprintf(stderr, "[bench] cached to %s\n", cache.c_str());
  } else {
    std::fprintf(stderr, "[bench] cache write failed (%s); continuing\n",
                 persisted.ToString().c_str());
  }
  return table;
}

Result<core::AnalysisSnapshot> AnalyzeCorpus(core::AnalysisContext& ctx,
                                             tweetdb::TweetTable table,
                                             const core::PipelineConfig& config) {
  auto snapshot = core::AnalysisSnapshot::Analyze(
      tweetdb::TweetDataset::FromTable(std::move(table)), config, {}, &ctx);
  if (!snapshot.ok()) return snapshot.status();
  std::fprintf(stderr, "[bench] %zu threads\n%s", ctx.num_threads(),
               core::RenderTraceTable(snapshot->result().trace).c_str());
  return snapshot;
}

}  // namespace twimob::bench
