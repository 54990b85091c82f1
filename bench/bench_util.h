#ifndef TWIMOB_BENCH_BENCH_UTIL_H_
#define TWIMOB_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/analysis_snapshot.h"
#include "core/stage_engine.h"
#include "synth/tweet_generator.h"
#include "tweetdb/table.h"

namespace twimob::bench {

/// Streaming writer for the machine-readable bench artifacts
/// (`BENCH_pipeline.json`, `BENCH_spatial.json` — uploaded by CI). Emits
/// one JSON document: open containers with BeginObject/BeginArray, add
/// scalars with Field/Value, close with EndObject/EndArray; commas and
/// string escaping are handled internally. Numbers print with enough
/// digits to round-trip doubles.
class JsonWriter {
 public:
  JsonWriter& BeginObject(const std::string& key = "");
  JsonWriter& EndObject();
  JsonWriter& BeginArray(const std::string& key = "");
  JsonWriter& EndArray();

  JsonWriter& Field(const std::string& key, double value);
  JsonWriter& Field(const std::string& key, uint64_t value);
  JsonWriter& Field(const std::string& key, int value) {
    return Field(key, static_cast<uint64_t>(value));
  }
  JsonWriter& Field(const std::string& key, bool value);
  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }

  /// Bare array element (no key).
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(const std::string& v);

  /// The document so far (valid JSON once every container is closed).
  const std::string& ToString() const { return out_; }

  /// Writes the document to `path` with a trailing newline.
  Status WriteFile(const std::string& path) const;

 private:
  void Prefix(const std::string& key);

  std::string out_;
  std::vector<bool> has_elements_;  ///< per open container: needs a comma
};

/// Scale of the experiment corpora. Defaults to the paper's full scale
/// (473,956 users ≈ 6.3M tweets); override with the environment variable
/// TWIMOB_BENCH_USERS (e.g. =50000 for a quick pass).
size_t BenchUserCount();

/// Corpus seed; override with TWIMOB_BENCH_SEED.
uint64_t BenchSeed();

/// The bench corpus config at the chosen scale.
synth::CorpusConfig BenchCorpusConfig();

/// Returns the (user,time)-compacted bench corpus, generating it on first
/// use and caching it as a binary table under $TMPDIR so subsequent bench
/// binaries skip generation. Prints progress to stderr.
Result<tweetdb::TweetTable> LoadOrGenerateCorpus();

/// Cache file path for the current scale/seed.
std::string CorpusCachePath();

/// Analyses `table` — wrapped as a single-shard dataset, bytes preserved —
/// with the staged engine's analysis stages for `config` on `ctx`'s pool
/// (AnalysisSnapshot::Analyze), then prints the per-stage trace table to
/// stderr. The benches compose their experiments on top of the snapshot's
/// result and estimator instead of hand-wiring the corpus → population →
/// trips → fit sequence.
Result<core::AnalysisSnapshot> AnalyzeCorpus(core::AnalysisContext& ctx,
                                             tweetdb::TweetTable table,
                                             const core::PipelineConfig& config);

}  // namespace twimob::bench

#endif  // TWIMOB_BENCH_BENCH_UTIL_H_
