#ifndef TWIMOB_BENCH_BENCH_UTIL_H_
#define TWIMOB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "core/analysis_snapshot.h"
#include "core/stage_engine.h"
#include "synth/tweet_generator.h"
#include "tweetdb/table.h"

namespace twimob::bench {

/// Streaming writer for the machine-readable bench artifacts
/// (`BENCH_spatial.json`, `BENCH_tweetdb.json`, `BENCH_epi.json` — uploaded
/// by CI — and `ext_epidemic --json`). Emits
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
  JsonWriter& Field(const std::string& key, bool value);
  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }

  /// Bare array element (no key).
  JsonWriter& Value(double v);

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

/// Timed results are folded in here, so the timed work is never dead code.
inline volatile uint64_t timing_sink = 0;

/// The fastest of `repeats` calls of `fn`, in seconds. `fn` returns a
/// value derived from its work (a checksum, a count, a size).
template <typename Fn>
double BestOfSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repeats; ++i) {
    const double t0 = MonotonicSeconds();
    timing_sink = timing_sink + static_cast<uint64_t>(fn());
    best = std::min(best, MonotonicSeconds() - t0);
  }
  return best;
}

}  // namespace twimob::bench

#endif  // TWIMOB_BENCH_BENCH_UTIL_H_
