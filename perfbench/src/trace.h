// In-memory span recorder for the traced run (`--trace 1`).
//
// Spans are recorded only in the benchmark's own code, around each call
// into a public twimob function; a pipeline's stage records
// (`AnalysisSnapshot::result().trace`) are added as child spans of the
// call that produced them. Spans stay in per-thread buffers until the run
// ends, then are written out once and reduced to per-layer self time.

#ifndef TWIMOB_PERFBENCH_TRACE_H_
#define TWIMOB_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/analysis_context.h"

namespace perfbench {

/// The repository's modules, which the benchmark reports layers by.
enum class Layer : uint8_t {
  kSynth,
  kTweetdb,
  kCore,
  kGeo,
  kMobility,
  kEpi,
  kServe,
};
inline constexpr size_t kNumLayers = 7;
const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< shared by every span of one top-level call
  const char* name = "";  ///< a literal or an interned string
  Layer layer = Layer::kServe;
  double start = 0.0;  ///< perfbench::Now() seconds
  double end = 0.0;
};

/// Process-wide switch and sink. Recording is off until Enable(true); a
/// disabled ScopedSpan costs one relaxed load.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Records a finished span (used for stage records). Returns its id.
  static uint64_t Add(const char* name, Layer layer, double start, double end,
                      uint64_t parent, uint64_t request);

  /// Stable storage for a dynamic span name (e.g. "trips@National").
  static const char* Intern(std::string_view name);

  /// Every span recorded so far, from every thread. Call only after the
  /// recording threads have been joined.
  static std::vector<Span> Collect();

  /// Writes the spans as CSV (id,parent,request,layer,name,start_us,end_us).
  static twimob::Status WriteCsv(const std::vector<Span>& spans,
                                 const std::string& path);
};

/// Records one span around a scope; nests under the thread's current span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  uint64_t request() const { return request_; }
  double start() const { return start_; }

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  const char* name_ = "";
  Layer layer_ = Layer::kServe;
  double start_ = 0.0;
};

/// Adds a pipeline's stage records as child spans of `parent`, laid end to
/// end from `start` in completion order (stages run one after another).
/// Composite sub-records ("fit@X/Model") become children of the stage
/// that follows them and start with it: the fits run concurrently. The
/// "recover" record is the storage read, so it is a tweetdb span;
/// trips@ and fit@ stages are mobility; every other stage is core.
void AddStageSpans(const twimob::core::PipelineTrace& trace,
                   const ScopedSpan& parent);

/// Self time per layer: each span's duration minus the union of its
/// children's intervals, summed by layer.
std::array<double, kNumLayers> SelfSecondsByLayer(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // TWIMOB_PERFBENCH_TRACE_H_
