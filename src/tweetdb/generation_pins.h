#ifndef TWIMOB_TWEETDB_GENERATION_PINS_H_
#define TWIMOB_TWEETDB_GENERATION_PINS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace twimob::tweetdb {

/// RAII refcount on one (dataset path, generation) pair.
///
/// Every file a pinned generation references — its shard files, including
/// those carried from an earlier generation, and its delta files — is
/// exempt from the best-effort GC that `WriteDatasetFiles` and
/// `IngestWriter::Compact` run after a commit: the writer defers their
/// removal instead of deleting them, and a later commit sweeps the deferred
/// files once the pin count drops to zero. Readers that
/// keep a generation open across writer commits — the serve layer's
/// `AnalysisSnapshot` — hold a pin for the snapshot's lifetime, so a commit
/// can never delete shard files out from under a reader that is still
/// loading (or re-reading) them.
///
/// Pins are process-local and keyed by the exact path string: the reader
/// and the writer must name the dataset with the same string (the serve
/// layer and the benches do). Cross-process pinning is out of scope — the
/// MVCC substrate assumes a single writer process.
class GenerationPin {
 public:
  /// An empty pin (pins nothing; `armed()` is false).
  GenerationPin() = default;

  /// Registers one reference on (path, generation).
  GenerationPin(std::string path, uint64_t generation);

  /// Releases the reference (no-op for empty / moved-from pins).
  ~GenerationPin();

  GenerationPin(GenerationPin&& other) noexcept;
  GenerationPin& operator=(GenerationPin&& other) noexcept;
  GenerationPin(const GenerationPin&) = delete;
  GenerationPin& operator=(const GenerationPin&) = delete;

  /// True when this pin currently holds a reference.
  bool armed() const { return armed_; }
  const std::string& path() const { return path_; }
  uint64_t generation() const { return generation_; }

  /// Releases the reference early (idempotent).
  void Release();

 private:
  std::string path_;
  uint64_t generation_ = 0;
  bool armed_ = false;
};

/// True when at least one live GenerationPin references (path, generation).
bool IsGenerationPinned(const std::string& path, uint64_t generation);

/// The GC decision for files a commit superseded: `files` are referenced
/// by every generation of `path` from `first` (the oldest file's birth
/// generation) to `last` (the superseded generation) and by none after.
/// They are returned for removal now when none of those generations is
/// pinned; otherwise their removal is deferred until every such pin is
/// released. The result also holds every earlier deferral of `path` whose
/// pins have all been released. The caller removes the returned files.
/// `WriteDatasetFiles` and `IngestWriter::Compact` call this after each
/// commit; nothing on the append path does.
std::vector<std::string> RetireFiles(const std::string& path, uint64_t first,
                                     uint64_t last, std::vector<std::string> files);

/// Takes (and forgets) every deferral of `path` whose pins have all been
/// released (RetireFiles' sweep with nothing new to retire). The caller
/// removes the returned files.
std::vector<std::string> TakeUnpinnedDeferredFiles(const std::string& path);

namespace internal {

/// Current pin count of (path, generation) — test-only introspection.
uint64_t GenerationPinCount(const std::string& path, uint64_t generation);

/// Number of generations of `path` with deferred files — test-only.
size_t DeferredGenerationCount(const std::string& path);

}  // namespace internal

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_GENERATION_PINS_H_
