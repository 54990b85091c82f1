#include "tweetdb/generation_pins.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

namespace twimob::tweetdb {

namespace {

/// Process-wide pin registry. The mutex only guards pin bookkeeping —
/// snapshot open/close and writer commits — never the query read path.
struct PinRegistry {
  std::mutex mu;
  /// (path, generation) -> live pin count.
  std::map<std::pair<std::string, uint64_t>, uint64_t> pins;
  /// Files whose removal a commit deferred, keyed by (path, the last
  /// generation that references them).
  struct Deferred {
    uint64_t first = 0;  ///< the oldest generation that references them
    std::vector<std::string> files;
  };
  std::map<std::pair<std::string, uint64_t>, Deferred> deferred;

  /// True when a live pin names (path, g) for some g in [first, last]
  /// (requires `mu` held).
  bool AnyPinnedLocked(const std::string& path, uint64_t first, uint64_t last) const {
    auto it = pins.lower_bound({path, first});
    return it != pins.end() && it->first.first == path && it->first.second <= last;
  }

  /// Moves every deferral of `path` with no live pin in its range into
  /// `out` (requires `mu` held).
  void TakeUnpinnedLocked(const std::string& path, std::vector<std::string>* out) {
    for (auto it = deferred.lower_bound({path, 0});
         it != deferred.end() && it->first.first == path;) {
      if (AnyPinnedLocked(path, it->second.first, it->first.second)) {
        ++it;
        continue;
      }
      for (std::string& f : it->second.files) out->push_back(std::move(f));
      it = deferred.erase(it);
    }
  }

  static PinRegistry& Instance() {
    static PinRegistry* registry = new PinRegistry();  // never destructed
    return *registry;
  }
};

}  // namespace

GenerationPin::GenerationPin(std::string path, uint64_t generation)
    : path_(std::move(path)), generation_(generation), armed_(true) {
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.pins[{path_, generation_}];
}

GenerationPin::~GenerationPin() { Release(); }

GenerationPin::GenerationPin(GenerationPin&& other) noexcept
    : path_(std::move(other.path_)),
      generation_(other.generation_),
      armed_(other.armed_) {
  other.armed_ = false;
}

GenerationPin& GenerationPin::operator=(GenerationPin&& other) noexcept {
  if (this != &other) {
    Release();
    path_ = std::move(other.path_);
    generation_ = other.generation_;
    armed_ = other.armed_;
    other.armed_ = false;
  }
  return *this;
}

void GenerationPin::Release() {
  if (!armed_) return;
  armed_ = false;
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.pins.find({path_, generation_});
  if (it == r.pins.end()) return;
  if (--it->second == 0) r.pins.erase(it);
}

bool IsGenerationPinned(const std::string& path, uint64_t generation) {
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.AnyPinnedLocked(path, generation, generation);
}

std::vector<std::string> RetireFiles(const std::string& path, uint64_t first,
                                     uint64_t last, std::vector<std::string> files) {
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> out;
  r.TakeUnpinnedLocked(path, &out);
  if (files.empty()) return out;
  if (!r.AnyPinnedLocked(path, first, last)) {
    for (std::string& f : files) out.push_back(std::move(f));
    return out;
  }
  PinRegistry::Deferred& slot = r.deferred[{path, last}];
  slot.first = slot.files.empty() ? first : std::min(slot.first, first);
  for (std::string& f : files) slot.files.push_back(std::move(f));
  return out;
}

std::vector<std::string> TakeUnpinnedDeferredFiles(const std::string& path) {
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> out;
  r.TakeUnpinnedLocked(path, &out);
  return out;
}

namespace internal {

uint64_t GenerationPinCount(const std::string& path, uint64_t generation) {
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.pins.find({path, generation});
  return it == r.pins.end() ? 0 : it->second;
}

size_t DeferredGenerationCount(const std::string& path) {
  PinRegistry& r = PinRegistry::Instance();
  std::lock_guard<std::mutex> lock(r.mu);
  size_t n = 0;
  for (auto it = r.deferred.lower_bound({path, 0});
       it != r.deferred.end() && it->first.first == path; ++it) {
    ++n;
  }
  return n;
}

}  // namespace internal

}  // namespace twimob::tweetdb
