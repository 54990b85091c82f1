#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

#include "measure.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_next_request{1};

/// Owns every thread's buffer, so spans of joined client threads survive
/// until Collect().
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
  std::set<std::string, std::less<>> names;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // never destroyed: threads may outlive statics
  return *registry;
}

std::vector<Span>& ThreadBuffer() {
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    buffer = registry.buffers.back().get();
    buffer->reserve(1 << 14);
  }
  return *buffer;
}

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSynth: return "synth";
    case Layer::kTweetdb: return "tweetdb";
    case Layer::kCore: return "core";
    case Layer::kGeo: return "geo";
    case Layer::kMobility: return "mobility";
    case Layer::kEpi: return "epi";
    case Layer::kServe: return "serve";
  }
  return "unknown";
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t Tracer::Add(const char* name, Layer layer, double start, double end,
                     uint64_t parent, uint64_t request) {
  Span span;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start = start;
  span.end = end;
  ThreadBuffer().push_back(span);
  return span.id;
}

const char* Tracer::Intern(std::string_view name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.names.find(name);
  if (it == registry.names.end()) it = registry.names.emplace(name).first;
  return it->c_str();
}

std::vector<Span> Tracer::Collect() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

twimob::Status Tracer::WriteCsv(const std::vector<Span>& spans,
                                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return twimob::Status::IOError("cannot write " + path);
  std::fprintf(out, "id,parent,request,layer,name,start_us,end_us\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu,%llu,%llu,%s,%s,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), LayerName(s.layer),
                 s.name, s.start * 1e6, s.end * 1e6);
  }
  if (std::fclose(out) != 0) return twimob::Status::IOError("cannot close " + path);
  return twimob::Status::OK();
}

ScopedSpan::ScopedSpan(const char* name, Layer layer) {
  if (!Tracer::enabled()) return;
  active_ = true;
  name_ = name;
  layer_ = layer;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  request_ = parent_ == 0 ? g_next_request.fetch_add(1, std::memory_order_relaxed)
                          : t_current_request;
  t_current_span = id_;
  t_current_request = request_;
  start_ = Now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.name = name_;
  span.layer = layer_;
  span.start = start_;
  span.end = Now();
  ThreadBuffer().push_back(span);
  t_current_span = parent_;
  if (parent_ == 0) t_current_request = 0;
}

void AddStageSpans(const twimob::core::PipelineTrace& trace,
                   const ScopedSpan& parent) {
  if (!Tracer::enabled() || parent.id() == 0) return;
  auto layer_of = [](const std::string& name) {
    if (name == "recover") return Layer::kTweetdb;
    if (name.rfind("trips@", 0) == 0 || name.rfind("fit@", 0) == 0) {
      return Layer::kMobility;
    }
    return Layer::kCore;
  };
  double cursor = parent.start();
  std::vector<const twimob::core::StageRecord*> pending_subrecords;
  for (const twimob::core::StageRecord& record : trace.stages()) {
    if (record.name.find('/') != std::string::npos) {
      pending_subrecords.push_back(&record);
      continue;
    }
    const double start = cursor;
    const double end = start + record.wall_seconds;
    const uint64_t id =
        Tracer::Add(Tracer::Intern(record.name), layer_of(record.name), start,
                    end, parent.id(), parent.request());
    for (const twimob::core::StageRecord* sub : pending_subrecords) {
      Tracer::Add(Tracer::Intern(sub->name), layer_of(sub->name), start,
                  start + sub->wall_seconds, id, parent.request());
    }
    pending_subrecords.clear();
    cursor = end;
  }
}

std::array<double, kNumLayers> SelfSecondsByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::array<double, kNumLayers> self{};
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the span.
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_start = 0.0;
      double run_end = -1.0;
      for (const auto& [a, b] : intervals) {
        const double lo = std::max(a, s.start);
        const double hi = std::min(b, s.end);
        if (hi <= lo) continue;
        if (lo > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[static_cast<size_t>(s.layer)] +=
        std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

}  // namespace perfbench
