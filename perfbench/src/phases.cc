#include "phases.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "census/census_data.h"
#include "geo/geodesic.h"
#include "random/rng.h"
#include "synth/tweet_generator.h"
#include "trace.h"
#include "tweetdb/binary_codec.h"

namespace perfbench {

namespace tw = twimob;
using tw::Status;

namespace {

/// Added to copied user ids so the cross-check stream never collides with
/// a committed user.
constexpr uint64_t kFreshUserOffset = 1000000000ULL;
/// The cross-check stream of a full-corpus workload copies these users.
constexpr uint64_t kCopiedUsers = kUsers / 10;
/// Upper bound on open pairs, whatever the time budget.
constexpr size_t kMaxOpenPairs = 200;
/// Requests per client replayed by the single-client reference pass.
constexpr size_t kCheckedPerClient = 500;
/// Pre-generated 256-point query batches shared by all clients.
constexpr size_t kPointSets = 64;
constexpr size_t kPointsPerBatch = 256;
/// Messages kept per failure source (the count is always exact).
constexpr size_t kMaxMessages = 8;
/// Radius of the live loop's probe query, centred on the batch's first row.
constexpr double kProbeRadiusM = 1000.0;

tw::tweetdb::PartitionSpec Partition(const tw::core::PipelineConfig& config) {
  return tw::tweetdb::PartitionSpec::ForWindow(
      config.corpus.window_start, config.corpus.window_end, kShards);
}

bool TimeOrder(const tw::tweetdb::Tweet& a, const tw::tweetdb::Tweet& b) {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  return tw::tweetdb::UserTimeLess(a, b);
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

uint64_t MixDouble(uint64_t h, double v) { return Mix(h, std::bit_cast<uint64_t>(v)); }

/// Wall seconds of the stage records of one analysis, by paper stage.
struct StageWalls {
  double recover = 0.0;
  double compact = 0.0;
  double index = 0.0;
  double population = 0.0;
  double trips = 0.0;
  double fit = 0.0;
  double top_level = 0.0;  ///< sum over every non-composite record
  uint64_t rows_scanned = 0;
  uint64_t blocks_pruned = 0;
};

StageWalls Walls(const tw::core::PipelineTrace& trace) {
  StageWalls w;
  for (const tw::core::StageRecord& r : trace.stages()) {
    if (r.name.find('/') != std::string::npos) continue;  // inside its parent
    w.top_level += r.wall_seconds;
    if (r.has_scan) {
      w.rows_scanned += r.scan.rows_scanned;
      w.blocks_pruned += r.scan.blocks_pruned;
    }
    if (r.name == "recover") {
      w.recover += r.wall_seconds;
    } else if (r.name == "compact") {
      w.compact += r.wall_seconds;
    } else if (r.name == "index") {
      w.index += r.wall_seconds;
    } else if (r.name == "population") {
      w.population += r.wall_seconds;
    } else if (r.name.rfind("trips@", 0) == 0) {
      w.trips += r.wall_seconds;
    } else if (r.name.rfind("fit@", 0) == 0) {
      w.fit += r.wall_seconds;
    }
  }
  return w;
}

}  // namespace

// --- RunState -----------------------------------------------------------

void RunState::Op(const Status& status, const char* what) {
  ++attempted;
  if (status.ok()) return;
  ++failed;
  if (failures.size() < kMaxMessages) {
    failures.push_back(std::string(what) + ": " + status.ToString());
  }
}

void RunState::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxMessages) failures.push_back("check failed: " + what);
}

void RunState::Merge(uint64_t ops, uint64_t failures_seen,
                     const std::vector<std::string>& messages) {
  attempted += ops;
  failed += failures_seen;
  for (const std::string& m : messages) {
    if (failures.size() < kMaxMessages) failures.push_back(m);
  }
}

// --- Setup --------------------------------------------------------------

tw::core::PipelineConfig BenchConfig(uint64_t seed) {
  tw::core::PipelineConfig config;
  config.corpus.seed = seed;
  config.corpus.num_users = kUsers;
  config.num_shards = kShards;
  return config;
}

namespace {

Status OpenCatalog(RunState& rs, Workspace& ws) {
  tw::serve::CatalogOptions options;
  options.analysis = ws.config;
  options.num_threads = rs.budget.open_workers;
  ScopedSpan span("serve.SnapshotCatalog::Open", Layer::kServe);
  auto catalog = tw::serve::SnapshotCatalog::Open(ws.path, options);
  rs.Op(catalog.status(), "catalog open");
  if (!catalog.ok()) return catalog.status();
  ws.catalog = std::move(*catalog);
  AddStageSpans(ws.catalog->Current()->result().trace, span);
  ws.probe_service = std::make_unique<tw::serve::QueryService>(ws.catalog.get());
  return Status::OK();
}

Status OpenWriter(RunState& rs, Workspace& ws) {
  tw::tweetdb::IngestOptions options;
  options.partition = Partition(ws.config);
  ScopedSpan span("tweetdb.IngestWriter::Open", Layer::kTweetdb);
  auto writer = tw::tweetdb::IngestWriter::Open(ws.path, options);
  rs.Op(writer.status(), "writer open");
  if (!writer.ok()) return writer.status();
  ws.writer = std::move(*writer);
  return Status::OK();
}

}  // namespace

Status SetUp(RunState& rs, const std::string& dir, SetupKind kind,
             bool open_catalog, Workspace* ws) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  ws->dir = dir;
  ws->path = dir + "/corpus.twdb";
  ws->config = BenchConfig(rs.seed);

  tw::tweetdb::TweetDataset corpus;
  {
    ScopedSpan span("synth.TweetGenerator::GenerateDataset", Layer::kSynth);
    auto generator = tw::synth::TweetGenerator::Create(ws->config.corpus);
    rs.Op(generator.status(), "generator");
    if (!generator.ok()) return generator.status();
    auto dataset = generator->GenerateDataset(Partition(ws->config));
    rs.Op(dataset.status(), "generate");
    if (!dataset.ok()) return dataset.status();
    corpus = std::move(*dataset);
  }

  ws->stream.clear();
  ws->stream_cursor = 0;
  if (kind == SetupKind::kFullCorpus) {
    corpus.ForEachRow([ws](const tw::tweetdb::Tweet& t) {
      if (t.user_id > kCopiedUsers) return;
      tw::tweetdb::Tweet copy = t;
      copy.user_id += kFreshUserOffset;
      ws->stream.push_back(copy);
    });
  } else {
    std::vector<tw::tweetdb::Tweet> history;
    corpus.ForEachRow([ws, &history](const tw::tweetdb::Tweet& t) {
      (t.user_id <= kUsers / 2 ? history : ws->stream).push_back(t);
    });
    // Drop the generated corpus first, so setup's peak memory stays below
    // what the live loop itself needs.
    corpus = tw::tweetdb::TweetDataset();
    tw::tweetdb::TweetDataset committed(Partition(ws->config));
    const Status appended = committed.AppendBatch(history);
    rs.Op(appended, "history append");
    if (!appended.ok()) return appended;
    committed.SealAll();
    {
      ScopedSpan span("tweetdb.TweetDataset::CompactShards", Layer::kTweetdb);
      committed.CompactShards();
    }
    corpus = std::move(committed);
  }
  std::sort(ws->stream.begin(), ws->stream.end(), TimeOrder);

  {
    ScopedSpan span("tweetdb.WriteDatasetFiles", Layer::kTweetdb);
    const Status written = tw::tweetdb::WriteDatasetFiles(corpus, ws->path);
    rs.Op(written, "write dataset");
    if (!written.ok()) return written;
  }
  if (open_catalog) return OpenCatalog(rs, *ws);
  return Status::OK();
}

Status EnsureLive(RunState& rs, Workspace& ws) {
  if (ws.catalog == nullptr) {
    const Status opened = OpenCatalog(rs, ws);
    if (!opened.ok()) return opened;
  }
  if (ws.writer == nullptr) return OpenWriter(rs, ws);
  return Status::OK();
}

// --- Bitwise output checks ---------------------------------------------

std::vector<double> Flatten(const tw::core::AnalysisSnapshot& snapshot) {
  const tw::core::PipelineResult& result = snapshot.result();
  std::vector<double> out;
  for (const auto& scale : result.population) {
    out.push_back(scale.rescale_factor);
    out.push_back(scale.median_users);
    out.push_back(scale.correlation.r);
    out.push_back(scale.correlation.p_value);
    for (const auto& area : scale.areas) {
      out.push_back(static_cast<double>(area.unique_users));
      out.push_back(static_cast<double>(area.tweet_count));
      out.push_back(area.rescaled_estimate);
    }
  }
  out.push_back(result.pooled_population_correlation.r);
  for (const auto& scale : result.mobility) {
    out.push_back(static_cast<double>(scale.extraction.consecutive_pairs));
    out.push_back(static_cast<double>(scale.extraction.inter_area_trips));
    for (const auto& obs : scale.observations) {
      out.push_back(static_cast<double>(obs.src));
      out.push_back(static_cast<double>(obs.dst));
      out.push_back(obs.flow);
    }
    for (const auto& model : scale.models) {
      out.push_back(model.log10_c);
      out.push_back(model.alpha);
      out.push_back(model.beta);
      out.push_back(model.gamma);
      out.push_back(model.metrics.pearson_r);
      out.push_back(model.metrics.rmsle);
      out.insert(out.end(), model.estimated.begin(), model.estimated.end());
    }
  }
  return out;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double TracingSplit::OverheadPct() const {
  const double untraced_median = untraced.Median();
  return untraced_median > 0.0 ? (traced.Median() / untraced_median - 1.0) * 100.0 : 0.0;
}

// --- Cold loop ----------------------------------------------------------

namespace {

/// One timed cold open. Returns the snapshot (null on failure); the
/// catalog itself is dropped, so only the returned pointer pins the data.
std::shared_ptr<const tw::core::AnalysisSnapshot> OpenOnce(
    RunState& rs, const Workspace& ws, size_t workers, double* wall_s,
    double* cpu_s) {
  tw::serve::CatalogOptions options;
  options.analysis = ws.config;
  options.num_threads = workers;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  ScopedSpan span("serve.SnapshotCatalog::Open", Layer::kServe);
  auto catalog = tw::serve::SnapshotCatalog::Open(ws.path, options);
  *wall_s = Now() - t0;
  *cpu_s = ProcessCpuSeconds() - cpu0;
  rs.Op(catalog.status(), "cold open");
  if (!catalog.ok()) return nullptr;
  std::shared_ptr<const tw::core::AnalysisSnapshot> snapshot = (*catalog)->Current();
  AddStageSpans(snapshot->result().trace, span);
  return snapshot;
}

}  // namespace

void RunColdLoop(RunState& rs, Workspace& ws, double seconds, size_t min_pairs,
                 std::vector<double> reference, bool alternate_tracing,
                 ColdResult* out) {
  auto open_and_check = [&](bool one_worker, bool record) {
    const size_t workers = one_worker ? 1 : rs.budget.open_workers;
    double wall = 0.0;
    double cpu = 0.0;
    auto snapshot = OpenOnce(rs, ws, workers, &wall, &cpu);
    if (snapshot == nullptr) return false;
    const std::vector<double> flat = Flatten(*snapshot);
    if (reference.empty()) reference = flat;
    rs.Check(BitwiseEqual(flat, reference),
             "cold open at " + std::to_string(workers) +
                 " worker(s) differs bitwise from the reference snapshot");
    if (!record) return true;
    const StageWalls w = Walls(snapshot->result().trace);
    if (one_worker) {
      out->open_1w_s.Add(wall);
      out->index_1w_s.Add(w.index);
      out->trips_1w_s.Add(w.trips);
      out->cpu_per_wall_1w.Add(cpu / wall);
    } else {
      out->open_s.Add(wall);
      out->compact_s.Add(w.compact);
      out->index_s.Add(w.index);
      out->population_s.Add(w.population);
      out->trips_s.Add(w.trips);
      out->fit_s.Add(w.fit);
      out->seal_s.Add(std::max(0.0, wall - w.top_level));
      out->cpu_per_wall.Add(cpu / wall);
      out->rss_open_mb.Add(CurrentRssMb());
      out->rows_scanned = w.rows_scanned;
      out->blocks_pruned = w.blocks_pruned;
    }
    return true;
  };

  // The first open of a process is a 1.5-2x outlier (page cache, allocator
  // growth): one discarded pair.
  if (!open_and_check(false, false)) return;
  if (!open_and_check(true, false)) return;
  const double start = Now();
  size_t pairs = 0;
  while ((Now() - start < seconds || pairs < min_pairs) && pairs < kMaxOpenPairs) {
    const bool traced = pairs % 2 == 1;
    if (alternate_tracing) Tracer::Enable(traced);
    if (!open_and_check(false, true)) return;
    if (alternate_tracing) {
      (traced ? out->tracing.traced : out->tracing.untraced).Add(out->open_s.values().back());
    }
    if (!open_and_check(true, true)) return;
    ++pairs;
  }
}

// --- Live loop ----------------------------------------------------------

void RunLiveLoop(RunState& rs, Workspace& ws, size_t warmup, size_t samples,
                 bool alternate_tracing, LiveResult* out) {
  if (!EnsureLive(rs, ws).ok()) return;
  tw::ThreadPool compact_pool(rs.budget.open_workers);
  size_t taken = 0;
  while (taken < warmup + samples) {
    if (ws.stream_cursor + kBatchRows > ws.stream.size()) {
      rs.Check(false, "live stream exhausted before the last sample");
      return;
    }
    const std::vector<tw::tweetdb::Tweet> batch(
        ws.stream.begin() + ws.stream_cursor,
        ws.stream.begin() + ws.stream_cursor + kBatchRows);
    ws.stream_cursor += kBatchRows;
    // Tracing alternates per sample, and its phase flips every compaction
    // cycle, so traced and untraced samples see the same dataset sizes
    // and the same positions within a cycle.
    const bool traced = (taken + taken / kCompactEvery) % 2 == 1;
    if (alternate_tracing) Tracer::Enable(traced);

    // The probe must count exactly the batch rows inside its disc more
    // than the same query did before the append. Rows within 1% of the
    // radius may fall either way (stored positions are rounded).
    const tw::geo::LatLon probe_at = batch.front().pos;
    size_t inside_min = 0;
    size_t inside_max = 0;
    for (const tw::tweetdb::Tweet& t : batch) {
      const double d = tw::geo::HaversineMeters(probe_at, t.pos);
      inside_min += d <= 0.99 * kProbeRadiusM ? 1 : 0;
      inside_max += d <= 1.01 * kProbeRadiusM ? 1 : 0;
    }
    size_t tweets_before = 0;
    {
      auto before = ws.probe_service->Population(probe_at, kProbeRadiusM);
      rs.Op(before.status(), "probe before append");
      if (before.ok()) tweets_before = before->tweets;
    }

    const double t0 = Now();
    Status appended;
    {
      ScopedSpan span("tweetdb.IngestWriter::AppendBatch", Layer::kTweetdb);
      appended = ws.writer->AppendBatch(batch);
    }
    const double t1 = Now();
    rs.Op(appended, "append");
    if (!appended.ok()) return;
    bool swapped = false;
    {
      ScopedSpan span("serve.SnapshotCatalog::Refresh", Layer::kServe);
      auto refreshed = ws.catalog->Refresh();
      rs.Op(refreshed.status(), "refresh");
      if (!refreshed.ok()) return;
      swapped = *refreshed;
      AddStageSpans(ws.catalog->Current()->result().trace, span);
    }
    const double t2 = Now();
    size_t probe_tweets = 0;
    {
      ScopedSpan span("serve.QueryService::Population", Layer::kServe);
      auto probe = ws.probe_service->Population(probe_at, kProbeRadiusM);
      rs.Op(probe.status(), "probe");
      if (probe.ok()) probe_tweets = probe->tweets;
    }
    const double t3 = Now();
    ++taken;

    // The probe must answer at the commit the append just made, and see
    // the appended rows.
    const uint64_t committed_seq = ws.writer->manifest().next_delta_seq;
    rs.Check(swapped, "refresh after an append did not swap in a snapshot");
    rs.Check(ws.probe_service->snapshot()->ingest_seq() == committed_seq,
             "probe answered at ingest_seq " +
                 std::to_string(ws.probe_service->snapshot()->ingest_seq()) +
                 ", expected " + std::to_string(committed_seq));
    rs.Check(probe_tweets >= tweets_before + inside_min &&
                 probe_tweets <= tweets_before + inside_max,
             "probe counted " + std::to_string(probe_tweets) + " tweets, " +
                 std::to_string(tweets_before) + " before the append plus " +
                 std::to_string(inside_min) + "-" + std::to_string(inside_max) +
                 " appended ones expected");

    const double t4 = Now();
    auto noop = ws.catalog->Refresh();
    const double t5 = Now();
    rs.Op(noop.status(), "no-op refresh");
    rs.Check(noop.ok() && !*noop, "refresh with no new commit swapped a snapshot");

    if (taken > warmup) {
      out->fresh_ms.Add((t3 - t0) * 1e3);
      if (alternate_tracing) {
        (traced ? out->tracing.traced : out->tracing.untraced).Add((t3 - t0) * 1e3);
      }
      out->append_ms.Add((t1 - t0) * 1e3);
      out->refresh_ms.Add((t2 - t1) * 1e3);
      out->noop_us.Add((t5 - t4) * 1e6);
      out->rss_refresh_mb.Add(CurrentRssMb());
    }

    const size_t pending = ws.writer->pending_deltas();
    out->pending_deltas_max = std::max(out->pending_deltas_max, pending);
    if (pending >= kCompactEvery) {
      auto described = tw::tweetdb::DescribeDataset(ws.path);
      rs.Op(described.status(), "describe dataset");
      if (described.ok()) {
        uint64_t delta_rows = 0;
        for (const auto& d : described->deltas) delta_rows += d.rows;
        if (delta_rows > 0) {
          out->bytes_per_row.Add(static_cast<double>(described->delta_bytes) /
                                 static_cast<double>(delta_rows));
        }
      }
      const double c0 = Now();
      tw::Result<bool> compacted = false;
      {
        ScopedSpan span("tweetdb.IngestWriter::Compact", Layer::kTweetdb);
        compacted = ws.writer->Compact(&compact_pool);
      }
      const double c1 = Now();
      rs.Op(compacted.status(), "compact");
      if (!compacted.ok()) return;
      rs.Check(*compacted, "compaction with pending deltas did nothing");
      if (taken > warmup) out->compact_s.Add(c1 - c0);
    }
  }
}

// --- Serve loop ---------------------------------------------------------

namespace {

enum class Kind : uint8_t {
  kPopulation,
  kPointBatch,
  kOdFlow,
  kPredict,
  kWhatIfHot,
  kWhatIfDistinct,
};

struct PointSet {
  std::vector<double> lats;
  std::vector<double> lons;
};

/// Scenario grid shape shared by every what-if request: 3 scales x 2 betas
/// x 2 mobility reductions x 2 seed areas = 24 scenarios.
tw::epi::SweepGrid MakeGrid(double beta) {
  tw::epi::SweepGrid grid;
  grid.scales = {0, 1, 2};
  grid.betas = {beta, beta + 0.1};
  grid.mobility_reductions = {0.0, 0.3};
  grid.seed_areas = {0, 1};
  return grid;
}

/// The hot pool: half the cache capacity. The cache evicts in insertion
/// order, so the distinct grids streaming through still push hot ones out.
const std::vector<tw::epi::SweepGrid>& HotGrids() {
  static const std::vector<tw::epi::SweepGrid> grids = {
      MakeGrid(0.40), MakeGrid(0.45), MakeGrid(0.50), MakeGrid(0.55)};
  return grids;
}

/// A grid no other request of any stream uses: its first beta encodes
/// (stream, ordinal), which keeps it apart from every hot grid.
tw::epi::SweepGrid DistinctGrid(uint64_t stream_id, uint64_t ordinal) {
  return MakeGrid(0.25 + 1e-10 * static_cast<double>(stream_id * 1000000 + ordinal));
}

const std::vector<tw::census::Area>& AllAreaCentres() {
  static const std::vector<tw::census::Area> areas = tw::census::AllAreas();
  return areas;
}

/// Population-within-radius queries, stratified so that every seed asks
/// nearly the same mix of query sizes: the k-th query visits the 60 area
/// centres in rotation and takes its radius from a golden-ratio sequence
/// over [1, 20] km. The seed sets both phases and the centre jitter
/// (+-0.05 degrees). Random areas and radii instead made the p50 and p99
/// of a few thousand queries depend on which large queries a seed drew.
class PopulationQueries {
 public:
  explicit PopulationQueries(uint64_t seed)
      : rng_(seed),
        area_phase_(rng_.NextUint64(AllAreaCentres().size())),
        radius_phase_(rng_.NextDouble()) {}

  void Next(tw::geo::LatLon* center, double* radius_m) {
    const std::vector<tw::census::Area>& areas = AllAreaCentres();
    const tw::census::Area& area = areas[(area_phase_ + k_) % areas.size()];
    const double u =
        std::fmod(radius_phase_ + 0.6180339887498949 * static_cast<double>(k_), 1.0);
    ++k_;
    *center = {area.center.lat + rng_.NextUniform(-0.05, 0.05),
               area.center.lon + rng_.NextUniform(-0.05, 0.05)};
    *radius_m = 1000.0 + 19000.0 * u;
  }

 private:
  tw::random::Xoshiro256 rng_;
  uint64_t area_phase_;
  double radius_phase_;
  uint64_t k_ = 0;
};

struct Request {
  Kind kind = Kind::kOdFlow;
  size_t scale = 0;
  tw::geo::LatLon center;
  double radius_m = 0.0;
  size_t point_set = 0;
  size_t src = 0;
  size_t dst = 0;
  size_t model = 0;
  size_t hot = 0;
  uint64_t distinct = 0;
};

/// The request mix of every block of 20 consecutive requests, dealt in a
/// seeded order. The first 16 are the mixed workload of bench/perf_server:
/// 1 population-within-radius, 6 PointEstimateBatch, 5 OdFlow and
/// 4 Predict. The other 4 add what-if traffic, an assumed 20% share:
/// 3 WhatIf on a hot-pool grid and 1 on a distinct grid (always a miss).
constexpr size_t kDeckSize = 20;
std::array<Kind, kDeckSize> MixDeck() {
  std::array<Kind, kDeckSize> deck{};
  size_t i = 0;
  auto deal = [&](Kind kind, size_t n) {
    for (size_t k = 0; k < n; ++k) deck[i++] = kind;
  };
  deal(Kind::kPopulation, 1);
  deal(Kind::kPointBatch, 6);
  deal(Kind::kOdFlow, 5);
  deal(Kind::kPredict, 4);
  deal(Kind::kWhatIfHot, 3);
  deal(Kind::kWhatIfDistinct, 1);
  return deck;
}

/// A deterministic request stream: the same (seed, stream id) always
/// yields the same requests.
class RequestStream {
 public:
  RequestStream(uint64_t seed, uint64_t stream_id)
      : rng_(Mix(seed, stream_id)),
        population_(Mix(Mix(seed, stream_id), 0x706f70ULL)),
        stream_id_(stream_id),
        deck_(MixDeck()) {}

  Request Next() {
    if (dealt_ == kDeckSize) dealt_ = 0;
    if (dealt_ == 0) {
      // Fisher-Yates: each block of kDeckSize holds the exact mix.
      for (size_t i = kDeckSize - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.NextUint64(i + 1)]);
      }
    }
    Request r;
    r.kind = deck_[dealt_++];
    r.scale = rng_.NextUint64(3);
    switch (r.kind) {
      case Kind::kPopulation: population_.Next(&r.center, &r.radius_m); break;
      case Kind::kPointBatch: r.point_set = rng_.NextUint64(kPointSets); break;
      case Kind::kOdFlow:
        r.src = rng_.NextUint64(20);
        r.dst = rng_.NextUint64(20);
        break;
      case Kind::kPredict:
        r.model = rng_.NextUint64(3);
        r.src = rng_.NextUint64(20);
        r.dst = rng_.NextUint64(20);
        break;
      case Kind::kWhatIfHot: r.hot = rng_.NextUint64(HotGrids().size()); break;
      case Kind::kWhatIfDistinct: r.distinct = distinct_++; break;
    }
    return r;
  }

  uint64_t stream_id() const { return stream_id_; }

 private:
  tw::random::Xoshiro256 rng_;
  PopulationQueries population_;
  uint64_t stream_id_;
  std::array<Kind, kDeckSize> deck_;
  size_t dealt_ = 0;
  uint64_t distinct_ = 0;
};

std::vector<PointSet> MakePointSets(uint64_t seed) {
  tw::random::Xoshiro256 rng(Mix(seed, 0x706f696e7473ULL));
  std::vector<PointSet> sets(kPointSets);
  for (PointSet& set : sets) {
    for (size_t p = 0; p < kPointsPerBatch; ++p) {
      set.lats.push_back(rng.NextUniform(-44.0, -10.0));
      set.lons.push_back(rng.NextUniform(113.0, 154.0));
    }
  }
  return sets;
}

uint64_t HashWhatIf(const tw::serve::WhatIfAnswer& answer) {
  uint64_t h = Mix(answer.generation, answer.ingest_seq);
  for (const auto& r : answer.results) {
    h = MixDouble(h, r.peak_infectious);
    h = MixDouble(h, r.peak_day);
    h = MixDouble(h, r.attack_rate);
    h = MixDouble(h, r.final_totals.r);
    for (double d : r.arrival_day) h = MixDouble(h, d);
  }
  return h;
}

/// Executes one request and returns a hash of its answer bits.
tw::Result<uint64_t> Execute(const tw::serve::QueryService& queries,
                             const tw::serve::WhatIfService& whatif,
                             const std::vector<PointSet>& sets,
                             const RequestStream& stream, const Request& r) {
  switch (r.kind) {
    case Kind::kPopulation: {
      ScopedSpan span("serve.QueryService::Population", Layer::kServe);
      auto a = queries.Population(r.center, r.radius_m);
      if (!a.ok()) return a.status();
      return Mix(a->unique_users, a->tweets);
    }
    case Kind::kPointBatch: {
      ScopedSpan span("serve.QueryService::PointEstimateBatch", Layer::kServe);
      const PointSet& set = sets[r.point_set];
      auto a = queries.PointEstimateBatch(r.scale, set.lats.data(), set.lons.data(),
                                          set.lats.size());
      if (!a.ok()) return a.status();
      uint64_t h = 0;
      for (const tw::serve::PointAnswer& p : *a) {
        h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(p.area)));
        h = MixDouble(h, p.distance_m);
        h = MixDouble(h, p.rescaled_estimate);
      }
      return h;
    }
    case Kind::kOdFlow: {
      ScopedSpan span("serve.QueryService::OdFlow", Layer::kServe);
      auto a = queries.OdFlow(r.scale, r.src, r.dst);
      if (!a.ok()) return a.status();
      return MixDouble(1, a->observed);
    }
    case Kind::kPredict: {
      ScopedSpan span("serve.QueryService::Predict", Layer::kServe);
      auto a = queries.Predict(r.scale, r.model, r.src, r.dst);
      if (!a.ok()) return a.status();
      return MixDouble(2, a->estimated);
    }
    case Kind::kWhatIfHot:
    case Kind::kWhatIfDistinct: {
      ScopedSpan span("serve.WhatIfService::WhatIf", Layer::kServe);
      auto a = r.kind == Kind::kWhatIfHot
                   ? whatif.WhatIf(HotGrids()[r.hot])
                   : whatif.WhatIf(DistinctGrid(stream.stream_id(), r.distinct));
      if (!a.ok()) return a.status();
      return HashWhatIf(**a);
    }
  }
  return tw::Status::Internal("unknown request kind");
}

struct ClientOut {
  std::vector<uint64_t> hashes;  ///< first kCheckedPerClient answers
  uint64_t ops = 0;
  uint64_t failures = 0;
  std::vector<std::string> messages;
  Samples population_us;
  Samples whatif_miss_ms;
  Samples whatif_hot_us;
  double end = 0.0;
};

/// Closed loop: the next request is sent only when the previous answered.
void RunClient(const tw::serve::QueryService& queries,
               const tw::serve::WhatIfService& whatif,
               const std::vector<PointSet>& sets, RequestStream stream,
               double deadline, bool record, ClientOut* out) {
  while (Now() < deadline) {
    const Request r = stream.Next();
    const double t0 = Now();
    const tw::Result<uint64_t> hash = Execute(queries, whatif, sets, stream, r);
    const double dt = Now() - t0;
    ++out->ops;
    if (!hash.ok()) {
      ++out->failures;
      if (out->messages.size() < kMaxMessages) {
        out->messages.push_back("request: " + hash.status().ToString());
      }
    }
    if (!record) continue;
    if (out->hashes.size() < kCheckedPerClient) {
      out->hashes.push_back(hash.ok() ? *hash : 0);
    }
    switch (r.kind) {
      case Kind::kPopulation: out->population_us.Add(dt * 1e6); break;
      case Kind::kWhatIfDistinct: out->whatif_miss_ms.Add(dt * 1e3); break;
      case Kind::kWhatIfHot: out->whatif_hot_us.Add(dt * 1e6); break;
      default: break;
    }
  }
  out->end = Now();
}

tw::serve::WhatIfOptions WhatIfOptionsFor(const Budget& budget) {
  tw::serve::WhatIfOptions options;
  options.num_threads = budget.whatif_workers;
  options.cache_capacity = kWhatIfCacheCapacity;
  return options;
}

/// Stream ids: measured clients 1.., warm-up streams 1001.., others above.
constexpr uint64_t kWarmupStreamBase = 1001;

}  // namespace

void RunServeLoop(RunState& rs,
                  const std::shared_ptr<const tw::core::AnalysisSnapshot>& snapshot,
                  size_t clients, double warmup, double seconds,
                  ServeResult* out) {
  const tw::serve::QueryService queries(snapshot);
  const tw::serve::WhatIfService whatif(snapshot, WhatIfOptionsFor(rs.budget));
  const std::vector<PointSet> sets = MakePointSets(rs.seed);

  const double measure_start = Now() + warmup;
  const double deadline = measure_start + seconds;
  std::vector<ClientOut> warm(clients);
  std::vector<ClientOut> measured(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(queries, whatif, sets, RequestStream(rs.seed, kWarmupStreamBase + c),
                  measure_start, false, &warm[c]);
        RunClient(queries, whatif, sets, RequestStream(rs.seed, 1 + c), deadline,
                  true, &measured[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  double last_end = measure_start;
  for (size_t c = 0; c < clients; ++c) {
    rs.Merge(warm[c].ops, warm[c].failures, warm[c].messages);
    rs.Merge(measured[c].ops, measured[c].failures, measured[c].messages);
    out->requests += measured[c].ops;
    out->population_us.Append(measured[c].population_us);
    out->whatif_miss_ms.Append(measured[c].whatif_miss_ms);
    out->whatif_hot_us.Append(measured[c].whatif_hot_us);
    last_end = std::max(last_end, measured[c].end);
  }
  out->qps = static_cast<double>(out->requests) / (last_end - measure_start);

  const tw::serve::ServiceStats query_stats = queries.stats();
  const tw::serve::WhatIfStats whatif_stats = whatif.stats();
  out->whatif_hit_rate = whatif_stats.queries == 0
                             ? 0.0
                             : static_cast<double>(whatif_stats.cache_hits) /
                                   static_cast<double>(whatif_stats.queries);
  out->shed = query_stats.shed_queries + whatif_stats.shed_queries;
  out->deadline_exceeded = query_stats.deadline_exceeded + whatif_stats.deadline_exceeded;

  // Single-client reference pass on fresh services: every multi-client
  // answer must match bitwise.
  const bool traced = Tracer::enabled();
  Tracer::Enable(false);
  const tw::serve::QueryService ref_queries(snapshot);
  const tw::serve::WhatIfService ref_whatif(snapshot, WhatIfOptionsFor(rs.budget));
  for (size_t c = 0; c < clients; ++c) {
    RequestStream stream(rs.seed, 1 + c);
    size_t mismatches = 0;
    for (size_t i = 0; i < measured[c].hashes.size(); ++i) {
      const Request r = stream.Next();
      const tw::Result<uint64_t> hash = Execute(ref_queries, ref_whatif, sets, stream, r);
      rs.Op(hash.status(), "reference request");
      if (!hash.ok() || *hash != measured[c].hashes[i]) ++mismatches;
    }
    rs.Check(mismatches == 0,
             "client " + std::to_string(c) + ": " + std::to_string(mismatches) +
                 " answers differ from the single-client reference");
  }
  Tracer::Enable(traced);
}

// --- Direct per-layer measurements --------------------------------------

void MeasureLayersDirectly(RunState& rs, Workspace& ws,
                           const std::shared_ptr<const tw::core::AnalysisSnapshot>& snapshot) {
  // tweetdb: the storage read on its own.
  {
    Samples read_s;
    for (int i = 0; i < 5; ++i) {
      const double t0 = Now();
      ScopedSpan span("tweetdb.ReadDatasetFiles", Layer::kTweetdb);
      auto dataset = tw::tweetdb::ReadDatasetFiles(ws.path);
      read_s.Add(Now() - t0);
      rs.Op(dataset.status(), "read dataset");
    }
    auto described = tw::tweetdb::DescribeDataset(ws.path);
    rs.Op(described.status(), "describe dataset");
    const double bytes = described.ok()
                             ? static_cast<double>(described->shard_bytes +
                                                   described->delta_bytes +
                                                   described->manifest_bytes)
                             : 0.0;
    rs.SetLayer("tweetdb.read_s", read_s.Median(), "s");
    rs.SetLayer("tweetdb.read_mib_s", bytes / (1024.0 * 1024.0) / read_s.Median(), "MiB/s");
  }

  // geo: the two radius walks a population query makes, called directly.
  {
    const tw::core::PopulationEstimator& estimator = snapshot->estimator();
    PopulationQueries queries(Mix(rs.seed, 0x67656fULL));
    Samples users_us;
    Samples tweets_us;
    for (int i = 0; i < 1500; ++i) {
      tw::geo::LatLon center;
      double radius = 0.0;
      queries.Next(&center, &radius);
      double t0 = Now();
      {
        ScopedSpan span("geo.PopulationEstimator::CountUniqueUsers", Layer::kGeo);
        (void)estimator.CountUniqueUsers(center, radius);
      }
      users_us.Add((Now() - t0) * 1e6);
      t0 = Now();
      {
        ScopedSpan span("geo.PopulationEstimator::CountTweets", Layer::kGeo);
        (void)estimator.CountTweets(center, radius);
      }
      tweets_us.Add((Now() - t0) * 1e6);
    }
    rs.SetLayer("geo.count_users_p50_us", users_us.Median(), "us");
    rs.SetLayer("geo.count_tweets_p50_us", tweets_us.Median(), "us");
  }

  // serve: point batches and the table lookups, single thread.
  {
    const tw::serve::QueryService queries(snapshot);
    const std::vector<PointSet> sets = MakePointSets(rs.seed);
    Samples batch_us;
    for (size_t i = 0; i < 400; ++i) {
      const PointSet& set = sets[i % sets.size()];
      const double t0 = Now();
      ScopedSpan span("serve.QueryService::PointEstimateBatch", Layer::kServe);
      auto a = queries.PointEstimateBatch(i % 3, set.lats.data(), set.lons.data(),
                                          set.lats.size());
      batch_us.Add((Now() - t0) * 1e6);
      rs.Op(a.status(), "point batch");
    }
    rs.SetLayer("serve.point_batch_p50_us", batch_us.Median(), "us");

    constexpr size_t kCallsPerRun = 1000;
    Samples od_ns;
    Samples predict_ns;
    double sink = 0.0;
    for (size_t run = 0; run < 101; ++run) {
      double t0 = Now();
      {
        ScopedSpan span("serve.QueryService::OdFlow x1000", Layer::kServe);
        for (size_t i = 0; i < kCallsPerRun; ++i) {
          auto a = queries.OdFlow(i % 3, i % 20, (i * 7 + run) % 20);
          sink += a.ok() ? a->observed : 0.0;
        }
      }
      od_ns.Add((Now() - t0) * 1e9 / kCallsPerRun);
      t0 = Now();
      {
        ScopedSpan span("serve.QueryService::Predict x1000", Layer::kServe);
        for (size_t i = 0; i < kCallsPerRun; ++i) {
          auto a = queries.Predict(i % 3, i % 3, i % 20, (i * 7 + run) % 20);
          sink += a.ok() ? a->estimated : 0.0;
        }
      }
      predict_ns.Add((Now() - t0) * 1e9 / kCallsPerRun);
    }
    rs.attempted += 2 * 101 * kCallsPerRun;
    rs.Check(sink >= 0.0, "OD and predicted flows are non-negative");
    rs.SetLayer("serve.od_ns", od_ns.Median(), "ns");
    rs.SetLayer("serve.predict_ns", predict_ns.Median(), "ns");
  }

  // epi: the sweep engine on grids no cache has seen.
  {
    const auto& sweep = snapshot->scenario_sweep();
    rs.Check(sweep != nullptr, "snapshot has a scenario sweep");
    if (sweep != nullptr) {
      tw::ThreadPool pool(rs.budget.whatif_workers);
      Samples sweep_ms;
      double scenarios = 0.0;
      double total_s = 0.0;
      for (uint64_t g = 0; g < 30; ++g) {
        const tw::epi::SweepGrid grid = DistinctGrid(3001, g);
        const double t0 = Now();
        ScopedSpan span("epi.ScenarioSweep::Run", Layer::kEpi);
        auto results = sweep->Run(grid, &pool);
        const double dt = Now() - t0;
        rs.Op(results.status(), "sweep");
        if (!results.ok()) continue;
        sweep_ms.Add(dt * 1e3);
        scenarios += static_cast<double>(results->size());
        total_s += dt;
      }
      rs.SetLayer("epi.sweep_ms", sweep_ms.Median(), "ms");
      rs.SetLayer("epi.scenarios_per_s", total_s > 0.0 ? scenarios / total_s : 0.0, "1/s");
    }
  }
}

}  // namespace perfbench
