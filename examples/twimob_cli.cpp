// twimob_cli — command-line front end for the library, the tool a
// downstream analyst would script against.
//
//   twimob_cli generate <out.twdb|out.csv> [users] [seed]
//   twimob_cli stats <corpus.twdb|corpus.csv>
//   twimob_cli population <corpus> [national|state|metropolitan|all] [radius_km]
//   twimob_cli mobility <corpus>
//   twimob_cli query <corpus> <min_lat> <min_lon> <max_lat> <max_lon>
//   twimob_cli homes <corpus>
//   twimob_cli predict <corpus> <seed_city> [gravity|radiation|twitter]
//
// Corpus files ending in .csv use the CSV codec, anything else the binary
// codec. Malformed arguments (non-numeric counts or coordinates, a
// non-finite or non-positive radius, an unknown flow source) print the
// usage text and exit 2.

#include <cmath>
#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "core/predictor.h"
#include "core/report.h"
#include "core/stage_engine.h"
#include "mobility/home_inference.h"
#include "stats/descriptive.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/csv_codec.h"
#include "tweetdb/query.h"

using namespace twimob;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  twimob_cli generate <out.twdb|out.csv> [users] [seed]\n"
               "  twimob_cli stats <corpus>\n"
               "  twimob_cli population <corpus> [scale|all] [radius_km]\n"
               "  twimob_cli mobility <corpus>\n"
               "  twimob_cli query <corpus> <min_lat> <min_lon> <max_lat> "
               "<max_lon>\n"
               "  twimob_cli homes <corpus>\n"
               "  twimob_cli predict <corpus> <seed_city> "
               "[gravity|radiation|twitter]\n");
  return 2;
}

bool IsCsv(const std::string& path) { return EndsWith(path, ".csv"); }

Result<tweetdb::TweetTable> LoadCorpus(const std::string& path) {
  return IsCsv(path) ? tweetdb::ReadCsv(path) : tweetdb::ReadBinaryFile(path);
}

/// The corpus at `path`, compacted by (user, time) and wrapped as a
/// one-shard dataset — the input of the mobility analysis.
Result<tweetdb::TweetDataset> LoadCompacted(const std::string& path) {
  auto table = LoadCorpus(path);
  if (!table.ok()) return table.status();
  table->CompactByUserTime();
  return tweetdb::TweetDataset::FromTable(std::move(*table));
}

/// Parses `arg` as a finite double into `*out`; false when it is not one.
bool ParseFiniteArg(const char* arg, double* out) {
  auto v = ParseDouble(arg);
  if (!v.ok() || !std::isfinite(*v)) return false;
  *out = *v;
  return true;
}

/// Parses `arg` as an integer >= `min` into `*out`; false when it is not one.
template <typename T>
bool ParseIntArg(const char* arg, int64_t min, T* out) {
  auto v = ParseInt64(arg);
  if (!v.ok() || *v < min) return false;
  *out = static_cast<T>(*v);
  return true;
}

int Generate(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string out = argv[2];
  synth::CorpusConfig config;
  config.num_users = 50000;
  if (argc > 3 && !ParseIntArg(argv[3], 1, &config.num_users)) return Usage();
  if (argc > 4 && !ParseIntArg(argv[4], 0, &config.seed)) return Usage();

  auto generator = synth::TweetGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  synth::GenerationReport report;
  auto table = generator->Generate(&report);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  table->CompactByUserTime();
  Status written = IsCsv(out) ? tweetdb::WriteCsv(*table, out)
                              : tweetdb::WriteBinaryFile(*table, out);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu tweets from %zu users to %s\n", table->num_rows(),
              report.num_users, out.c_str());
  std::printf("%s", core::RenderTableI(report, config).c_str());
  return 0;
}

int Stats(const std::string& path) {
  auto table = LoadCorpus(path);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("rows:            %zu\n", table->num_rows());
  std::printf("distinct users:  %zu\n", table->CountDistinctUsers());
  table->SealActive();
  std::printf("blocks:          %zu (capacity %zu)\n", table->num_blocks(),
              table->block_capacity());
  if (table->num_blocks() > 0) {
    const auto& stats = table->block_stats(0);
    std::printf("first block:     %zu rows, users [%llu, %llu]\n", stats.num_rows,
                static_cast<unsigned long long>(stats.min_user),
                static_cast<unsigned long long>(stats.max_user));
  }
  const tweetdb::TableDescription d = tweetdb::DescribeTable(*table);
  std::printf("encoded size:    %zu bytes (%.2f bytes/row, %.2fx vs raw SoA)\n",
              d.encoded_bytes, d.bytes_per_row, d.compression_ratio);
  return 0;
}

int Population(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string which = argc > 3 ? ToLower(argv[3]) : "all";
  double radius_km = 0.0;  // 0 keeps each scale's default ε
  if (argc > 4 && !(ParseFiniteArg(argv[4], &radius_km) && radius_km > 0.0)) {
    return Usage();
  }
  auto table = LoadCorpus(argv[2]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  auto estimator = core::PopulationEstimator::Build(
      tweetdb::TweetDataset::FromTable(std::move(*table)));
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
    return 1;
  }
  std::vector<core::PopulationEstimateResult> results;
  for (const core::ScaleSpec& base : core::PaperScales()) {
    if (which != "all" && ToLower(base.name) != which) continue;
    core::ScaleSpec spec =
        radius_km > 0.0 ? core::MakeScaleSpec(base.scale, radius_km * 1000.0)
                        : base;
    auto result = estimator->Estimate(spec);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", core::RenderAreaTable(*result).c_str());
    results.push_back(std::move(*result));
  }
  if (results.empty()) return Usage();
  core::PipelineResult summary;
  summary.population = results;
  auto pooled = core::PooledPopulationCorrelation(results);
  if (pooled.ok()) summary.pooled_population_correlation = *pooled;
  std::printf("%s", core::RenderPopulationReport(summary).c_str());
  return 0;
}

int Mobility(const std::string& path) {
  auto dataset = LoadCompacted(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::AnalysisContext ctx;
  auto estimator = core::PopulationEstimator::Build(*dataset, &ctx.pool());
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
    return 1;
  }
  core::PipelineResult result;
  for (const core::ScaleSpec& spec : core::PaperScales()) {
    auto mob = core::AnalyzeScaleMobility(*dataset, spec, *estimator, ctx.pool());
    if (!mob.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   mob.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", core::RenderMobilityScale(*mob).c_str());
    result.mobility.push_back(std::move(*mob));
  }
  std::printf("%s", core::RenderTableII(result).c_str());
  return 0;
}

int Query(int argc, char** argv) {
  if (argc < 7) return Usage();
  double bounds[4];
  for (int i = 0; i < 4; ++i) {
    if (!ParseFiniteArg(argv[3 + i], &bounds[i])) return Usage();
  }
  auto table = LoadCorpus(argv[2]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  table->SealActive();
  tweetdb::ScanSpec spec;
  const geo::BoundingBox box{bounds[0], bounds[1], bounds[2], bounds[3]};
  if (!box.IsValid()) {
    std::fprintf(stderr, "invalid bounding box %s\n", box.ToString().c_str());
    return 1;
  }
  spec.bbox = box;
  size_t count = 0;
  tweetdb::ScanStatistics stats = tweetdb::CountMatching(
      tweetdb::TweetDataset::FromTable(std::move(*table)), spec, &count);
  std::printf("%zu tweets in %s (scanned %zu rows, pruned %zu/%zu blocks)\n",
              count, box.ToString().c_str(), stats.rows_scanned,
              stats.blocks_pruned, stats.blocks_total);
  return 0;
}

int Homes(const std::string& path) {
  auto table = LoadCorpus(path);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  table->CompactByUserTime();
  auto homes = mobility::InferHomeLocations(*table);
  if (!homes.ok()) {
    std::fprintf(stderr, "%s\n", homes.status().ToString().c_str());
    return 1;
  }
  std::vector<double> supports;
  for (const auto& h : *homes) supports.push_back(h.support);
  const auto summary = stats::Summarize(supports);
  std::printf(
      "inferred homes for %zu of %zu users (>= 3 tweets)\n"
      "support: median %.2f, mean %.2f\n",
      homes->size(), table->CountDistinctUsers(), summary.median, summary.mean);
  std::printf("first 5:\n");
  for (size_t i = 0; i < homes->size() && i < 5; ++i) {
    std::printf("  user %llu -> %s (support %.2f)\n",
                static_cast<unsigned long long>((*homes)[i].user_id),
                (*homes)[i].home.ToString().c_str(), (*homes)[i].support);
  }
  return 0;
}

int Predict(int argc, char** argv) {
  if (argc < 4) return Usage();
  core::PredictorConfig config;
  config.outbreak_trials = 50;
  if (argc > 4) {
    const std::string source = ToLower(argv[4]);
    if (source == "radiation") {
      config.source = core::FlowSource::kRadiation;
    } else if (source == "twitter") {
      config.source = core::FlowSource::kExtracted;
    } else if (source != "gravity") {
      return Usage();
    }
  }
  auto dataset = LoadCompacted(argv[2]);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::AnalysisContext ctx;
  auto estimator = core::PopulationEstimator::Build(*dataset, &ctx.pool());
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
    return 1;
  }
  const core::ScaleSpec national = core::MakeScaleSpec(census::Scale::kNational);
  auto mobility =
      core::AnalyzeScaleMobility(*dataset, national, *estimator, ctx.pool());
  if (!mobility.ok()) {
    std::fprintf(stderr, "%s\n", mobility.status().ToString().c_str());
    return 1;
  }
  auto predictor = core::DiseaseSpreadPredictor::Create(national, *mobility);
  if (!predictor.ok()) {
    std::fprintf(stderr, "%s\n", predictor.status().ToString().c_str());
    return 1;
  }
  auto prediction = predictor->Predict(argv[3], config);
  if (!prediction.ok()) {
    std::fprintf(stderr, "%s\n", prediction.status().ToString().c_str());
    return 1;
  }
  std::printf("outbreak seeded in %s, flows: %s\n", prediction->seed_area.c_str(),
              core::FlowSourceName(prediction->source).c_str());
  std::printf("outbreak probability (50 stochastic trials): %.2f\n",
              prediction->outbreak_probability);
  std::printf("%-18s %12s %12s\n", "city", "arrival", "attack rate");
  for (const auto& a : prediction->areas) {
    std::printf("%-18s %12s %11.0f%%\n", a.name.c_str(),
                a.arrival_day < 0 ? "never"
                                  : StrFormat("day %.0f", a.arrival_day).c_str(),
                a.attack_rate * 100.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return Generate(argc, argv);
  if (argc < 3) return Usage();
  if (command == "stats") return Stats(argv[2]);
  if (command == "population") return Population(argc, argv);
  if (command == "mobility") return Mobility(argv[2]);
  if (command == "query") return Query(argc, argv);
  if (command == "homes") return Homes(argv[2]);
  if (command == "predict") return Predict(argc, argv);
  return Usage();
}
