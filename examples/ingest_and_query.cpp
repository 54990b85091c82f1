// Storage walkthrough for downstream users: ingest a CSV of geo-tagged
// tweets into the columnar store, compact it, run pruned scans, persist the
// binary table and load it back.
//
//   ./build/examples/ingest_and_query [num_users]

#include <cstdio>
#include <cstdlib>

#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/csv_codec.h"
#include "tweetdb/query.h"

using namespace twimob;

int main(int argc, char** argv) {
  const size_t num_users =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;

  // 0. Produce a CSV the way a user's own collector would (here from the
  //    synthetic generator).
  synth::CorpusConfig corpus;
  corpus.num_users = num_users;
  corpus.seed = 11;
  auto generator = synth::TweetGenerator::Create(corpus);
  if (!generator.ok()) return 1;
  auto generated = generator->Generate();
  if (!generated.ok()) return 1;
  const std::string csv_path = "/tmp/twimob_example_tweets.csv";
  if (Status s = tweetdb::WriteCsv(*generated, csv_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu tweets to %s\n", generated->num_rows(), csv_path.c_str());

  // 1. Ingest the CSV (malformed lines would be rejected with the line
  //    number; pass skip_bad_lines=true to tolerate them).
  auto table = tweetdb::ReadCsv(csv_path);
  if (!table.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested %zu rows across %zu users\n", table->num_rows(),
              table->CountDistinctUsers());

  // 2. Compact by (user, time): the layout every mobility analysis needs,
  //    and the layout under which the codecs compress best.
  table->CompactByUserTime();
  std::printf("compacted into %zu blocks of up to %zu rows\n",
              table->num_blocks(), table->block_capacity());

  // 3. Scans with predicate push-down. Zone maps prune whole blocks. Scans
  //    run over datasets; a table is wrapped as a zero-copy single shard.
  tweetdb::TweetDataset dataset =
      tweetdb::TweetDataset::FromTable(std::move(*table));
  tweetdb::ScanSpec sydney_jan;
  sydney_jan.bbox = geo::BoundingBox{-34.2, 150.5, -33.4, 151.5};
  sydney_jan.min_time = 1388534400;  // 2014-01-01
  sydney_jan.max_time = 1391212800;  // 2014-02-01
  size_t count = 0;
  tweetdb::ScanStatistics stats =
      tweetdb::CountMatching(dataset, sydney_jan, &count);
  std::printf(
      "January tweets in greater Sydney: %zu (scanned %zu rows, pruned "
      "%zu/%zu blocks via zone maps)\n",
      count, stats.rows_scanned, stats.blocks_pruned, stats.blocks_total);

  tweetdb::ScanSpec one_user;
  one_user.user_id = 42;
  std::vector<tweetdb::Tweet> rows;
  stats = tweetdb::ScanDataset(dataset, one_user, [&rows](const tweetdb::Tweet& t) {
    rows.push_back(t);
  });
  std::printf("user 42 has %zu tweets (pruned %zu/%zu blocks)\n", rows.size(),
              stats.blocks_pruned, stats.blocks_total);
  for (size_t i = 0; i < rows.size() && i < 3; ++i) {
    std::printf("  %s\n", rows[i].ToString().c_str());
  }

  *table = std::move(dataset).ReleaseTable();

  // 4. Persist the compact binary format and load it back.
  const std::string bin_path = "/tmp/twimob_example_tweets.twdb";
  if (Status s = tweetdb::WriteBinaryFile(*table, bin_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto reloaded = tweetdb::ReadBinaryFile(bin_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "%s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("binary round-trip OK: %zu rows from %s\n", reloaded->num_rows(),
              bin_path.c_str());
  return 0;
}
