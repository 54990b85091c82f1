#ifndef TWIMOB_TESTS_TWEETDB_PROFILE_TABLE_H_
#define TWIMOB_TESTS_TWEETDB_PROFILE_TABLE_H_

// The storage profile table bench/perf_tweetdb times its kernels on, at CI's
// scale: 20,000 users with 10 uniformly random tweets each over Australia
// (seed 42), (user,time)-compacted.

#include "random/rng.h"
#include "tweetdb/table.h"

namespace twimob::tweetdb {

inline TweetTable ProfileTable() {
  constexpr size_t kUsers = 20000;
  random::Xoshiro256 rng(42);
  TweetTable table;
  for (size_t i = 0; i < kUsers * 10; ++i) {
    (void)table.Append(Tweet{rng.NextUint64(kUsers) + 1,
                             1378000000 + static_cast<int64_t>(rng.NextUint64(20000000)),
                             geo::LatLon{rng.NextUniform(-44.0, -10.0),
                                         rng.NextUniform(113.0, 154.0)}});
  }
  table.CompactByUserTime();
  return table;
}

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TESTS_TWEETDB_PROFILE_TABLE_H_
