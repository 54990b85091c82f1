#include "tweetdb/block.h"

#include <gtest/gtest.h>

namespace twimob::tweetdb {
namespace {

Tweet MakeTweet(uint64_t user, int64_t ts, double lat, double lon) {
  Tweet t;
  t.user_id = user;
  t.timestamp = ts;
  t.pos = geo::LatLon{lat, lon};
  return t;
}

TEST(BlockTest, AppendAndGetRow) {
  Block b;
  const Tweet t = MakeTweet(42, 1378000123, -33.8688, 151.2093);
  ASSERT_TRUE(b.Append(t).ok());
  EXPECT_EQ(b.num_rows(), 1u);
  const Tweet out = b.GetRow(0);
  EXPECT_EQ(out.user_id, t.user_id);
  EXPECT_EQ(out.timestamp, t.timestamp);
  EXPECT_NEAR(out.pos.lat, t.pos.lat, 1e-6);
  EXPECT_NEAR(out.pos.lon, t.pos.lon, 1e-6);
}

TEST(BlockTest, CapacityEnforced) {
  Block b;
  ASSERT_TRUE(b.Append(MakeTweet(1, 1, 0, 0), 2).ok());
  ASSERT_TRUE(b.Append(MakeTweet(2, 2, 0, 0), 2).ok());
  EXPECT_TRUE(b.Append(MakeTweet(3, 3, 0, 0), 2).IsFailedPrecondition());
  EXPECT_EQ(b.num_rows(), 2u);
}

TEST(BlockTest, StatsAreTightBounds) {
  Block b;
  ASSERT_TRUE(b.Append(MakeTweet(5, 100, -30.0, 120.0)).ok());
  ASSERT_TRUE(b.Append(MakeTweet(2, 300, -40.0, 150.0)).ok());
  ASSERT_TRUE(b.Append(MakeTweet(9, 200, -35.0, 130.0)).ok());
  const BlockStats s = b.ComputeStats();
  EXPECT_EQ(s.num_rows, 3u);
  EXPECT_EQ(s.min_user, 2u);
  EXPECT_EQ(s.max_user, 9u);
  EXPECT_EQ(s.min_time, 100);
  EXPECT_EQ(s.max_time, 300);
  EXPECT_NEAR(s.bbox.min_lat, -40.0, 1e-6);
  EXPECT_NEAR(s.bbox.max_lat, -30.0, 1e-6);
  EXPECT_NEAR(s.bbox.min_lon, 120.0, 1e-6);
  EXPECT_NEAR(s.bbox.max_lon, 150.0, 1e-6);
}

TEST(BlockTest, EmptyBlockStats) {
  Block b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.ComputeStats().num_rows, 0u);
}

}  // namespace
}  // namespace twimob::tweetdb
