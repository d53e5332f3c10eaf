#include "table/stats.h"

#include <gtest/gtest.h>

#include <map>

namespace trex {
namespace {

Table CityTable() {
  // City column: Madrid x3, Barcelona x1, London x1, null x1.
  Table t(Schema::AllStrings({"City", "Country"}));
  EXPECT_TRUE(t.AppendRow({Value("Madrid"), Value("Spain")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Barcelona"), Value("Spain")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Madrid"), Value("Spain")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("London"), Value("England")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Madrid"), Value("España")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value::Null()}).ok());
  return t;
}

TEST(ColumnStatsTest, CountsIgnoreNulls) {
  const auto stats = ColumnStats::Build(CityTable(), 0);
  EXPECT_EQ(stats.total(), 5u);
  EXPECT_EQ(stats.num_distinct(), 3u);
  EXPECT_EQ(stats.Count(Value("Madrid")), 3u);
  EXPECT_EQ(stats.Count(Value("London")), 1u);
  EXPECT_EQ(stats.Count(Value("Paris")), 0u);
}

TEST(ColumnStatsTest, Probability) {
  const auto stats = ColumnStats::Build(CityTable(), 0);
  EXPECT_DOUBLE_EQ(stats.Probability(Value("Madrid")), 0.6);
  EXPECT_DOUBLE_EQ(stats.Probability(Value("Paris")), 0.0);
}

TEST(ColumnStatsTest, MostCommon) {
  const auto stats = ColumnStats::Build(CityTable(), 0);
  ASSERT_TRUE(stats.MostCommon().has_value());
  EXPECT_EQ(*stats.MostCommon(), Value("Madrid"));
}

TEST(ColumnStatsTest, MostCommonTieBreaksToSmallerValue) {
  Table t(Schema::AllStrings({"A"}));
  ASSERT_TRUE(t.AppendRow({Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("c")}).ok());
  const auto stats = ColumnStats::Build(t, 0);
  EXPECT_EQ(*stats.MostCommon(), Value("a"));
}

TEST(ColumnStatsTest, EmptyColumnHasNoMode) {
  Table t(Schema::AllStrings({"A"}));
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  const auto stats = ColumnStats::Build(t, 0);
  EXPECT_EQ(stats.total(), 0u);
  EXPECT_FALSE(stats.MostCommon().has_value());
}

TEST(ColumnStatsTest, DistinctSortedAscending) {
  const auto stats = ColumnStats::Build(CityTable(), 0);
  const auto distinct = stats.DistinctSorted();
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0], Value("Barcelona"));
  EXPECT_EQ(distinct[1], Value("London"));
  EXPECT_EQ(distinct[2], Value("Madrid"));
}

TEST(ColumnStatsTest, SampleFollowsEmpiricalDistribution) {
  const auto stats = ColumnStats::Build(CityTable(), 0);
  Rng rng(99);
  std::map<Value, int> counts;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ++counts[stats.Sample(&rng)];
  EXPECT_NEAR(counts[Value("Madrid")] / static_cast<double>(n), 0.6, 0.03);
  EXPECT_NEAR(counts[Value("London")] / static_cast<double>(n), 0.2, 0.03);
  EXPECT_EQ(counts.count(Value("Paris")), 0u);
}

TEST(ColumnStatsTest, SampleDeterministicForSeed) {
  const auto stats = ColumnStats::Build(CityTable(), 0);
  Rng rng1(5);
  Rng rng2(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(stats.Sample(&rng1), stats.Sample(&rng2));
  }
}

TEST(JointStatsTest, ConditionalProbabilities) {
  const auto joint = JointStats::Build(CityTable(), 0, 1);
  // Given Madrid: Spain x2, España x1.
  EXPECT_DOUBLE_EQ(joint.ProbabilityGiven(Value("Madrid"), Value("Spain")),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(joint.ProbabilityGiven(Value("Madrid"), Value("España")),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(joint.ProbabilityGiven(Value("Paris"), Value("France")),
                   0.0);
}

TEST(JointStatsTest, MostCommonGiven) {
  const auto joint = JointStats::Build(CityTable(), 0, 1);
  EXPECT_EQ(*joint.MostCommonGiven(Value("Madrid")), Value("Spain"));
  EXPECT_EQ(*joint.MostCommonGiven(Value("London")), Value("England"));
  EXPECT_FALSE(joint.MostCommonGiven(Value("Paris")).has_value());
}

TEST(JointStatsTest, CountGiven) {
  const auto joint = JointStats::Build(CityTable(), 0, 1);
  EXPECT_EQ(joint.CountGiven(Value("Madrid")), 3u);
  EXPECT_EQ(joint.CountGiven(Value("Paris")), 0u);
}

TEST(JointStatsTest, TargetsGivenSorted) {
  const auto joint = JointStats::Build(CityTable(), 0, 1);
  const auto targets = joint.TargetsGiven(Value("Madrid"));
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], Value("España"));
  EXPECT_EQ(targets[1], Value("Spain"));
}

TEST(JointStatsTest, NullOnEitherSideExcluded) {
  Table t(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(t.AppendRow({Value("k"), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value("v")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("k"), Value("v")}).ok());
  const auto joint = JointStats::Build(t, 0, 1);
  EXPECT_EQ(joint.CountGiven(Value("k")), 1u);
}

TEST(TableStatsTest, CachesAreConsistentWithDirectBuild) {
  const Table t = CityTable();
  TableStats stats(&t);
  EXPECT_EQ(stats.Column(0).total(),
            ColumnStats::Build(t, 0).total());
  EXPECT_EQ(*stats.Joint(0, 1).MostCommonGiven(Value("Madrid")),
            Value("Spain"));
  // Second lookups hit the cache and agree.
  EXPECT_EQ(stats.Column(0).total(), 5u);
  EXPECT_EQ(stats.Joint(0, 1).CountGiven(Value("Madrid")), 3u);
}

TEST(TableStatsTest, DirectionalJointKeys) {
  const Table t = CityTable();
  TableStats stats(&t);
  // P[Country|City] differs from P[City|Country].
  EXPECT_EQ(*stats.Joint(0, 1).MostCommonGiven(Value("Madrid")),
            Value("Spain"));
  EXPECT_EQ(*stats.Joint(1, 0).MostCommonGiven(Value("Spain")),
            Value("Madrid"));
}

TEST(TableStatsTest, BuildAllServesConstLookups) {
  const Table t = CityTable();
  TableStats built(&t);
  built.BuildAll();
  const TableStats& stats = built;
  EXPECT_EQ(stats.Column(0).total(), 5u);
  EXPECT_EQ(stats.Column(1).Count(Value("Spain")), 3u);
  EXPECT_EQ(*stats.Joint(0, 1).MostCommonGiven(Value("Madrid")),
            Value("Spain"));
  EXPECT_EQ(*stats.Joint(1, 0).MostCommonGiven(Value("Spain")),
            Value("Madrid"));
}

TEST(TableStatsDeathTest, ConstLookupOfUnbuiltStatsDies) {
  const Table t = CityTable();
  const TableStats stats(&t);
  EXPECT_DEATH((void)stats.Column(0), "not built");
  EXPECT_DEATH((void)stats.Joint(0, 1), "not built");
}

}  // namespace
}  // namespace trex
