#include "core/explainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "core/shapley_exact.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "dc/parser.h"

namespace trex {
namespace {

std::shared_ptr<repair::RuleRepair> Alg() {
  static std::shared_ptr<repair::RuleRepair> alg = repair::MakeAlgorithm1();
  return alg;
}

std::map<std::string, double> AsMap(const Explanation& ex) {
  std::map<std::string, double> out;
  for (const PlayerScore& p : ex.ranked) out[p.label] = p.shapley;
  return out;
}

TEST(ConstraintExplainerTest, ReproducesFigure1Exactly) {
  ConstraintExplainer explainer;
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok()) << ex.status();
  const auto values = AsMap(*ex);
  EXPECT_NEAR(values.at("C1"), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(values.at("C2"), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(values.at("C3"), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(values.at("C4"), 0.0, 1e-12);
  EXPECT_EQ(ex->method, "exact");
  EXPECT_EQ(ex->ranked[0].label, "C3");  // ranked first
}

TEST(ConstraintExplainerTest, ExplanationMetadata) {
  ConstraintExplainer explainer;
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->target_label, "t5[Country]");
  EXPECT_EQ(ex->old_value, Value("España"));
  EXPECT_EQ(ex->new_value, Value("Spain"));
  EXPECT_NEAR(ex->TotalAttribution(), 1.0, 1e-12);  // efficiency
  // 1 reference + 15 subsets; the full set is the reference itself.
  EXPECT_EQ(ex->algorithm_calls, 16u);
  EXPECT_EQ(ex->cache_hits, 1u);
}

TEST(ConstraintExplainerTest, TopKClamps) {
  ConstraintExplainer explainer;
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->TopK(2).size(), 2u);
  EXPECT_EQ(ex->TopK(100).size(), 4u);
  EXPECT_EQ(ex->TopK(0).size(), 0u);
}

TEST(ConstraintExplainerTest, UnrepairedCellRejected) {
  ConstraintExplainer explainer;
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerCell(1, "Team"));
  EXPECT_FALSE(ex.ok());
  EXPECT_EQ(ex.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConstraintExplainerTest, EmptyDcSetRejected) {
  ConstraintExplainer explainer;
  auto ex = explainer.Explain(*Alg(), dc::DcSet{},
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  EXPECT_FALSE(ex.ok());
}

TEST(ConstraintExplainerTest, SamplingPathApproximatesExact) {
  ConstraintExplainerOptions options;
  options.force_sampling = true;
  options.sampling.num_samples = 2000;
  options.sampling.seed = 31;
  ConstraintExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  const auto values = AsMap(*ex);
  EXPECT_NEAR(values.at("C3"), 2.0 / 3.0, 0.05);
  EXPECT_NEAR(values.at("C1"), 1.0 / 6.0, 0.05);
  EXPECT_NE(ex->method.find("sampling"), std::string::npos);
  EXPECT_GT(ex->ranked[0].num_samples, 0u);
}

TEST(CellExplainerTest, NullPolicyRanksT5LeagueFirst) {
  // The paper's Example 2.4 headline claim under the formal (null)
  // definition: t5[League] has the highest Shapley value.
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.method = CellMethod::kSampling;
  options.num_samples = 600;
  options.seed = 37;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_EQ(ex->ranked[0].label, "t5[League]");
}

TEST(CellExplainerTest, T5LeagueBeatsT6City) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.method = CellMethod::kSampling;
  options.num_samples = 600;
  options.seed = 41;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  const auto values = AsMap(*ex);
  EXPECT_GT(values.at("t5[League]"), values.at("t6[City]"));
}

TEST(CellExplainerTest, PruningExcludesPlaceAndYear) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.method = CellMethod::kSampling;
  options.num_samples = 50;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  // 24 players: {Team, City, Country, League} x 6 rows.
  EXPECT_EQ(ex->ranked.size(), 24u);
  for (const PlayerScore& p : ex->ranked) {
    EXPECT_EQ(p.label.find("Place"), std::string::npos);
    EXPECT_EQ(p.label.find("Year"), std::string::npos);
  }
}

TEST(CellExplainerTest, NoPruningCoversAllCells) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.method = CellMethod::kSampling;
  options.num_samples = 30;
  options.prune = false;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->ranked.size(), 36u);
}

TEST(CellExplainerTest, PrunedCellsHaveZeroShapley) {
  // t1[Place] is outside the influence graph; without pruning its
  // sampled Shapley value must still be ~0 (it is a dummy player).
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.method = CellMethod::kSampling;
  options.num_samples = 200;
  options.prune = false;
  options.seed = 43;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  const auto values = AsMap(*ex);
  EXPECT_NEAR(values.at("t1[Place]"), 0.0, 1e-12);
  EXPECT_NEAR(values.at("t4[Year]"), 0.0, 1e-12);
}

TEST(CellExplainerTest, ExactMatchesSamplingOnReducedGame) {
  // Restrict the cell game to one row's relevant cells by using a tiny
  // table: 2 rows x 3 columns = 6 players, exact is feasible.
  const Schema schema = Schema::AllStrings({"Team", "City", "Country"});
  auto dcs = dc::ParseDcSet(R"(
C1: !(t1.Team == t2.Team & t1.City != t2.City)
C2: !(t1.City == t2.City & t1.Country != t2.Country)
)",
                            schema);
  ASSERT_TRUE(dcs.ok());
  Table dirty(schema);
  ASSERT_TRUE(
      dirty.AppendRow({Value("Real"), Value("Madrid"), Value("Spain")})
          .ok());
  ASSERT_TRUE(
      dirty.AppendRow({Value("Real"), Value("Capital"), Value("Spain")})
          .ok());
  std::vector<repair::RepairRule> rules{
      {"C1", repair::RuleAction::kSetMostCommon, "City", ""},
      {"C2", repair::RuleAction::kSetMostCommonGiven, "Country", "City"}};
  repair::RuleRepair alg("mini", rules);
  // Reference repair: t2[City] "Capital" -> ... most common city is
  // tie Madrid/Capital -> "Capital" wins? Counts: Madrid 1, Capital 1;
  // tie-break toward smaller value = "Capital". To avoid a degenerate
  // no-op, add a third row.
  ASSERT_TRUE(
      dirty.AppendRow({Value("Real"), Value("Madrid"), Value("Spain")})
          .ok());
  const CellRef target{1, 1};  // t2[City]

  CellExplainerOptions exact_options;
  exact_options.policy = AbsentCellPolicy::kNull;
  exact_options.method = CellMethod::kExact;
  exact_options.prune = false;
  CellExplainer exact(exact_options);
  auto exact_ex = exact.Explain(alg, *dcs, dirty, target);
  ASSERT_TRUE(exact_ex.ok()) << exact_ex.status();

  CellExplainerOptions sampling_options;
  sampling_options.policy = AbsentCellPolicy::kNull;
  sampling_options.method = CellMethod::kSampling;
  sampling_options.num_samples = 4000;
  sampling_options.prune = false;
  sampling_options.seed = 47;
  CellExplainer sampling(sampling_options);
  auto sampled_ex = sampling.Explain(alg, *dcs, dirty, target);
  ASSERT_TRUE(sampled_ex.ok());

  const auto exact_map = AsMap(*exact_ex);
  const auto sampled_map = AsMap(*sampled_ex);
  for (const auto& [label, exact_value] : exact_map) {
    EXPECT_NEAR(sampled_map.at(label), exact_value, 0.04) << label;
  }
}

TEST(CellExplainerTest, ExactRejectsColumnSamplePolicy) {
  CellExplainerOptions options;
  options.method = CellMethod::kExact;
  options.policy = AbsentCellPolicy::kSampleFromColumn;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  EXPECT_FALSE(ex.ok());
}

TEST(CellExplainerTest, AutoPicksSamplingForLargePlayerSets) {
  CellExplainerOptions options;
  options.method = CellMethod::kAuto;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 20;
  CellExplainer explainer(options);
  auto ex = explainer.Explain(*Alg(), data::SoccerConstraints(),
                              data::SoccerDirtyTable(),
                              data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  // 24 players > max_exact_players (20) => sampling.
  EXPECT_NE(ex->method.find("sampling"), std::string::npos);
}

TEST(CellExplainerTest, DeterministicForSeed) {
  CellExplainerOptions options;
  options.num_samples = 50;
  options.seed = 53;
  CellExplainer explainer(options);
  auto a = explainer.Explain(*Alg(), data::SoccerConstraints(),
                             data::SoccerDirtyTable(),
                             data::SoccerTargetCell());
  auto b = explainer.Explain(*Alg(), data::SoccerConstraints(),
                             data::SoccerDirtyTable(),
                             data::SoccerTargetCell());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (std::size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(a->ranked[i].label, b->ranked[i].label);
    EXPECT_DOUBLE_EQ(a->ranked[i].shapley, b->ranked[i].shapley);
  }
}

TEST(CellExplainerTest, SingleCellEstimatorMatchesSweep) {
  // Example 2.5's per-cell loop should agree with the sweep estimate for
  // the same policy within sampling error: 4 combined standard errors.
  struct Case {
    AbsentCellPolicy policy;
    CellRef cell;
  };
  const Case cases[] = {
      {AbsentCellPolicy::kNull, data::SoccerCell(5, "League")},
      {AbsentCellPolicy::kSampleFromColumn, data::SoccerCell(3, "Country")},
  };
  for (const Case& c : cases) {
    const std::string label =
        c.cell.ToString(data::SoccerDirtyTable().schema());
    SCOPED_TRACE(label + " " + AbsentCellPolicyToString(c.policy));
    CellExplainerOptions options;
    options.policy = c.policy;
    options.num_samples = 2000;
    options.seed = 59;
    CellExplainer explainer(options);
    auto single = explainer.ExplainSingleCell(
        *Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
        data::SoccerTargetCell(), c.cell);
    ASSERT_TRUE(single.ok()) << single.status();

    options.method = CellMethod::kSampling;
    CellExplainer sweeper(options);
    auto sweep = sweeper.Explain(*Alg(), data::SoccerConstraints(),
                                 data::SoccerDirtyTable(),
                                 data::SoccerTargetCell());
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    const auto it = std::find_if(
        sweep->ranked.begin(), sweep->ranked.end(),
        [&label](const PlayerScore& score) { return score.label == label; });
    ASSERT_NE(it, sweep->ranked.end());
    EXPECT_EQ(single->num_samples, 2000u);
    EXPECT_EQ(it->num_samples, 2000u);
    EXPECT_GT(single->std_error, 0.0);
    EXPECT_NEAR(single->shapley, it->shapley,
                4.0 * std::hypot(single->std_error, it->std_error));
  }
}

TEST(CellExplainerTest, SingleCellForIrrelevantCellIsZero) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 100;
  CellExplainer explainer(options);
  auto score = explainer.ExplainSingleCell(
      *Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
      data::SoccerTargetCell(), data::SoccerCell(1, "Place"));
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(score->shapley, 0.0, 1e-12);
}

TEST(CellExplainerTest, SingleCellOutOfRangeRejected) {
  CellExplainer explainer;
  auto score = explainer.ExplainSingleCell(
      *Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
      data::SoccerTargetCell(), CellRef{77, 0});
  EXPECT_FALSE(score.ok());
}

TEST(CellExplainerTest, TopKFindsLeagueFirstAndStopsEarly) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 2000;  // budget cap; should stop far earlier
  options.seed = 97;
  CellExplainer explainer(options);
  auto ex = explainer.ExplainTopK(*Alg(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell(), /*k=*/1);
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_EQ(ex->ranked[0].label, "t5[League]");
  EXPECT_NE(ex->method.find("topk(k=1"), std::string::npos);
  EXPECT_NE(ex->method.find("separated=yes"), std::string::npos);
  // Every player still gets an estimate row.
  EXPECT_EQ(ex->ranked.size(), 24u);
}

TEST(CellExplainerTest, TopKRejectsColumnSamplePolicy) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kSampleFromColumn;
  CellExplainer explainer(options);
  auto ex = explainer.ExplainTopK(*Alg(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell(), 1);
  EXPECT_FALSE(ex.ok());
}

TEST(CellExplainerTest, TopKRejectsUnrepairedTarget) {
  CellExplainerOptions options;
  options.policy = AbsentCellPolicy::kNull;
  CellExplainer explainer(options);
  auto ex = explainer.ExplainTopK(*Alg(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerCell(1, "Team"), 1);
  EXPECT_FALSE(ex.ok());
}

TEST(AbsentCellPolicyTest, Names) {
  EXPECT_STREQ(AbsentCellPolicyToString(AbsentCellPolicy::kNull), "null");
  EXPECT_STREQ(
      AbsentCellPolicyToString(AbsentCellPolicy::kSampleFromColumn),
      "column-sample");
}

}  // namespace
}  // namespace trex
