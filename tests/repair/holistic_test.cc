#include "repair/holistic.h"

#include <gtest/gtest.h>

#include <memory>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "dc/violation.h"

namespace trex::repair {
namespace {

TEST(HolisticTest, EliminatesViolationsOnSoccerTable) {
  HolisticRepair alg;
  auto clean =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_TRUE(
      dc::FindViolations(*clean, data::SoccerConstraints()).empty());
}

TEST(HolisticTest, CleanInputIsUntouched) {
  HolisticRepair alg;
  auto repaired =
      alg.Repair(data::SoccerConstraints(), data::SoccerCleanTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerCleanTable());
}

TEST(HolisticTest, Deterministic) {
  HolisticRepair alg;
  auto a = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  auto b = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(HolisticTest, GreedyCoverPicksHighDegreeCell) {
  // Three tuples share Team 'Real' but have three different cities; the
  // MVC heuristic should converge by changing the minority cities (or
  // one pivot cell), not by rewriting unrelated cells.
  const Schema schema = Schema::AllStrings({"Team", "City"});
  auto dcs =
      dc::ParseDcSet("!(t1.Team == t2.Team & t1.City != t2.City)", schema);
  ASSERT_TRUE(dcs.ok());
  Table dirty(schema);
  ASSERT_TRUE(dirty.AppendRow({Value("Real"), Value("Madrid")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("Real"), Value("Madrid")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("Real"), Value("Capital")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("Barca"), Value("Barcelona")}).ok());

  HolisticRepair alg;
  auto clean = alg.Repair(*dcs, dirty);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(dc::FindViolations(*clean, *dcs).empty());
  EXPECT_EQ(clean->at(2, 1), Value("Madrid"));
  EXPECT_EQ(clean->at(3, 1), Value("Barcelona"));  // untouched
}

TEST(HolisticTest, ReducesViolationsOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 50, .seed = 3});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.05;
  inject.seed = 4;
  auto injected = data::InjectErrors(generated.clean, inject);
  const std::size_t before =
      dc::FindViolations(injected.dirty, generated.dcs).size();
  ASSERT_GT(before, 0u);

  HolisticRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  EXPECT_LT(dc::FindViolations(*repaired, generated.dcs).size(), before);
}

TEST(HolisticTest, RoundBudgetGuardsTermination) {
  HolisticOptions options;
  options.max_rounds = 1;
  HolisticRepair alg(options);
  auto repaired =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());  // must terminate even when not clean
}

TEST(HolisticTest, NegativeOptionsAreRejectedOnBothPaths) {
  const auto dirty = std::make_shared<const Table>(data::SoccerDirtyTable());
  HolisticOptions negative_rounds;
  negative_rounds.max_rounds = -1;
  HolisticOptions negative_candidates;
  negative_candidates.max_candidates = -1;
  for (const HolisticOptions& options :
       {negative_rounds, negative_candidates}) {
    const HolisticRepair alg(options);
    const Result<Table> direct =
        alg.Repair(data::SoccerConstraints(), *dirty);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
    // Rejected before any work, even when there is nothing to repair.
    const Result<Table> empty = alg.Repair(dc::DcSet{}, *dirty);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
    const Result<Table> prepared =
        alg.Prepare(dirty)->Repair(data::SoccerConstraints());
    ASSERT_FALSE(prepared.ok());
    EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HolisticTest, ZeroBudgetsAreAccepted) {
  HolisticOptions zero_rounds;
  zero_rounds.max_rounds = 0;
  auto unchanged = HolisticRepair(zero_rounds)
                       .Repair(data::SoccerConstraints(),
                               data::SoccerDirtyTable());
  ASSERT_TRUE(unchanged.ok()) << unchanged.status();
  EXPECT_EQ(*unchanged, data::SoccerDirtyTable());

  HolisticOptions zero_candidates;
  zero_candidates.max_candidates = 0;
  EXPECT_TRUE(HolisticRepair(zero_candidates)
                  .Repair(data::SoccerConstraints(), data::SoccerDirtyTable())
                  .ok());
}

TEST(HolisticTest, ModeIsAlwaysACandidateAndTiesTowardTheSmallerValue) {
  // With no column-value fill, a unary violation's cell gets only the
  // column mode; "x" and "y" tie at two rows each, and the smaller wins.
  const Schema schema = Schema::AllStrings({"Team", "City"});
  auto dcs = dc::ParseDcSet("!(t1.City == 'bad')", schema);
  ASSERT_TRUE(dcs.ok()) << dcs.status();
  Table dirty(schema);
  for (const char* city : {"bad", "y", "x", "y", "x"}) {
    ASSERT_TRUE(dirty.AppendRow({Value("T"), Value(city)}).ok());
  }
  HolisticOptions options;
  options.max_candidates = 0;
  auto repaired = HolisticRepair(options).Repair(*dcs, dirty);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->at(0, 1), Value("x"));
}

TEST(HolisticTest, EmptyConstraintSetIsIdentity) {
  HolisticRepair alg;
  auto repaired = alg.Repair(dc::DcSet{}, data::SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerDirtyTable());
}

TEST(HolisticTest, HandlesNulledCoalitionTables) {
  HolisticRepair alg;
  const Table masked = data::SoccerDirtyTable().WithNulls(
      {data::SoccerCell(5, "City"), data::SoccerCell(3, "Team")});
  EXPECT_TRUE(alg.Repair(data::SoccerConstraints(), masked).ok());
}

}  // namespace
}  // namespace trex::repair
