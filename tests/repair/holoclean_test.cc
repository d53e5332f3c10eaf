#include "repair/holoclean.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/violation.h"
#include "repair/metrics.h"

namespace trex::repair {
namespace {

TEST(HoloCleanTest, RepairsTheSoccerTable) {
  HoloCleanRepair alg;
  auto clean =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok()) << clean.status();
  // The headline repair: t5[Country] -> Spain, t5[City] -> Madrid.
  EXPECT_EQ(clean->at(data::SoccerCell(5, "Country")), Value("Spain"));
  EXPECT_EQ(clean->at(data::SoccerCell(5, "City")), Value("Madrid"));
}

TEST(HoloCleanTest, CleanInputIsUntouched) {
  HoloCleanRepair alg;
  auto repaired =
      alg.Repair(data::SoccerConstraints(), data::SoccerCleanTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerCleanTable());
}

TEST(HoloCleanTest, Deterministic) {
  HoloCleanRepair alg;
  auto a = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  auto b = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(HoloCleanTest, EmptyConstraintSetIsIdentity) {
  HoloCleanRepair alg;
  auto repaired = alg.Repair(dc::DcSet{}, data::SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerDirtyTable());
}

TEST(HoloCleanTest, OnlyNoisyCellsChange) {
  HoloCleanRepair alg;
  const Table dirty = data::SoccerDirtyTable();
  const dc::DcSet dcs = data::SoccerConstraints();
  auto clean = alg.Repair(dcs, dirty);
  ASSERT_TRUE(clean.ok());

  // Collect cells implicated in violations of the dirty table.
  std::set<std::size_t> noisy;
  for (const auto& v : dc::FindViolations(dirty, dcs)) {
    for (const CellRef& cell : dc::ImplicatedCells(v, dcs)) {
      noisy.insert(dirty.LinearIndex(cell));
    }
  }
  for (const CellRef& cell : dirty.AllCells()) {
    if (dirty.at(cell) != clean->at(cell)) {
      EXPECT_TRUE(noisy.count(dirty.LinearIndex(cell)) > 0)
          << cell.ToString(dirty.schema()) << " changed but was not noisy";
    }
  }
}

TEST(HoloCleanTest, ReducesViolationsOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 60, .seed = 7});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.04;
  inject.seed = 11;
  auto injected = data::InjectErrors(generated.clean, inject);

  const std::size_t before =
      dc::FindViolations(injected.dirty, generated.dcs).size();
  ASSERT_GT(before, 0u);

  HoloCleanRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  const std::size_t after =
      dc::FindViolations(*repaired, generated.dcs).size();
  EXPECT_LT(after, before);
}

TEST(HoloCleanTest, AchievesReasonablePrecisionOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 80, .seed = 21});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.03;
  inject.seed = 22;
  // Corrupt only FD-governed columns (City / Country) so errors are
  // detectable by the constraint set.
  const Schema schema = generated.clean.schema();
  inject.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  auto injected = data::InjectErrors(generated.clean, inject);
  ASSERT_FALSE(injected.injected.empty());

  HoloCleanRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  auto quality = EvaluateRepair(injected.dirty, *repaired,
                                generated.clean, generated.dcs);
  ASSERT_TRUE(quality.ok());
  EXPECT_GT(quality->recall, 0.3) << quality->ToString();
  EXPECT_GT(quality->precision, 0.3) << quality->ToString();
}

TEST(HoloCleanTest, LearnedWeightsStillRepairHeadlineCell) {
  HoloCleanOptions options;
  options.learn_weights = false;  // fixed initial weights
  HoloCleanRepair fixed(options);
  auto clean =
      fixed.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->at(data::SoccerTargetCell()), Value("Spain"));
}

/// Per cell, the distinct non-null values `alg` writes there across all
/// subsets of `dcs`. A cell's candidate domain depends only on the dirty
/// table, so whatever the constraint subset, every value written to a
/// cell comes from that one domain.
std::vector<std::set<Value>> ValuesAcrossSubsets(const HoloCleanRepair& alg,
                                                 const dc::DcSet& dcs,
                                                 const Table& dirty) {
  std::vector<std::set<Value>> values(dirty.num_cells());
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << dcs.size());
       ++mask) {
    auto repaired = alg.Repair(dcs.Subset(mask), dirty);
    EXPECT_TRUE(repaired.ok()) << repaired.status();
    if (!repaired.ok()) continue;
    for (const CellRef& cell : dirty.AllCells()) {
      if (!repaired->at(cell).is_null()) {
        values[dirty.LinearIndex(cell)].insert(repaired->at(cell));
      }
    }
  }
  return values;
}

std::size_t Widest(const std::vector<std::set<Value>>& values) {
  std::size_t widest = 0;
  for (const auto& cell_values : values) {
    widest = std::max(widest, cell_values.size());
  }
  return widest;
}

TEST(HoloCleanTest, DomainCapRespected) {
  auto generated = data::GenerateSoccer({.num_rows = 60, .seed = 7});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.08;
  inject.seed = 11;
  const Table dirty = data::InjectErrors(generated.clean, inject).dirty;

  HoloCleanOptions options;
  options.max_domain_size = 2;
  EXPECT_LE(Widest(ValuesAcrossSubsets(HoloCleanRepair(options),
                                       generated.dcs, dirty)),
            2u);
  // The default cap lets some cell take more values than that, so the
  // bound above is the cap's doing.
  EXPECT_GT(
      Widest(ValuesAcrossSubsets(HoloCleanRepair(), generated.dcs, dirty)),
      2u);
}

TEST(HoloCleanTest, DomainCapOfOneKeepsEveryNonNullCell) {
  HoloCleanOptions options;
  options.max_domain_size = 1;
  HoloCleanRepair alg(options);
  const Table dirty = data::SoccerDirtyTable();
  auto repaired = alg.Repair(data::SoccerConstraints(), dirty);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  for (const CellRef& cell : dirty.AllCells()) {
    if (dirty.at(cell).is_null()) continue;
    EXPECT_EQ(repaired->at(cell), dirty.at(cell))
        << cell.ToString(dirty.schema());
  }
}

TEST(HoloCleanTest, DomainCapBelowOneIsRejected) {
  for (int cap : {0, -1}) {
    HoloCleanOptions options;
    options.max_domain_size = cap;
    auto repaired = HoloCleanRepair(options).Repair(
        data::SoccerConstraints(), data::SoccerDirtyTable());
    ASSERT_FALSE(repaired.ok()) << "cap " << cap;
    EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HoloCleanTest, HandlesNulledCoalitionTables) {
  HoloCleanRepair alg;
  const Table dirty = data::SoccerDirtyTable();
  const Table masked = dirty.WithNulls(
      {data::SoccerCell(1, "Country"), data::SoccerCell(2, "Country"),
       data::SoccerCell(3, "Country"), data::SoccerCell(6, "Country")});
  auto repaired = alg.Repair(data::SoccerConstraints(), masked);
  ASSERT_TRUE(repaired.ok());
}

}  // namespace
}  // namespace trex::repair
