// Answer pins for the two heavy DC-repair backends: holistic and
// HoloClean repairs of every subset of the soccer constraints, on two
// generated worlds, as hex `Table::Fingerprint` literals. A change to
// either backend's inner loops (conflict-graph bookkeeping, column
// statistics, violation probes) must leave every pin in place; a
// deliberate answer change re-pins here and says why.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "data/errors.h"
#include "data/generator.h"
#include "dc/parser.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"

namespace trex::repair {
namespace {

constexpr std::size_t kNumMasks = 16;
using Pins = std::array<std::uint64_t, kNumMasks>;

struct World {
  std::shared_ptr<const Table> dirty;
  dc::DcSet dcs;
};

/// A 200-row soccer world with errors injected into City and Country.
/// `weight_missing` > 0 also nulls some of those cells.
World MakeWorld(std::uint64_t seed, double weight_missing) {
  data::GeneratedData generated =
      data::GenerateSoccer({.num_rows = 200, .seed = seed});
  const Schema schema = generated.clean.schema();
  data::ErrorInjectorOptions errors;
  errors.error_rate = 0.05;
  errors.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  errors.weight_missing = weight_missing;
  errors.seed = seed + 1;
  data::InjectionResult injected = data::InjectErrors(generated.clean, errors);
  return World{std::make_shared<const Table>(std::move(injected.dirty)),
               std::move(generated.dcs)};
}

World NoNullsWorld() { return MakeWorld(51, 0.0); }
World NulledWorld() { return MakeWorld(61, 0.5); }

std::string Hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

/// Repairs every subset of the world's constraints directly and through
/// one prepared object, and checks both against `pins` (indexed by
/// mask). Returns how many subsets changed the table, so a world that
/// gives the backend nothing to do is caught.
int ExpectPinned(const RepairAlgorithm& algorithm, const World& world,
                 const Pins& pins) {
  EXPECT_EQ(world.dcs.size(), 4u);
  const std::unique_ptr<const PreparedRepair> prepared =
      algorithm.Prepare(world.dirty);
  int changed = 0;
  for (std::uint64_t mask = 0; mask < kNumMasks; ++mask) {
    const dc::DcSet subset = world.dcs.Subset(mask);
    const Result<Table> direct = algorithm.Repair(subset, *world.dirty);
    const Result<Table> via_prepared = prepared->Repair(subset);
    if (!direct.ok() || !via_prepared.ok()) {
      ADD_FAILURE() << "mask " << mask << " failed";
      continue;
    }
    EXPECT_EQ(Hex(direct->Fingerprint()), Hex(pins[mask])) << "mask " << mask;
    EXPECT_EQ(Hex(via_prepared->Fingerprint()), Hex(pins[mask]))
        << "prepared, mask " << mask;
    if (*direct != *world.dirty) ++changed;
  }
  return changed;
}

TEST(SubsetPinsTest, WorldsHaveTheIntendedShape) {
  EXPECT_EQ(NoNullsWorld().dirty->CountNulls(), 0u);
  EXPECT_GT(NulledWorld().dirty->CountNulls(), 0u);
}

TEST(SubsetPinsTest, HolisticNoNullsWorld) {
  const Pins pins = {
      0xa67cacf155d666cdULL, 0x284ac01b2447f984ULL, 0xbc2fb7bdcbd820e1ULL,
      0xc2e5fa774a4c6c85ULL, 0xfb59b649e447754dULL, 0x756fdaa395d6ea04ULL,
      0x3ef6d749b3098ae0ULL, 0x63c2bfc54b7c0ef4ULL, 0xa67cacf155d666cdULL,
      0x284ac01b2447f984ULL, 0xbc2fb7bdcbd820e1ULL, 0xc2e5fa774a4c6c85ULL,
      0xf9812649e3548c6dULL, 0x77b74aa392c51324ULL, 0x3ef6d749b3098ae0ULL,
      0x63c2bfc54b7c0ef4ULL};
  EXPECT_GT(ExpectPinned(HolisticRepair(), NoNullsWorld(), pins), 0);
}

TEST(SubsetPinsTest, HolisticNulledWorld) {
  const Pins pins = {
      0x1afbf06f37fa46e3ULL, 0xd7b8ff12faf3ffdbULL, 0x811acd9d7fe95b5eULL,
      0xcbc41936f45bc742ULL, 0x8d13b89d4b95f789ULL, 0x4050b7e0869c4eb1ULL,
      0xb28f089d45df220bULL, 0x4c064827f777abd4ULL, 0x1afbf06f37fa46e3ULL,
      0xd7b8ff12faf3ffdbULL, 0x811acd9d7fe95b5eULL, 0xcbc41936f45bc742ULL,
      0x98dd3e5358ff2535ULL, 0xabad8dac71168c18ULL, 0xb28f089d45df220bULL,
      0x4c064827f777abd4ULL};
  EXPECT_GT(ExpectPinned(HolisticRepair(), NulledWorld(), pins), 0);
}

TEST(SubsetPinsTest, HoloCleanNoNullsWorld) {
  const Pins pins = {
      0xa67cacf155d666cdULL, 0xad55d186807a4fe5ULL, 0x90b7cd49d7464944ULL,
      0x99b17d3e17f7bd93ULL, 0x980d0649dda041f5ULL, 0x93247b3e080c68ddULL,
      0x8dafff4991e8e116ULL, 0x867edc3e0a8dfd22ULL, 0xa67cacf155d666cdULL,
      0xad55d186807a4fe5ULL, 0x90b7cd49d7464944ULL, 0x99b17d3e17f7bd93ULL,
      0x980d0649dda041f5ULL, 0x93247b3e080c68ddULL, 0x9ccc41499f370f4cULL,
      0x64d884ca2ea5bbcdULL};
  EXPECT_GT(ExpectPinned(HoloCleanRepair(), NoNullsWorld(), pins), 0);
}

TEST(SubsetPinsTest, HoloCleanNulledWorld) {
  const Pins pins = {
      0x1afbf06f37fa46e3ULL, 0x6600c0e1bd683a2dULL, 0x971d039d454f0e38ULL,
      0x82620613d0e78cc5ULL, 0x80de909d42eee3d1ULL, 0x94acb813dfedb6b7ULL,
      0xe5b1d59d58ebc75eULL, 0x9916cf13eb5b70dcULL, 0x1afbf06f37fa46e3ULL,
      0x6600c0e1bd683a2dULL, 0x971d039d454f0e38ULL, 0xb9864cff11345a59ULL,
      0xe8578e9d557fd15fULL, 0x94acb813dfedb6b7ULL, 0x971d039d454f0e38ULL,
      0xb98634ff11345b9dULL};
  EXPECT_GT(ExpectPinned(HoloCleanRepair(), NulledWorld(), pins), 0);
}

/// Rows 0 and 1 each violate the unary constraint, so their City cells
/// are the only two cells of the conflict graph, both at degree 1, and
/// rewriting either to "ok" leaves one violation. The greedy frontier
/// scans cells in ascending CellRef order and keeps only a strictly
/// better count, so the first round rewrites row 0.
TEST(SubsetPinsTest, HolisticFrontierTieRewritesTheSmallerCellFirst) {
  const Schema schema = Schema::AllStrings({"Team", "City"});
  auto dcs = dc::ParseDcSet("!(t1.City == 'bad')", schema);
  ASSERT_TRUE(dcs.ok()) << dcs.status();
  Table dirty(schema);
  ASSERT_TRUE(dirty.AppendRow({Value("A"), Value("bad")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("B"), Value("bad")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("C"), Value("ok")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("D"), Value("ok")}).ok());

  HolisticOptions one_round;
  one_round.max_rounds = 1;
  auto first = HolisticRepair(one_round).Repair(*dcs, dirty);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->at(0, 1), Value("ok"));
  EXPECT_EQ(first->at(1, 1), Value("bad"));

  auto full = HolisticRepair().Repair(*dcs, dirty);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->at(0, 1), Value("ok"));
  EXPECT_EQ(full->at(1, 1), Value("ok"));
}

/// The same tie under an FD: rows 0 and 1 share Team "A" with different
/// cities, so their four cells sit at degree 1. Only the two City cells
/// have a rewrite that clears the violation, and row 0's (the smaller
/// CellRef) is rewritten to row 1's city.
TEST(SubsetPinsTest, HolisticFdTieRewritesTheSmallerCellFirst) {
  const Schema schema = Schema::AllStrings({"Team", "City"});
  auto dcs = dc::ParseDcSet("!(t1.Team == t2.Team & t1.City != t2.City)",
                            schema);
  ASSERT_TRUE(dcs.ok()) << dcs.status();
  Table dirty(schema);
  ASSERT_TRUE(dirty.AppendRow({Value("A"), Value("x")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("A"), Value("y")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("B"), Value("z")}).ok());

  auto repaired = HolisticRepair().Repair(*dcs, dirty);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->at(0, 1), Value("y"));
  EXPECT_EQ(repaired->at(1, 1), Value("y"));
  EXPECT_EQ(repaired->at(2, 1), Value("z"));
}

}  // namespace
}  // namespace trex::repair
