// Prepared repairs (`RepairAlgorithm::Prepare`) against direct calls:
// for every bundled backend and every subset of a generated world's
// DcSet, `Prepare(dirty)->Repair(subset)` must return exactly what
// `Repair(subset, dirty)` returns — the contract the constraint game
// relies on when it answers its 2^k subset repairs from one prepared
// object. HoloClean, the backend whose preparation keeps state, is also
// driven from pool threads so the race detector covers its publish path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"

namespace trex::repair {
namespace {

struct World {
  std::shared_ptr<const Table> dirty;
  dc::DcSet dcs;
};

/// A 240-row soccer world with errors in the FD-governed columns, built
/// the way the cross-backend audit builds its worlds.
World MakeWorld() {
  data::GeneratedData generated =
      data::GenerateSoccer({.num_rows = 240, .seed = 31});
  const Schema schema = generated.clean.schema();
  data::ErrorInjectorOptions errors;
  errors.error_rate = 0.04;
  errors.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  errors.seed = 32;
  data::InjectionResult injected = data::InjectErrors(generated.clean, errors);
  return World{std::make_shared<const Table>(std::move(injected.dirty)),
               std::move(generated.dcs)};
}

std::vector<std::shared_ptr<const RepairAlgorithm>> AllBackends() {
  return {std::make_shared<FdRepair>(), MakeAlgorithm1(),
          std::make_shared<HolisticRepair>(),
          std::make_shared<HoloCleanRepair>()};
}

std::uint64_t NumMasks(const dc::DcSet& dcs) {
  return std::uint64_t{1} << dcs.size();
}

/// Same cells and the same 128-bit content fingerprint, which also
/// tells an int from an equal double.
void ExpectBitIdentical(const Result<Table>& got, const Result<Table>& want,
                        std::uint64_t mask) {
  ASSERT_EQ(got.ok(), want.ok()) << "mask " << mask;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << "mask " << mask;
    return;
  }
  EXPECT_TRUE(*got == *want) << "mask " << mask;
  EXPECT_EQ(got->StrongFingerprint(), want->StrongFingerprint())
      << "mask " << mask;
}

TEST(PreparedRepairTest, PreparedEqualsDirectForEverySubsetAndBackend) {
  const World world = MakeWorld();
  ASSERT_GE(world.dirty->num_rows(), 240u);
  ASSERT_GE(world.dcs.size(), 2u);
  for (const auto& algorithm : AllBackends()) {
    SCOPED_TRACE(algorithm->name());
    const std::unique_ptr<const PreparedRepair> prepared =
        algorithm->Prepare(world.dirty);
    bool any_repair = false;
    for (std::uint64_t mask = 0; mask < NumMasks(world.dcs); ++mask) {
      const dc::DcSet subset = world.dcs.Subset(mask);
      const Result<Table> direct = algorithm->Repair(subset, *world.dirty);
      ExpectBitIdentical(prepared->Repair(subset), direct, mask);
      any_repair = any_repair || (direct.ok() && *direct != *world.dirty);
    }
    // The world must give every backend something to repair, or the
    // comparison above proves nothing.
    EXPECT_TRUE(any_repair);
  }
}

TEST(PreparedRepairTest, ConcurrentCallsOnOnePreparedHoloCleanMatchDirect) {
  const World world = MakeWorld();
  const HoloCleanRepair holoclean;
  const std::uint64_t num_masks = NumMasks(world.dcs);
  std::vector<Result<Table>> direct;
  for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
    direct.push_back(holoclean.Repair(world.dcs.Subset(mask), *world.dirty));
  }

  // Every mask twice, so concurrent calls race to fill the same cell
  // model slots as well as different ones.
  const std::unique_ptr<const PreparedRepair> prepared =
      holoclean.Prepare(world.dirty);
  std::vector<std::optional<Result<Table>>> concurrent(2 * num_masks);
  ThreadPool pool(4);
  pool.Run(concurrent.size(), [&](std::size_t i) {
    concurrent[i].emplace(prepared->Repair(world.dcs.Subset(i % num_masks)));
  });
  for (std::size_t i = 0; i < concurrent.size(); ++i) {
    ASSERT_TRUE(concurrent[i].has_value());
    ExpectBitIdentical(*concurrent[i], direct[i % num_masks], i % num_masks);
  }
}

TEST(PreparedRepairTest, PreparedHoloCleanRejectsAnInvalidCapLikeDirect) {
  HoloCleanOptions options;
  options.max_domain_size = 0;
  const HoloCleanRepair holoclean(options);
  const auto dirty = std::make_shared<const Table>(data::SoccerDirtyTable());
  const Result<Table> direct =
      holoclean.Repair(data::SoccerConstraints(), *dirty);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
  ExpectBitIdentical(holoclean.Prepare(dirty)->Repair(data::SoccerConstraints()),
                     direct, 0);
}

}  // namespace
}  // namespace trex::repair
