// Tests for the sampling extensions: top-k separation (`StopRule::top_k`)
// on the sweep estimator.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"

namespace trex::shap {
namespace {

class LambdaGame : public Game {
 public:
  LambdaGame(std::size_t n, std::function<double(std::uint64_t)> v)
      : n_(n), v_(std::move(v)) {}
  std::size_t num_players() const override { return n_; }
  double Value(const Coalition& coalition) const override {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < coalition.size(); ++i) {
      if (coalition[i]) mask |= std::uint64_t{1} << i;
    }
    return v_(mask);
  }

 private:
  std::size_t n_;
  std::function<double(std::uint64_t)> v_;
};

LambdaGame GloveGame() {
  return LambdaGame(3, [](std::uint64_t mask) {
    const bool left = mask & 0b001;
    const bool right = mask & 0b110;
    return left && right ? 1.0 : 0.0;
  });
}

/// Top-k separation on the sweep estimator, configured as the engine's
/// top-k driver does: one sweep per shard, a CI-separation test every
/// `batch` sweeps with z = 2, no separation below 8 samples.
SamplingOptions TopK(std::size_t k, std::size_t batch = 16,
                     std::size_t max_sweeps = 4096) {
  SamplingOptions options;
  options.num_samples = max_sweeps;
  options.shard_size = 1;
  options.check_interval = batch;
  options.stop.top_k = k;
  options.stop.z = 2.0;
  options.stop.min_samples = 8;
  return options;
}

struct TopKRun {
  std::vector<Estimate> estimates;
  /// Players by estimate, descending; ties keep index order.
  std::vector<std::size_t> ranking;
  SweepOutcome outcome;
};

TopKRun RunTopK(const Game& game, const SamplingOptions& options) {
  TopKRun run;
  auto estimates = EstimateShapleyAllPlayers(game, options, &run.outcome);
  EXPECT_TRUE(estimates.ok()) << estimates.status();
  if (!estimates.ok()) return run;
  run.estimates = std::move(*estimates);
  run.ranking.resize(run.estimates.size());
  for (std::size_t p = 0; p < run.ranking.size(); ++p) run.ranking[p] = p;
  std::stable_sort(run.ranking.begin(), run.ranking.end(),
                   [&run](std::size_t a, std::size_t b) {
                     return run.estimates[a].value > run.estimates[b].value;
                   });
  return run;
}

TEST(TopKTest, FindsTheTopPlayer) {
  const LambdaGame game = GloveGame();
  SamplingOptions options = TopK(1);
  options.seed = 19;
  const TopKRun result = RunTopK(game, options);
  EXPECT_TRUE(result.outcome.separated);
  EXPECT_EQ(result.ranking[0], 0u);  // the left glove dominates
  EXPECT_LT(result.outcome.sweeps, options.num_samples);
}

TEST(TopKTest, SeparationStopsEarlyOnEasyGames) {
  // Additive game with well-separated weights: should separate fast.
  LambdaGame game(6, [](std::uint64_t mask) {
    double total = 0;
    const double w[] = {32, 16, 8, 4, 2, 1};
    for (int i = 0; i < 6; ++i) {
      if (mask & (1u << i)) total += w[i];
    }
    return total;
  });
  const TopKRun result = RunTopK(game, TopK(2, /*batch=*/8));
  EXPECT_TRUE(result.outcome.separated);
  EXPECT_EQ(result.ranking[0], 0u);
  EXPECT_EQ(result.ranking[1], 1u);
  EXPECT_LE(result.outcome.sweeps, 64u);
}

TEST(TopKTest, BudgetExhaustionOnTiedPlayers) {
  // Symmetric game: players are exchangeable, the k/k+1 boundary can
  // never separate; the estimator must stop at the budget.
  LambdaGame game(4, [](std::uint64_t mask) {
    return std::popcount(mask) >= 2 ? 1.0 : 0.0;
  });
  const TopKRun result =
      RunTopK(game, TopK(2, /*batch=*/16, /*max_sweeps=*/128));
  EXPECT_FALSE(result.outcome.separated);
  EXPECT_EQ(result.outcome.sweeps, 128u);
}

TEST(TopKTest, KCoveringAllPlayersIsTriviallySeparated) {
  const LambdaGame game = GloveGame();
  const TopKRun result = RunTopK(game, TopK(3));
  EXPECT_TRUE(result.outcome.separated);
}

TEST(TopKTest, EstimatesAgreeWithExact) {
  const LambdaGame game = GloveGame();
  SamplingOptions options = TopK(1);
  options.seed = 23;
  const TopKRun result = RunTopK(game, options);
  auto exact = ComputeExactShapley(game);
  ASSERT_TRUE(exact.ok());
  // The top player's estimate must be near its exact value even when
  // stopping early (unbiasedness doesn't depend on the stop rule's
  // ordering statistics much at these counts).
  EXPECT_NEAR(result.estimates[result.ranking[0]].value,
              (*exact)[result.ranking[0]], 0.1);
}

TEST(TopKTest, Validation) {
  // k == 0 is rejected by the engine's kTopKCells validation
  // (engine_test); here the sweep estimator itself rejects an empty
  // budget and answers an empty game with no estimates.
  const LambdaGame game = GloveGame();
  EXPECT_FALSE(EstimateShapleyAllPlayers(game, TopK(1, 16, 0)).ok());
  LambdaGame empty(0, [](std::uint64_t) { return 0.0; });
  auto result = EstimateShapleyAllPlayers(empty, TopK(1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace trex::shap
