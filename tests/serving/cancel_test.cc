// Cancellation primitives plus their threading through the Shapley
// solvers: a cancelled token must stop sampling sweeps, exact subset
// enumeration, and engine requests promptly, surfacing
// `Status::Cancelled` instead of partial results.

#include "serving/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>

#include "core/engine.h"
#include "core/game.h"
#include "core/interaction.h"
#include "core/counterfactual.h"
#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

namespace trex {
namespace {

/// A cheap deterministic game that counts evaluations and (optionally)
/// cancels a source once a call budget is spent — cancellation mid-run
/// without threads or timing.
class CountingGame : public shap::Game {
 public:
  CountingGame(std::size_t num_players, std::size_t cancel_after = 0)
      : num_players_(num_players), cancel_after_(cancel_after) {}

  std::size_t num_players() const override { return num_players_; }

  double Value(const shap::Coalition& coalition) const override {
    ++calls_;
    if (cancel_after_ > 0 && calls_ >= cancel_after_) source_.Cancel();
    double total = 0.0;
    for (std::size_t i = 0; i < coalition.size(); ++i) {
      if (coalition[i]) total += static_cast<double>(i + 1);
    }
    return total;
  }

  std::size_t calls() const { return calls_; }
  CancelToken token() const { return source_.token(); }

 private:
  std::size_t num_players_;
  std::size_t cancel_after_;
  mutable std::size_t calls_ = 0;
  mutable CancelSource source_;
};

TEST(CancelTokenTest, DefaultTokenNeverCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.can_be_cancelled());
}

TEST(CancelTokenTest, SourceFlipsItsTokens) {
  CancelSource source;
  CancelToken token = source.token();
  EXPECT_TRUE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancelled());
  // Tokens taken after cancellation observe it too.
  EXPECT_TRUE(source.token().cancelled());
}

TEST(CancelTokenTest, AnyOfObservesEitherSource) {
  CancelSource a;
  CancelSource b;
  CancelToken merged = CancelToken::AnyOf(a.token(), b.token());
  EXPECT_FALSE(merged.cancelled());
  b.Cancel();
  EXPECT_TRUE(merged.cancelled());

  CancelToken with_default = CancelToken::AnyOf(CancelToken{}, a.token());
  EXPECT_FALSE(with_default.cancelled());
  a.Cancel();
  EXPECT_TRUE(with_default.cancelled());
}

TEST(CancelTokenWaitTest, StatelessTokenWaitsOutTheFullTimeout) {
  CancelToken token;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(token.WaitFor(std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
}

TEST(CancelTokenWaitTest, PreCancelledTokenReturnsWithoutSleeping) {
  CancelSource source;
  source.Cancel();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(source.token().WaitFor(std::chrono::seconds(30)));
  // Far under the requested timeout: the wait must short-circuit.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
}

TEST(CancelTokenWaitTest, CancelMidWaitWakesTheSleeperImmediately) {
  CancelSource source;
  CancelToken token = source.token();
  std::thread canceller([&source] {
    // sleep-ok: gives the main thread time to park inside WaitFor; the
    // assertion is on the 30s bound, not on this delay.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(token.WaitFor(std::chrono::seconds(30)));
  // Woken by the cancel, not the timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(25));
  canceller.join();
}

TEST(CancelTokenWaitTest, MergedTokenWakesOnEitherSource) {
  CancelSource a;
  CancelSource b;
  CancelToken merged = CancelToken::AnyOf(a.token(), b.token());
  std::thread canceller([&b] {
    // sleep-ok: parks the waiter first; asserted via the 30s bound.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(merged.WaitFor(std::chrono::seconds(30)));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(25));
  canceller.join();
  // The waiter deregistered from both sources; a later cancel on the
  // other source must not touch freed state.
  a.Cancel();
}

TEST(CancelThreadingTest, PreCancelledSweepSamplingRunsNothing) {
  CountingGame game(5);
  CancelSource source;
  source.Cancel();
  shap::SamplingOptions options;
  options.num_samples = 128;
  options.cancel = source.token();
  auto result = shap::EstimateShapleyAllPlayers(game, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(game.calls(), 0u);
}

TEST(CancelThreadingTest, MidRunCancellationStopsSweepSampling) {
  // The game cancels itself after 40 evaluations; the full run would
  // cost 256 sweeps x (5+1) evaluations.
  CountingGame game(5, /*cancel_after=*/40);
  shap::SamplingOptions options;
  options.num_samples = 256;
  options.cancel = game.token();
  auto result = shap::EstimateShapleyAllPlayers(game, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Stops at the next sweep boundary: well under the full budget.
  EXPECT_LT(game.calls(), 64u);
}

TEST(CancelThreadingTest, SinglePlayerEstimatorsObserveCancellation) {
  {
    CountingGame game(5, 10);
    shap::SamplingOptions options;
    options.num_samples = 512;
    options.cancel = game.token();
    auto result = shap::EstimateShapleyForPlayer(game, 0, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_LT(game.calls(), 32u);
  }
  {
    // Top-k separation: one sweep per shard, a test every 8 sweeps.
    CountingGame game(5, 40);
    shap::SamplingOptions options;
    options.num_samples = 1024;
    options.shard_size = 1;
    options.check_interval = 8;
    options.stop.top_k = 2;
    options.stop.z = 2.0;
    options.stop.min_samples = 8;
    options.cancel = game.token();
    auto result = shap::EstimateShapleyAllPlayers(game, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_LT(game.calls(), 128u);
  }
}

TEST(CancelThreadingTest, ExactEnumerationsObserveCancellation) {
  {
    CountingGame game(10, 50);
    shap::ExactShapleyOptions options;
    options.cancel = game.token();
    auto result = shap::ComputeExactShapley(game, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_LT(game.calls(), 64u);  // far below 2^10
  }
  {
    CountingGame game(10, 50);
    shap::ExactShapleyOptions options;
    options.cancel = game.token();
    auto result = shap::ComputeExactBanzhaf(game, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  {
    CountingGame game(10, 50);
    shap::InteractionOptions options;
    options.cancel = game.token();
    auto result = shap::ComputeShapleyInteractions(game, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  {
    CountingGame game(10, 50);
    shap::CounterfactualOptions options;
    options.max_set_size = 10;
    options.cancel = game.token();
    auto result = shap::MinimalRemovalSets(game, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(CancelThreadingTest, PreCancelledEngineRequestSkipsReferenceRepair) {
  Engine engine(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                data::SoccerDirtyTable());
  CancelSource source;
  source.Cancel();
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.cancel = source.token();
  auto result = engine.Explain(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Cancellation was observed before any repair work was paid for.
  EXPECT_EQ(engine.num_algorithm_calls(), 0u);
  EXPECT_FALSE(engine.has_repair());
}

TEST(CancelThreadingTest, EngineReusableAfterCancelledRequest) {
  Engine engine(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                data::SoccerDirtyTable());
  CancelSource source;
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = 64;
  request.cancel = source.token();
  source.Cancel();
  EXPECT_EQ(engine.Explain(request).status().code(), StatusCode::kCancelled);

  // A fresh, uncancelled request on the same engine succeeds.
  request.cancel = CancelToken{};
  auto result = engine.Explain(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->explanation.has_value());
}

TEST(DeadlineSourceTest, PastDeadlineFiresPromptly) {
  DeadlineSource deadlines;
  auto source = std::make_shared<CancelSource>();
  deadlines.Arm(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1),
                source);
  // The timer thread fires an already-expired entry on its next wake.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!source->cancelled() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(source->cancelled());
  EXPECT_EQ(deadlines.armed(), 0u);
}

TEST(DeadlineSourceTest, DisarmedEntryNeverFires) {
  DeadlineSource deadlines;
  auto doomed = std::make_shared<CancelSource>();
  auto safe = std::make_shared<CancelSource>();
  const auto soon =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  deadlines.Arm(soon, doomed);
  const std::uint64_t safe_id = deadlines.Arm(soon, safe);
  deadlines.Disarm(safe_id);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!doomed->cancelled() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(doomed->cancelled());
  EXPECT_FALSE(safe->cancelled());
  EXPECT_EQ(deadlines.armed(), 0u);
  // Disarming an unknown or already-fired id is a no-op.
  deadlines.Disarm(safe_id);
  deadlines.Disarm(12345);
}

TEST(DeadlineSourceTest, FarDeadlinesOutliveTheSource) {
  // Destruction with armed entries must not fire them or hang.
  auto source = std::make_shared<CancelSource>();
  {
    DeadlineSource deadlines;
    deadlines.Arm(std::chrono::steady_clock::now() + std::chrono::hours(1),
                  source);
    EXPECT_EQ(deadlines.armed(), 1u);
  }
  EXPECT_FALSE(source->cancelled());
}

}  // namespace
}  // namespace trex
