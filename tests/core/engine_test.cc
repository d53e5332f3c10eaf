#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "data/soccer.h"
#include "repair/faulty.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"
#include "dc/parser.h"

namespace trex {
namespace {

std::shared_ptr<repair::RuleRepair> Alg() {
  static std::shared_ptr<repair::RuleRepair> alg = repair::MakeAlgorithm1();
  return alg;
}

/// The soccer table with one extra corruption (t3[City] misspelled), so
/// the reference repair fixes three cells: t3[City], t5[City],
/// t5[Country] — three distinct explanation targets for batch tests.
Table ThreeTargetDirtyTable() {
  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(3, "City"), Value("Madird"));
  return dirty;
}

std::vector<CellRef> ThreeTargets() {
  return {data::SoccerCell(3, "City"), data::SoccerCell(5, "City"),
          data::SoccerTargetCell()};
}

ExplainRequest ConstraintRequest(CellRef target) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  return request;
}

ExplainRequest CellsRequest(CellRef target, std::size_t num_samples,
                            std::uint64_t seed) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = num_samples;
  request.cells.seed = seed;
  return request;
}

void ExpectSameExplanation(const Explanation& a, const Explanation& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].label, b.ranked[i].label);
    // Bit-identical, not approximately equal: sharded sampling derives
    // every shard's RNG stream from (seed, shard index) alone.
    EXPECT_EQ(a.ranked[i].shapley, b.ranked[i].shapley) << a.ranked[i].label;
    EXPECT_EQ(a.ranked[i].std_error, b.ranked[i].std_error)
        << a.ranked[i].label;
    EXPECT_EQ(a.ranked[i].num_samples, b.ranked[i].num_samples);
  }
  EXPECT_EQ(a.method, b.method);
}

TEST(EngineTest, BatchOfThreeTargetsRunsOneReferenceRepair) {
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  std::vector<ExplainRequest> requests;
  for (CellRef target : ThreeTargets()) {
    requests.push_back(ConstraintRequest(target));
  }
  auto batch = engine.ExplainBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->stats.reference_repairs, 1u);
  EXPECT_EQ(batch->stats.requests, 3u);
  EXPECT_EQ(batch->stats.failed_requests, 0u);
  for (const auto& result : batch->results) {
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->explanation.has_value());
    EXPECT_FALSE(result->explanation->ranked.empty());
  }
  // A second batch on the same engine must not repeat the reference run.
  auto again = engine.ExplainBatch(requests);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.reference_repairs, 0u);
}

TEST(EngineTest, ConstraintBatchSharesTheSubsetSweepAcrossTargets) {
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  std::vector<ExplainRequest> requests;
  for (CellRef target : ThreeTargets()) {
    requests.push_back(ConstraintRequest(target));
  }
  auto batch = engine.ExplainBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  // 4 constraints -> 16 subsets; the full set is answered by the
  // reference repair, so 15 subset repairs + 1 reference, paid once by
  // the first request; the other two requests answer every subset from
  // the shared cache.
  EXPECT_EQ(batch->stats.algorithm_calls, 16u);
  const auto& first = batch->results[0];
  const auto& second = batch->results[1];
  const auto& third = batch->results[2];
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  // The reference run is charged to the batch, not to any one request.
  EXPECT_EQ(first->algorithm_calls, 15u);
  EXPECT_EQ(second->algorithm_calls, 0u);
  EXPECT_EQ(third->algorithm_calls, 0u);
  // The reference repair predates every request: the first request's
  // full-set evaluation is a cross-request hit on it.
  EXPECT_EQ(first->cross_request_hits, 1u);
  EXPECT_EQ(second->cross_request_hits, 16u);
  EXPECT_EQ(third->cross_request_hits, 16u);
  EXPECT_EQ(batch->stats.cross_request_hits, 33u);
  // The naive serial loop (fresh engine per target) would have paid
  // 3 * 16 calls; the batch pays 16.
}

TEST(EngineTest, BatchMatchesSerialExplainBitIdentically) {
  std::vector<ExplainRequest> requests;
  const std::vector<CellRef> targets = ThreeTargets();
  requests.push_back(CellsRequest(targets[0], 96, 11));
  requests.push_back(CellsRequest(targets[1], 96, 22));
  requests.push_back(CellsRequest(targets[2], 96, 33));

  Engine batch_engine(Alg(), data::SoccerConstraints(),
                      ThreeTargetDirtyTable());
  auto batch = batch_engine.ExplainBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status();

  Engine serial_engine(Alg(), data::SoccerConstraints(),
                       ThreeTargetDirtyTable());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto serial = serial_engine.Explain(requests[i]);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(batch->results[i].ok());
    ExpectSameExplanation(*batch->results[i]->explanation,
                          *serial->explanation);
  }
}

TEST(EngineTest, MemoCapChangesOnlyCostNeverResults) {
  std::vector<ExplainRequest> requests;
  const std::vector<CellRef> targets = ThreeTargets();
  requests.push_back(CellsRequest(targets[0], 96, 11));
  requests.push_back(CellsRequest(targets[1], 96, 22));

  Engine unbounded(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  auto baseline = unbounded.ExplainBatch(requests);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_EQ(baseline->stats.cache_evictions, 0u);

  EngineOptions options;
  options.max_memo_entries = 8;
  Engine capped(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable(),
                options);
  auto capped_batch = capped.ExplainBatch(requests);
  ASSERT_TRUE(capped_batch.ok()) << capped_batch.status();

  // Eviction is a cost knob, not a semantics knob: values bit-identical,
  // evictions surfaced, extra repair runs paid for the recomputes.
  EXPECT_GT(capped_batch->stats.cache_evictions, 0u);
  EXPECT_EQ(capped.num_cache_evictions(),
            capped_batch->stats.cache_evictions);
  EXPECT_GE(capped_batch->stats.algorithm_calls,
            baseline->stats.algorithm_calls);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(capped_batch->results[i].ok());
    ExpectSameExplanation(*capped_batch->results[i]->explanation,
                          *baseline->results[i]->explanation);
  }
}

TEST(EngineTest, SharedDirtyTableHasOneResidentCopy) {
  auto table = std::make_shared<const Table>(ThreeTargetDirtyTable());
  Engine engine(Alg(), data::SoccerConstraints(), table);
  // The engine aliases the caller's table rather than copying it...
  EXPECT_EQ(&engine.dirty(), table.get());
  ASSERT_TRUE(engine.EnsureRepair().ok());
  // ...and hands the same object to the black-box repair: use_count is
  // caller + engine + box + the box's prepared repair, with no deep
  // copies in between.
  EXPECT_EQ(engine.shared_dirty().get(), table.get());
  EXPECT_EQ(table.use_count(), 4);
  auto result = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(EngineTest, DecoratedBackendSeesEveryRepairCall) {
  // A decorator that does not override `Prepare` gets the default
  // forwarding preparation, so the box's reference repair and subset
  // misses still pass through its `Repair` one call at a time.
  auto faulty = std::make_shared<repair::FaultyAlgorithm>(
      "faulty-holoclean", std::make_shared<repair::HoloCleanRepair>(),
      repair::FaultyOptions{.skip_first = 1, .fail_first = 2});
  // A zero-latency plan fires on every hit without failing any.
  fault::ScopedFaultPlan plan(
      {.seed = 1,
       .sites = {{.site = "repair.backend",
                  .kind = fault::FaultKind::kLatency}}});
  const dc::DcSet dcs = data::SoccerConstraints();
  ASSERT_EQ(dcs.size(), 4u);
  Engine engine(faulty, dcs, data::SoccerDirtyTable());

  // The reference repair passes; the first subset miss of each of the
  // next two attempts hits the fail schedule.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto failed =
        engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }
  auto result = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(faulty->injected_failures(), 2u);
  EXPECT_EQ(faulty->calls(),
            engine.num_algorithm_calls() + faulty->injected_failures());
  const fault::SiteCounters site =
      fault::FaultInjector::Instance().counters("repair.backend");
  EXPECT_EQ(site.hits, faulty->calls());
  EXPECT_EQ(site.injected, faulty->calls());
  // The exact game over 4 DCs is 2^4 subset repairs: the reference
  // (the full set) plus 15 misses, however the backend is bound.
  EXPECT_EQ(engine.num_algorithm_calls(), 16u);
}

TEST(EngineTest, ThreadCountDoesNotChangeSampledValues) {
  const std::vector<CellRef> targets = ThreeTargets();
  std::vector<Explanation> per_thread_count;
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    EngineOptions options;
    options.num_threads = num_threads;
    Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable(),
                  options);
    auto result = engine.Explain(CellsRequest(targets[2], 128, 77));
    ASSERT_TRUE(result.ok()) << result.status();
    per_thread_count.push_back(std::move(*result->explanation));
  }
  ExpectSameExplanation(per_thread_count[0], per_thread_count[1]);
}

TEST(EngineTest, ThreadedConstraintSamplingMatchesSerial) {
  ExplainRequest request = ConstraintRequest(data::SoccerTargetCell());
  request.constraints.force_sampling = true;
  request.constraints.sampling.num_samples = 256;
  request.constraints.sampling.seed = 5;
  std::vector<Explanation> runs;
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{3}}) {
    EngineOptions options;
    options.num_threads = num_threads;
    Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
                  options);
    auto result = engine.Explain(request);
    ASSERT_TRUE(result.ok()) << result.status();
    runs.push_back(std::move(*result->explanation));
  }
  ExpectSameExplanation(runs[0], runs[1]);
}

TEST(EngineTest, SequentialExplainCallsShareTheEngineCache) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto first = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->algorithm_calls, 16u);
  auto second =
      engine.Explain(ConstraintRequest(data::SoccerCell(5, "City")));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->algorithm_calls, 0u);
  EXPECT_EQ(second->cross_request_hits, 16u);
  EXPECT_EQ(engine.num_algorithm_calls(), 16u);
}

TEST(EngineTest, PerRequestFailuresStayInTheirSlot) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  std::vector<ExplainRequest> requests;
  requests.push_back(ConstraintRequest(data::SoccerTargetCell()));
  requests.push_back(ConstraintRequest(data::SoccerCell(1, "Team")));  // unrepaired
  auto batch = engine.ExplainBatch(requests);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats.failed_requests, 1u);
  EXPECT_TRUE(batch->results[0].ok());
  EXPECT_FALSE(batch->results[1].ok());
  EXPECT_EQ(batch->results[1].status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, HeterogeneousKindsInOneBatch) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  ExplainRequest interactions = ConstraintRequest(data::SoccerTargetCell());
  interactions.kind = ExplainKind::kInteractions;
  ExplainRequest removal = ConstraintRequest(data::SoccerTargetCell());
  removal.kind = ExplainKind::kRemovalSets;
  ExplainRequest single;
  single.target = data::SoccerTargetCell();
  single.kind = ExplainKind::kSingleCell;
  single.cells.policy = AbsentCellPolicy::kNull;
  single.cells.num_samples = 50;
  single.single_cell = data::SoccerCell(5, "League");

  auto batch = engine.ExplainBatch({interactions, removal, single});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats.failed_requests, 0u);
  EXPECT_FALSE(batch->results[0]->interactions.empty());
  // Removal sets for the running example: {C1,C3} and {C2,C3}.
  ASSERT_EQ(batch->results[1]->removal_sets.size(), 2u);
  ASSERT_TRUE(batch->results[2]->single_cell.has_value());
  // The constraint-mask evaluations behind interactions and removal
  // sets overlap, so the batch must record amortized work.
  EXPECT_GT(batch->stats.cross_request_hits, 0u);
}

TEST(EngineTest, ReferenceCleanExposedAfterEnsureRepair) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  EXPECT_FALSE(engine.has_repair());
  ASSERT_TRUE(engine.EnsureRepair().ok());
  ASSERT_TRUE(engine.has_repair());
  EXPECT_EQ(engine.reference_clean(), data::SoccerCleanTable());
  EXPECT_EQ(engine.num_algorithm_calls(), 1u);
}

TEST(EngineTest, TooManyConstraintsForMaskRejected) {
  // 65 constraints exceed the uint64_t subset-mask width; the engine
  // must reject the request instead of silently truncating.
  const Schema schema = data::SoccerSchema();
  std::string text;
  for (int i = 1; i <= 65; ++i) {
    text += "X" + std::to_string(i) +
            ": !(t1.Team == t2.Team & t1.City != t2.City)\n";
  }
  auto dcs = dc::ParseDcSet(text, schema);
  ASSERT_TRUE(dcs.ok()) << dcs.status();
  ASSERT_EQ(dcs->size(), 65u);
  Engine engine(Alg(), *dcs, data::SoccerDirtyTable());
  auto result = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  ExplainRequest removal = ConstraintRequest(data::SoccerTargetCell());
  removal.kind = ExplainKind::kRemovalSets;
  EXPECT_FALSE(engine.Explain(removal).ok());
}

TEST(EngineTest, SingleCellRequestWithoutPlayerCellRejected) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kSingleCell;  // single_cell left unset
  auto result = engine.Explain(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ExplanationReportsPerRequestCostOnWarmEngine) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto first = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->explanation->algorithm_calls, 16u);
  EXPECT_EQ(first->explanation->cache_hits, 1u);  // the full set
  auto second =
      engine.Explain(ConstraintRequest(data::SoccerCell(5, "City")));
  ASSERT_TRUE(second.ok());
  // The warm engine served everything from cache: the embedded
  // Explanation reports this request's cost, not lifetime totals.
  EXPECT_EQ(second->explanation->algorithm_calls, 0u);
  EXPECT_EQ(second->explanation->cache_hits, 16u);
}

TEST(EngineTest, MemoHitsGiveBitIdenticalExplanations) {
  // A repeat served entirely from the memo (zero repair calls) matches
  // a fresh engine's cold run bit for bit.
  Engine warm(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  Engine cold(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  const ExplainRequest request =
      CellsRequest(data::SoccerTargetCell(), 48, /*seed=*/11);
  ASSERT_TRUE(warm.Explain(request).ok());
  const std::size_t calls = warm.num_algorithm_calls();
  auto a = warm.Explain(request);
  auto b = cold.Explain(request);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectSameExplanation(*a->explanation, *b->explanation);
  EXPECT_EQ(warm.num_algorithm_calls(), calls);
  EXPECT_EQ(cold.num_algorithm_calls(), calls);
}

TEST(EngineTest, BatchMemoIsCompactAndMatchesSeparateEngines) {
  // A mixed batch shares one memo across its targets: every answer
  // matches a fresh engine serving that request alone, and no entry
  // holds a table. (On this 36-cell table nearly every cell is a cell
  // player, so the cell requests' write sets approach table size; the
  // bound is half a dirty-table copy per memoized repair run.)
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  std::vector<ExplainRequest> requests;
  for (const CellRef& target : ThreeTargets()) {
    requests.push_back(ConstraintRequest(target));
  }
  requests.push_back(CellsRequest(data::SoccerTargetCell(), 32, /*seed=*/9));
  auto batch = engine.ExplainBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Engine alone(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
    auto expected = alone.Explain(requests[i]);
    ASSERT_TRUE(batch->results[i].ok());
    ASSERT_TRUE(expected.ok());
    ExpectSameExplanation(*batch->results[i]->explanation,
                          *expected->explanation);
  }
  const std::size_t entries =
      batch->stats.algorithm_calls - batch->stats.reference_repairs;
  ASSERT_GT(entries, 0u);
  EXPECT_LE(2 * batch->stats.approx_memo_bytes,
            entries * ThreeTargetDirtyTable().ApproxMemoryBytes())
      << "memo=" << batch->stats.approx_memo_bytes << " bytes over "
      << entries << " entries";
  EXPECT_EQ(engine.approx_memo_bytes(), batch->stats.approx_memo_bytes);
}

TEST(EngineTest, LaterBatchTargetsReadEarlierEntries) {
  // Targets first seen in a later batch read their outcomes from the
  // entries the first batch wrote: zero repair calls, and answers
  // bit-identical to a fresh engine.
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  auto first =
      engine.ExplainBatch({ConstraintRequest(data::SoccerTargetCell())});
  ASSERT_TRUE(first.ok()) << first.status();

  std::vector<ExplainRequest> second;
  second.push_back(ConstraintRequest(data::SoccerCell(3, "City")));
  second.push_back(ConstraintRequest(data::SoccerCell(5, "City")));
  auto later = engine.ExplainBatch(second);
  Engine fresh(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  auto expected = fresh.ExplainBatch(second);
  ASSERT_TRUE(later.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(later->stats.algorithm_calls, 0u);
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(later->results[i].ok());
    ASSERT_TRUE(expected->results[i].ok());
    ExpectSameExplanation(*later->results[i]->explanation,
                          *expected->results[i]->explanation);
  }
}

TEST(EngineTest, SamplingMethodLabelReportsTheBudgetActuallyRun) {
  // AnytimeOptions::max_sweeps replaces the per-kind sample budget; the
  // method label must name the budget the run was given. An unreachable
  // CI target keeps the rule from stopping early.
  AnytimeOptions anytime;
  anytime.target_ci_half_width = 1e-12;
  anytime.max_sweeps = 20;
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());

  ExplainRequest constraints = ConstraintRequest(data::SoccerTargetCell());
  constraints.constraints.force_sampling = true;
  constraints.constraints.sampling.num_samples = 500;
  constraints.anytime = anytime;
  auto a = engine.Explain(constraints);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->sweeps, 20u);
  EXPECT_EQ(a->explanation->method, "sampling(m=20)");

  ExplainRequest cells =
      CellsRequest(data::SoccerTargetCell(), 300, /*seed=*/5);
  cells.anytime = anytime;
  auto b = engine.Explain(cells);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->sweeps, 20u);
  EXPECT_EQ(b->explanation->method.rfind("sampling(m=20, ", 0), 0u)
      << b->explanation->method;
}

TEST(EngineTest, BatchLevelCancelShortCircuitsRemainingSlots) {
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  CancelSource source;
  source.Cancel();  // pre-cancelled: every slot lands Cancelled
  std::vector<ExplainRequest> requests;
  for (const CellRef& target : ThreeTargets()) {
    requests.push_back(ConstraintRequest(target));
  }
  auto batch = engine.ExplainBatch(requests, source.token());
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->stats.failed_requests, 3u);
  EXPECT_EQ(batch->stats.cancelled_requests, 3u);
  for (const auto& result : batch->results) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // A dead batch on a cold engine pays nothing — not even the
  // reference repair.
  EXPECT_EQ(engine.num_algorithm_calls(), 0u);
  // The engine stays reusable and an uncancelled batch still works.
  auto ok_batch = engine.ExplainBatch(requests);
  ASSERT_TRUE(ok_batch.ok());
  EXPECT_EQ(ok_batch->stats.failed_requests, 0u);
  EXPECT_EQ(ok_batch->stats.cancelled_requests, 0u);
}

TEST(EngineTest, CellSamplingMatchesTheGenericSweepOnACellGame) {
  // kCells sampling under kNull is the generic permutation sweep over a
  // CellGame on the same box and player list: same seed, same 32-sweep
  // shards, bit-identical estimates — for a fixed budget and for an
  // anytime run, at any thread count. The anytime target freezes most
  // players after the first wave and the rest later, so this also pins
  // the engine's freeze path.
  const CellRef target = data::SoccerTargetCell();
  constexpr std::size_t kBudget = 400;
  constexpr std::uint64_t kSeed = 21;
  constexpr std::size_t kCheckInterval = 32;
  for (const std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool anytime : {false, true}) {
      SCOPED_TRACE(testing::Message() << "threads=" << num_threads
                                      << " anytime=" << anytime);
      ExplainRequest request = CellsRequest(target, kBudget, kSeed);
      request.cells.prune = false;  // players = every cell
      shap::SamplingOptions sampling;
      sampling.num_samples = kBudget;
      sampling.seed = kSeed;
      sampling.shard_size = 32;
      sampling.num_threads = num_threads;
      if (anytime) {
        AnytimeOptions options;
        options.target_ci_half_width = 0.1;
        options.check_interval = kCheckInterval;
        request.anytime = options;
        sampling.stop.target_half_width = 0.1;
        sampling.check_interval = kCheckInterval;
      }
      EngineOptions engine_options;
      engine_options.num_threads = num_threads;
      Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
                    engine_options);
      auto result = engine.Explain(request);
      ASSERT_TRUE(result.ok()) << result.status();

      auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                      data::SoccerDirtyTable(), target);
      ASSERT_TRUE(box.ok()) << box.status();
      CellGame game(&*box, box->dirty().AllCells());
      shap::SweepOutcome outcome;
      auto estimates = shap::EstimateShapleyAllPlayers(game, sampling, &outcome);
      ASSERT_TRUE(estimates.ok()) << estimates.status();

      EXPECT_EQ(result->sweeps, outcome.sweeps);
      EXPECT_EQ(result->early_stopped, outcome.stopped_early);
      const Explanation& ex = *result->explanation;
      ASSERT_EQ(ex.ranked.size(), estimates->size());
      bool froze_before_the_end = false;
      for (const PlayerScore& score : ex.ranked) {
        const shap::Estimate& expected =
            (*estimates)[box->dirty().LinearIndex(*score.cell)];
        EXPECT_EQ(score.shapley, expected.value) << score.label;
        EXPECT_EQ(score.std_error, expected.std_error) << score.label;
        EXPECT_EQ(score.num_samples, expected.num_samples) << score.label;
        froze_before_the_end |= score.num_samples < result->sweeps;
      }
      if (anytime) {
        EXPECT_GT(outcome.frozen_players, 0u);
        EXPECT_GT(outcome.sweeps, kCheckInterval);
        EXPECT_LT(outcome.sweeps, kBudget);
        EXPECT_TRUE(froze_before_the_end);
      } else {
        EXPECT_EQ(outcome.sweeps, kBudget);
      }
    }
  }
}

TEST(EngineTest, ColumnSampleCellAnswersArePinned) {
  // kCells under kSampleFromColumn: each sweep draws its permutation,
  // then one replacement per player in player order. These values were
  // recorded from that stream; any change to the draw order moves them.
  struct Pin {
    const char* label;
    double shapley;
    double std_error;
    std::size_t num_samples;
  };
  const Pin pins[] = {
      {"t2[Country]", 0x1.2p-3, 0x1.66caa7ca3ce37p-5, 64},
      {"t6[Country]", 0x1.2p-3, 0x1.66caa7ca3ce36p-5, 64},
      {"t3[Country]", 0x1.cp-4, 0x1.4220532e48a3dp-5, 64},
      {"t1[Country]", 0x1.0000000000001p-4, 0x1.f3a92ca2f4b7cp-6, 64},
      {"t2[Team]", 0x1.8000000000001p-5, 0x1.b44f60ac465aap-6, 64},
      {"t4[Team]", 0x1.0000000000001p-5, 0x1.672763164bb61p-6, 64},
      {"t5[City]", 0x1.0000000000001p-5, 0x1p-5, 64},
      {"t5[Team]", 0x1.0000000000001p-6, 0x1.fffffffffffffp-7, 64},
      {"t1[League]", 0x0p+0, 0x0p+0, 64},
      {"t2[League]", 0x0p+0, 0x0p+0, 64},
      {"t3[League]", 0x0p+0, 0x0p+0, 64},
      {"t4[City]", 0x0p+0, 0x1.6ce6931d5858dp-6, 64},
      {"t4[League]", 0x0p+0, 0x0p+0, 64},
      {"t5[League]", 0x0p+0, 0x0p+0, 64},
      {"t6[Team]", 0x0p+0, 0x0p+0, 64},
      {"t6[City]", 0x0p+0, 0x1.6ce6931d5858dp-6, 64},
      {"t6[League]", 0x0p+0, 0x0p+0, 64},
      {"t1[City]", -0x1p-6, 0x1.2007393ff2a57p-5, 64},
      {"t3[City]", -0x1p-6, 0x1.fffffffffffffp-7, 64},
      {"t3[Team]", -0x1p-5, 0x1p-5, 64},
      {"t2[City]", -0x1.0000000000001p-5, 0x1.672763164bb62p-6, 64},
      {"t4[Country]", -0x1.0000000000001p-4, 0x1.355c0f0f551bfp-5, 64},
      {"t5[Country]", -0x1.4000000000001p-4, 0x1.4bac3db22d138p-5, 64},
      {"t1[Team]", -0x1.8p-4, 0x1.2cd5ede9b5cbap-5, 64},
  };
  for (const std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << num_threads);
    EngineOptions options;
    options.num_threads = num_threads;
    Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
                  options);
    ExplainRequest request =
        CellsRequest(data::SoccerTargetCell(), 64, /*seed=*/31);
    request.cells.policy = AbsentCellPolicy::kSampleFromColumn;
    auto result = engine.Explain(request);
    ASSERT_TRUE(result.ok()) << result.status();
    const Explanation& ex = *result->explanation;
    EXPECT_EQ(ex.method,
              "sampling(m=64, policy=column-sample, players=24/36)");
    EXPECT_EQ(result->sweeps, 64u);
    ASSERT_EQ(ex.ranked.size(), std::size(pins));
    for (std::size_t i = 0; i < ex.ranked.size(); ++i) {
      EXPECT_EQ(ex.ranked[i].label, pins[i].label) << i;
      EXPECT_EQ(ex.ranked[i].shapley, pins[i].shapley) << pins[i].label;
      EXPECT_EQ(ex.ranked[i].std_error, pins[i].std_error) << pins[i].label;
      EXPECT_EQ(ex.ranked[i].num_samples, pins[i].num_samples)
          << pins[i].label;
    }
  }
}

TEST(EngineTest, SingleCellAnswersArePinned) {
  // kSingleCell at 300 with/without pairs on Country cells, whose values
  // are nonzero under both policies. Under kNull the repair-call count
  // is pinned too; it includes the reference repair. Under
  // kSampleFromColumn each pair draws its permutation, then one
  // replacement per player in player order (the cell game's sweep
  // state); any change to the draw order moves these values.
  struct Pin {
    AbsentCellPolicy policy;
    std::size_t row;
    double shapley;
    double std_error;
    std::size_t algorithm_calls;  // checked under kNull only
  };
  constexpr AbsentCellPolicy kNull = AbsentCellPolicy::kNull;
  constexpr AbsentCellPolicy kColumn = AbsentCellPolicy::kSampleFromColumn;
  const Pin pins[] = {
      {kNull, 3, 0x1.0a3d70a3d70a4p-3, 0x1.3ea6b9561218p-6, 536},
      {kNull, 5, -0x1.eb851eb851ebfp-5, 0x1.1bd4f928ea429p-6, 540},
      {kNull, 6, 0x1.4e81b4e81b4e9p-3, 0x1.5e441904bffd4p-6, 560},
      {kColumn, 3, 0x1.5555555555557p-4, 0x1.05e0d5730f93cp-6, 0},
      {kColumn, 5, -0x1.62fc962fc9635p-4, 0x1.343a7e8e9aaf1p-6, 0},
      {kColumn, 6, 0x1.0a3d70a3d70a5p-3, 0x1.3ea6b9561218p-6, 0},
  };
  for (const std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    for (const Pin& pin : pins) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << num_threads << " t" << pin.row
                   << "[Country] " << AbsentCellPolicyToString(pin.policy));
      EngineOptions options;
      options.num_threads = num_threads;
      Engine engine(Alg(), data::SoccerConstraints(),
                    data::SoccerDirtyTable(), options);
      ExplainRequest request;
      request.target = data::SoccerTargetCell();
      request.kind = ExplainKind::kSingleCell;
      request.cells.policy = pin.policy;
      request.cells.num_samples = 300;
      request.cells.seed = 4242;
      request.single_cell = data::SoccerCell(pin.row, "Country");
      auto result = engine.Explain(request);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(result->single_cell.has_value());
      const PlayerScore& score = *result->single_cell;
      EXPECT_EQ(score.shapley, pin.shapley);
      EXPECT_EQ(score.std_error, pin.std_error);
      EXPECT_EQ(score.num_samples, 300u);
      EXPECT_EQ(result->sweeps, 300u);
      if (pin.policy == kNull) {
        EXPECT_EQ(result->algorithm_calls, pin.algorithm_calls);
      }
    }
  }
}

TEST(EngineTest, TopKCellRankingIsPinned) {
  // The adaptive top-1 ranking stops at the first 16-sweep round where
  // the leader's CI separates from the runner-up's.
  const std::vector<std::string> ranking = {
      "t5[League]", "t1[Country]", "t6[Country]", "t5[Team]",
      "t2[Country]", "t3[Country]", "t2[City]",   "t6[Team]",
      "t3[City]",   "t6[City]",    "t1[League]",  "t6[League]",
      "t1[City]",   "t3[League]",  "t1[Team]",    "t2[Team]",
      "t2[League]", "t4[Team]",    "t4[City]",    "t4[Country]",
      "t4[League]", "t5[City]",    "t5[Country]", "t3[Team]"};
  for (const std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << num_threads);
    EngineOptions options;
    options.num_threads = num_threads;
    Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
                  options);
    CellExplainerOptions cells;
    cells.policy = AbsentCellPolicy::kNull;
    cells.num_samples = 1024;
    cells.seed = 7;
    auto ex = engine.ExplainTopKCells(data::SoccerTargetCell(), 1, cells);
    ASSERT_TRUE(ex.ok()) << ex.status();
    EXPECT_EQ(ex->method, "topk(k=1, sweeps=96, separated=yes)");
    std::vector<std::string> labels;
    for (const PlayerScore& score : ex->ranked) {
      labels.push_back(score.label);
      EXPECT_EQ(score.num_samples, 96u) << score.label;
    }
    EXPECT_EQ(labels, ranking);
  }
}

TEST(EngineTest, ZeroSweepBudgetRejectedBeforeTheReferenceRepair) {
  // A sampled request with no sweeps has no estimate to give: each kind
  // is rejected up front, before the reference repair is paid for.
  ExplainRequest cells = CellsRequest(data::SoccerTargetCell(), 0, 1);
  ExplainRequest single;
  single.target = data::SoccerTargetCell();
  single.kind = ExplainKind::kSingleCell;
  single.cells.num_samples = 0;
  single.single_cell = data::SoccerCell(5, "League");
  ExplainRequest constraints = ConstraintRequest(data::SoccerTargetCell());
  constraints.constraints.force_sampling = true;
  constraints.constraints.sampling.num_samples = 0;
  // With anytime enabled, `max_sweeps` is the budget when set.
  AnytimeOptions anytime;
  anytime.target_ci_half_width = 0.1;
  ExplainRequest anytime_cells =
      CellsRequest(data::SoccerTargetCell(), 0, 1);
  anytime_cells.anytime = anytime;
  for (const ExplainRequest& request :
       {cells, single, constraints, anytime_cells}) {
    SCOPED_TRACE(ExplainKindToString(request.kind));
    Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
    auto result = engine.Explain(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.num_algorithm_calls(), 0u);
  }

  // A `max_sweeps` override supplies the budget a zero `num_samples`
  // lacks; exact paths never read the sweep budget.
  anytime.max_sweeps = 8;
  anytime_cells.anytime = anytime;
  ExplainRequest exact_constraints =
      ConstraintRequest(data::SoccerTargetCell());
  exact_constraints.constraints.sampling.num_samples = 0;
  for (const ExplainRequest& request :
       {anytime_cells, exact_constraints}) {
    SCOPED_TRACE(ExplainKindToString(request.kind));
    Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
    auto result = engine.Explain(request);
    EXPECT_TRUE(result.ok()) << result.status();
  }
}

TEST(EngineTest, TopKCellsRejectsZeroK) {
  // A zero k or a zero sweep budget is rejected before the reference
  // repair is paid for.
  CellExplainerOptions cells;
  cells.policy = AbsentCellPolicy::kNull;
  CellExplainerOptions no_sweeps = cells;
  no_sweeps.num_samples = 0;
  const std::pair<std::size_t, CellExplainerOptions> cases[] = {
      {0, cells}, {1, no_sweeps}};
  for (const auto& [k, options] : cases) {
    SCOPED_TRACE(testing::Message() << "k=" << k << " num_samples="
                                    << options.num_samples);
    Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
    auto ex = engine.ExplainTopKCells(data::SoccerTargetCell(), k, options);
    ASSERT_FALSE(ex.ok());
    EXPECT_EQ(ex.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.num_algorithm_calls(), 0u);
  }
}

TEST(EngineTest, ExplainKindNames) {
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kConstraints),
               "constraints");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kCells), "cells");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kInteractions),
               "interactions");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kRemovalSets),
               "removal-sets");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kSingleCell),
               "single-cell");
}

}  // namespace
}  // namespace trex
