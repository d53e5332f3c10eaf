// `trex::Engine`: the single-instance COMPUTE layer of the explanation
// stack — one engine owns one repair instance (Alg, C, T^d).
//
// The stack splits into two layers with distinct jobs and contracts:
//
//   * `Engine` (this file) is the synchronous compute unit. It owns one
//     shared `BlackBoxRepair` — the reference repair runs exactly once
//     per (algorithm, DcSet, Table) — and serves every explanation kind
//     through one request/response surface:
//
//       Engine engine(algorithm, dcs, dirty);
//       ExplainRequest req;
//       req.target = cell;
//       req.kind = ExplainKind::kConstraints;
//       auto result = engine.Explain(req);                 // one query
//       auto batch  = engine.ExplainBatch({r1, r2, r3});   // amortized
//
//   * `serving::ExplainService` (src/serving/service.h) is the ASYNC
//     front-end a deployment talks to. Its request path is a three-stage
//     admit → coalesce → execute scheduler: ADMIT bounds the queue and
//     load-sheds the lowest-priority job (`Status::Rejected`) when it is
//     full; COALESCE gathers queued same-engine jobs at dequeue and
//     lowers them into one `ExplainBatch` call here, fanning per-target
//     results back to each job's ticket; EXECUTE runs under per-job
//     cancellation tokens armed by caller cancels *and* wall-clock
//     deadlines, which the sweep/enumeration loops below poll mid-run.
//     Underneath, a `serving::EngineRouter` keys a bounded LRU pool of
//     engines by (algorithm id, DcSet fingerprint, table fingerprint),
//     so each engine keeps the amortization story below while the
//     service scales across tables. `TRexSession` adapts the service
//     back into the paper's interactive single-table loop.
//
// Amortization: all targets in a batch (and across sequential `Explain`
// calls on the same engine) share the memo caches — a constraint-subset
// repair computed for one target answers the characteristic function
// for every other target, so a batch of constraint explanations over k
// targets costs one sweep of the 2^|C| subsets instead of k sweeps.
// `BatchStats::cross_request_hits` reports exactly how much work was
// amortized; `EngineOptions::max_memo_entries` bounds the number of
// table-memo entries (each a write set plus a disagreement set) with
// LRU eviction for large workloads.
// Permutation sweeps shard across a small thread pool with
// deterministic per-shard seeds (see shapley_sampling.h), so results
// are bit-identical for every `EngineOptions::num_threads`, between
// `ExplainBatch` and serial `Explain` calls, and between the service
// path and direct engine calls with the same seeds.
//
// Cancellation is per target, batch-wide, or both: each
// `ExplainRequest::cancel` is polled between black-box evaluations
// inside the sweep/enumeration loops (so one coalesced batch member can
// expire — e.g. on its own deadline — without disturbing its
// neighbors), and `ExplainBatch` additionally accepts a batch-level
// token merged into every member and checked between slots. A cancelled
// request returns `Status::Cancelled` promptly and leaves the engine
// reusable.
//
// Thread-safety contract, per layer (the synchronized layers carry
// Clang thread-safety annotations — see common/thread_annotations.h —
// so a clang build with -Wthread-safety enforces this table at compile
// time):
//   * `Engine` — one caller at a time; it holds no mutex of its own.
//     `Explain`/`ExplainBatch` mutate shared state (the target
//     registry, request ids). Parallelism lives *inside* a request via
//     `EngineOptions::num_threads`: the sweep shards fan out over
//     `common::ThreadPool`, whose queue state is GUARDED_BY its
//     internal mutex.
//   * `BlackBoxRepair` — internally synchronized for concurrent
//     evaluations (the sweep shards rely on this). The shared memo in
//     `repair::CacheState` is GUARDED_BY a `SharedMutex`: shared for
//     memo hits, exclusive for inserts and evictions.
//   * `serving::EngineRouter` / `serving::ExplainService` — fully
//     thread-safe; all guarded state is annotated, and the lock-order
//     and stats-deadlock rules are documented in their file comments.
//     The router serializes per-engine access (`EngineEntry::mu`) so
//     the engine's single-caller invariant holds under concurrent
//     traffic.
//
// `ConstraintExplainer`, `CellExplainer`, and `TRexSession` are thin
// adapters over this stack.

#ifndef TREX_CORE_ENGINE_H_
#define TREX_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/explainer.h"
#include "core/repair_game.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "common/cancel.h"
#include "table/table.h"

namespace trex {

/// What kind of explanation a request asks for.
enum class ExplainKind {
  /// Rank the denial constraints by Shapley contribution (paper §2.2).
  kConstraints,
  /// Rank the table cells by Shapley contribution (paper §2.2).
  kCells,
  /// Pairwise constraint Shapley interaction indices (Example 2.3).
  kInteractions,
  /// Inclusion-minimal constraint removal sets (counterfactuals).
  kRemovalSets,
  /// Single-cell contribution estimate (Example 2.5).
  kSingleCell,
};

const char* ExplainKindToString(ExplainKind kind);

/// Anytime estimation: confidence-bounded early stopping for the
/// engine's sampled paths (kCells / kConstraints sweeps, kSingleCell).
/// When enabled, a sampled request stops at the first wave boundary
/// where every player's confidence half-width meets the target — the
/// per-kind `num_samples` becomes an upper bound, not a fixed spend —
/// and reports the sweeps consumed plus the achieved width on the
/// result. Stopping decisions are made on deterministically merged
/// statistics at shard-index-defined wave boundaries (see
/// shap::EstimateShapleyAllPlayers, the one sweep sampler behind every
/// sampled ranking), so estimates and the stopping point stay
/// bit-identical at every `EngineOptions::num_threads`. A sampled
/// request whose effective budget is 0 (`max_sweeps` when it is set and
/// the rule is enabled, else the per-kind `num_samples`) is rejected
/// before the reference repair.
struct AnytimeOptions {
  /// Stop once every player's CI half-width is at or below this value.
  /// Unset = anytime stopping disabled (fixed budget).
  std::optional<double> target_ci_half_width;
  /// Bound family: normal-theory or empirical Bernstein.
  shap::BoundKind bound = shap::BoundKind::kNormal;
  /// Normal-theory width multiplier (kNormal only).
  double z = 1.96;
  /// Per-player failure probability (kBernstein only).
  double delta = 0.05;
  /// No player counts as converged below this many samples.
  std::size_t min_samples = 16;
  /// Skip converged players' repair evaluations in later sweeps.
  bool freeze_converged = true;
  /// Stopping-check granularity in sweeps, rounded up to whole shards:
  /// a wave spans `ceil(check_interval / shard_size)` shards which run
  /// concurrently, so this also sizes the parallelism available to an
  /// anytime run. Part of the configuration — results depend on it,
  /// never on the thread count.
  std::size_t check_interval = 256;
  /// Sweep budget override for sampled paths; 0 = keep the per-kind
  /// `num_samples` budget.
  std::size_t max_sweeps = 0;

  bool enabled() const { return target_ci_half_width.has_value(); }
};

/// One explanation query: a target cell, the kind of explanation, and
/// the options for that kind (unused option groups are ignored).
struct ExplainRequest {
  /// The repaired cell to explain.
  CellRef target;
  ExplainKind kind = ExplainKind::kConstraints;
  /// Options for kConstraints / kInteractions / kRemovalSets.
  ConstraintExplainerOptions constraints;
  /// Options for kCells / kSingleCell.
  CellExplainerOptions cells;
  /// kRemovalSets: largest removal-set size searched.
  std::size_t max_removal_set_size = 3;
  /// kSingleCell: the player cell whose contribution is estimated.
  /// Required for that kind — an unset value is an error, never a
  /// silent default cell.
  std::optional<CellRef> single_cell;
  /// Anytime estimation override for this request; unset = the engine's
  /// `EngineOptions::anytime` default applies.
  std::optional<AnytimeOptions> anytime;
  /// Soft stop (see shap::StopRule::soften): once fired, a sampled path
  /// finishes its current wave and returns the partial
  /// confidence-bounded estimates with `ExplainResult::approximate` set
  /// — instead of discarding work like `cancel`. The serving layer arms
  /// this from expiring deadlines to degrade gracefully.
  CancelToken soften;
  /// Cooperative cancellation: polled between black-box evaluations in
  /// the sweep and subset-enumeration loops, so an in-flight request
  /// stops within one repair call of cancellation and returns
  /// `Status::Cancelled`. Default token = never cancelled.
  CancelToken cancel;
};

/// The engine's answer to one request. Exactly one payload field is
/// populated, per `kind`: `explanation` for kConstraints/kCells,
/// `interactions`, `removal_sets`, or `single_cell`.
struct ExplainResult {
  ExplainKind kind = ExplainKind::kConstraints;
  CellRef target;
  std::optional<Explanation> explanation;
  std::vector<InteractionScore> interactions;
  std::vector<std::vector<std::string>> removal_sets;
  std::optional<PlayerScore> single_cell;
  /// Algorithm invocations charged to this request. An `Explain` call
  /// that first builds the shared box is charged the reference run; in
  /// an `ExplainBatch` the reference run is charged to the batch
  /// (`BatchStats::reference_repairs`), not to any one request.
  std::size_t algorithm_calls = 0;
  /// Memo hits while serving this request...
  std::size_t cache_hits = 0;
  /// ...of which hits on entries another request paid for.
  std::size_t cross_request_hits = 0;
  /// Permutation sweeps consumed by a sampled path (0 for exact paths).
  std::size_t sweeps = 0;
  /// Largest per-player confidence half-width when a sampled run ended,
  /// under the effective bound family; unset for exact paths.
  std::optional<double> achieved_ci_half_width;
  /// A stopping rule ended the sampled run before its sweep budget.
  bool early_stopped = false;
  /// The request's soften token fired: the estimates are partial but
  /// valid and confidence-bounded (`achieved_ci_half_width` reports how
  /// wide). Never set on exact paths, which either finish or cancel.
  bool approximate = false;
};

/// Aggregate cost accounting for one `ExplainBatch` call.
struct BatchStats {
  std::size_t requests = 0;
  std::size_t failed_requests = 0;
  /// ...of which resolved `Cancelled` (a member's own token or the
  /// batch-level token fired).
  std::size_t cancelled_requests = 0;
  /// 1 when this batch ran the reference repair (first use of the
  /// engine), else 0 — never more, regardless of batch size.
  std::size_t reference_repairs = 0;
  std::size_t algorithm_calls = 0;
  std::size_t cache_hits = 0;
  /// Hits on memo entries written by an *earlier* request — the work the
  /// batch amortized across targets.
  std::size_t cross_request_hits = 0;
  /// Table-memo entries evicted while serving this batch (only non-zero
  /// when `EngineOptions::max_memo_entries` caps the memo).
  std::size_t cache_evictions = 0;
  /// Estimated resident bytes of the engine's memo caches after the
  /// batch (`BlackBoxRepair::approx_memo_bytes`).
  std::size_t approx_memo_bytes = 0;
  /// Permutation sweeps consumed across the batch's sampled requests.
  std::size_t sweeps = 0;
  /// Largest `ExplainResult::achieved_ci_half_width` in the batch (0
  /// when no sampled request ran).
  double max_achieved_ci_half_width = 0.0;
  /// Requests whose stopping rule fired before the sweep budget.
  std::size_t early_stopped_requests = 0;
  /// Requests resolved with partial (softened) estimates.
  std::size_t approximate_requests = 0;
};

/// The results of a batch, slot-for-slot with the request vector.
/// Per-request failures (e.g. an unrepaired target) land in their slot;
/// engine-level failures fail the whole batch.
struct BatchResult {
  std::vector<Result<ExplainResult>> results;
  BatchStats stats;
};

/// Options for the engine.
struct EngineOptions {
  /// Worker threads for sharded permutation sweeps. Shapley estimates
  /// are bit-identical for every value (sharding is seed-deterministic);
  /// only wall-clock time changes. Cost counters may report a few extra
  /// algorithm calls under concurrency when two shards miss the same
  /// memo key simultaneously.
  std::size_t num_threads = 1;
  /// Entry cap for the `BlackBoxRepair` table memo (each entry stores an
  /// input write set plus the cells where its repair disagrees with the
  /// reference repair). 0 = unbounded. Evictions are LRU and change
  /// only cost, never results; they are surfaced in
  /// `BatchStats::cache_evictions` and `Engine::num_cache_evictions()`.
  std::size_t max_memo_entries = 0;
  /// Engine-wide anytime estimation default for sampled paths; each
  /// request can override it via `ExplainRequest::anytime`.
  AnytimeOptions anytime;
};

/// Unified multi-target explanation engine (see file comment).
class Engine {
 public:
  /// The algorithm is shared (not copied) and must outlive the engine.
  Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
         dc::DcSet dcs, Table dirty, EngineOptions options = {});

  /// Shares the dirty table with the caller (the router/session path):
  /// only one copy stays resident, handed through to the
  /// `BlackBoxRepair` at `EnsureRepair`. `dirty` must not be null.
  Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
         dc::DcSet dcs, std::shared_ptr<const Table> dirty,
         EngineOptions options = {});

  /// Non-owning adapter for callers holding a bare reference; the
  /// algorithm must outlive the engine.
  static Engine Wrap(const repair::RepairAlgorithm& algorithm, dc::DcSet dcs,
                     Table dirty, EngineOptions options = {});

  const Table& dirty() const { return *dirty_; }
  /// The shared dirty-table handle (for callers that want to alias it).
  const std::shared_ptr<const Table>& shared_dirty() const { return dirty_; }
  const dc::DcSet& dcs() const { return dcs_; }
  const repair::RepairAlgorithm& algorithm() const { return *algorithm_; }
  const EngineOptions& options() const { return options_; }

  /// Runs the reference repair if it has not run yet. `Explain` does
  /// this on demand; call it eagerly to surface repair failures early or
  /// to read `reference_clean()`.
  [[nodiscard]] Status EnsureRepair();

  /// True once the reference repair ran.
  bool has_repair() const { return box_.has_value(); }

  /// The reference clean table T^c; requires `has_repair()`.
  const Table& reference_clean() const;

  /// Serves one explanation request.
  [[nodiscard]] Result<ExplainResult> Explain(const ExplainRequest& request);

  /// Serves a batch of requests over the shared caches. The reference
  /// repair runs at most once for the whole batch; requests are
  /// processed in order, so results are bit-identical to issuing the
  /// same requests serially through `Explain` on a fresh engine with
  /// the same options. Cancellation is per target and batch-wide: each
  /// request's own `cancel` token is polled inside its sweeps (a
  /// cancelled member lands `Status::Cancelled` in its slot without
  /// failing the batch), while `cancel` here is merged into every
  /// member and also short-circuits the remaining slots between
  /// requests — for callers that want one lever over a whole batch.
  /// (The service relies on per-job tokens instead: its shutdown path
  /// flips every outstanding job's own source.)
  [[nodiscard]] Result<BatchResult> ExplainBatch(const std::vector<ExplainRequest>& requests,
                                   CancelToken cancel = {});

  /// Adaptive top-k cell ranking (see CellExplainer::ExplainTopK): the
  /// sweep sampler with a `StopRule::top_k` rule, one sweep per shard
  /// and a separation test every 16 sweeps. A round's sweeps execute
  /// concurrently on the engine's persistent pool and the test runs on
  /// deterministically merged statistics, so the ranking is
  /// bit-identical at every thread count. `k` must be positive.
  /// `soften` degrades like `ExplainRequest::soften`: finish the current
  /// round and return the partial ranking.
  [[nodiscard]] Result<Explanation> ExplainTopKCells(CellRef target, std::size_t k,
                                       const CellExplainerOptions& options,
                                       CancelToken cancel = {},
                                       CancelToken soften = {});

  /// Lifetime totals across every request served by this engine.
  std::size_t num_algorithm_calls() const;
  std::size_t num_cache_hits() const;
  std::size_t num_cross_request_hits() const;
  std::size_t num_cache_evictions() const;
  /// Estimated resident bytes of the memo caches right now (0 before
  /// the reference repair). See `BlackBoxRepair::approx_memo_bytes`.
  std::size_t approx_memo_bytes() const;

 private:
  /// Cheap request screening (bounds, option consistency) that must run
  /// before the reference repair is paid for.
  [[nodiscard]] Status ValidateRequest(const ExplainRequest& request) const;

  [[nodiscard]] Result<std::size_t> EnsureTarget(CellRef target);

  /// The anytime options in effect for a request.
  const AnytimeOptions& EffectiveAnytime(const ExplainRequest& request) const;
  /// The sampling options a sampled request runs with: its kind's budget
  /// and seed, its anytime rule (override or engine default), its soften
  /// and cancel tokens, and the engine's thread count and pool. The one
  /// lowering every sampled kind goes through.
  shap::SamplingOptions SweepOptions(const ExplainRequest& request);
  /// True when the request would run a sampled path (permutation sweeps
  /// or the single-player estimator) rather than an exact one. For
  /// kCells this builds the player set, so callers ask only when the
  /// answer matters.
  bool IsSampled(const ExplainRequest& request) const;

  // The sampled per-kind helpers take the whole request (for anytime
  // options and the soften token) and record sweep telemetry — sweeps,
  // achieved CI width, early-stop/approximate flags — onto `result`.
  [[nodiscard]] Result<Explanation> ExplainConstraints(std::size_t target_index,
                                         const ExplainRequest& request,
                                         ExplainResult* result);
  [[nodiscard]] Result<std::vector<InteractionScore>> ExplainInteractions(
      std::size_t target_index, const ConstraintExplainerOptions& options,
      const CancelToken& cancel);
  [[nodiscard]] Result<std::vector<std::vector<std::string>>> ExplainRemovalSets(
      std::size_t target_index, const ConstraintExplainerOptions& options,
      std::size_t max_set_size, const CancelToken& cancel);
  [[nodiscard]] Result<Explanation> ExplainCells(std::size_t target_index,
                                   const ExplainRequest& request,
                                   ExplainResult* result);
  [[nodiscard]] Result<PlayerScore> ExplainSingleCell(std::size_t target_index,
                                        const ExplainRequest& request,
                                        ExplainResult* result);

  std::vector<CellRef> PlayerCells(const CellExplainerOptions& options,
                                   CellRef target) const;
  [[nodiscard]] Status RequireRepairedTarget(std::size_t target_index) const;
  [[nodiscard]] Status RequireMaskableConstraints() const;
  /// The engine's persistent worker pool (lazily created; null while the
  /// engine is configured single-threaded) so repeated sampling requests
  /// don't respawn threads.
  ThreadPool* SweepPool();

  std::shared_ptr<const repair::RepairAlgorithm> algorithm_;
  dc::DcSet dcs_;
  /// Shared with the box (and possibly a router/session); never null.
  std::shared_ptr<const Table> dirty_;
  EngineOptions options_;
  std::optional<BlackBoxRepair> box_;
  std::unique_ptr<ThreadPool> pool_;
  std::size_t next_request_id_ = 1;
};

}  // namespace trex

#endif  // TREX_CORE_ENGINE_H_
