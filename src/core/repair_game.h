// The black-box repair games: T-REx's bridge between a `RepairAlgorithm`
// and the generic Shapley solvers.
//
// `BlackBoxRepair` wraps one *repair instance* — (Alg, C, T^d) plus any
// number of registered target cells — and exposes the paper's binary
// characteristic function per target
//
//     Alg|t[A](C', T') = 1  iff  Alg(C', T') writes the *reference* clean
//                              value T^c[t[A]] into the target cell,
//
// where T^c = Alg(C, T^d) is computed exactly once. Calls are counted,
// since each evaluation is a full repair run — the unit of cost in the
// paper's §2.3 and in bench_ablation. The reference repair and every
// constraint-subset run share one dirty table, so they go through the
// algorithm bound to it once (`RepairAlgorithm::Prepare`); the count is
// the same either way.
//
// ## Memoization layer contract
//
// Two memo caches answer repeat evaluations: constraint subsets are
// keyed by bitmask, perturbed tables by XOR-combinable content
// fingerprint (64-bit bucket key, 128-bit verification hash; see
// `Table::Fingerprint`). The reference repair answers the two
// evaluations whose input is its own — the full constraint mask
// (`dcs_.Subset(all) == dcs_`) and a perturbation with no writes — from
// `reference_clean()`, counted as memo hits, so they never re-run the
// algorithm.
//
// Every entry has one format, independent of the registered targets:
// the sorted linear indices of the cells where the run's repaired table
// *disagrees* with the reference repair (under the characteristic
// function's own null/value predicate). A target's outcome is "the
// target cell is not in the disagreement set", so one cached run
// answers every registered target — including targets registered
// *after* the entry was written. This is what lets
// `Engine::ExplainBatch` share one box across a multi-target batch and
// later batches. Table-memo entries also keep their input as a
// *canonical write set* against the dirty table (writes bit-equal to
// the dirty value dropped, the rest sorted by linear index) plus its
// 128-bit fingerprint; no entry holds a `Table`, so an entry costs
// O(#writes + #disagreements) bytes instead of O(table).
//
// A table-memo hit needs a 128-bit fingerprint match AND an exact match
// of the canonical write sets — as strict as comparing the full tables,
// at O(#writes) instead of O(cells). A bare 64-bit bucket fingerprint is
// never trusted alone: a collision falls through to a fresh repair run.
//
// ## Delta evaluation
//
// `EvalPerturbation(writes, target)` evaluates a perturbed table
// described as (dirty table, write set) without materializing it: the
// memo key comes from `Table::DeltaFingerprint` over the dirty table's
// cached base fingerprints in O(#writes), and verification compares
// canonical write sets — no copy. `EvalTable(perturbed)` is the same
// path after diffing `perturbed` against the dirty table. Only a memo
// *miss* materializes the table, into a per-thread scratch reused
// across evaluations (reset from the dirty table by undoing the
// previous writes, then applying the new ones) instead of a fresh copy
// per coalition. `CellGame::Value` and
// the cell game's sweep state (`CellGame::BeginSweep`) sit on this
// path; warm-cache evaluations make zero full-table copies
// (`num_eval_table_copies()` counts the scratch (re)initializations).
//
// `approx_memo_bytes()` estimates the resident payload of both memos
// (entries × payload estimate; a written string counts as
// `sizeof(Value)`, since its text is an interned record shared with the
// tables); the engine surfaces it through `BatchStats` and the benches'
// JSON lines.
//
// Thread safety: `EvalConstraintSubset` / `EvalTable` /
// `EvalPerturbation` may be called concurrently (the caches are
// mutex-guarded; concurrent misses on the same key may duplicate a
// repair run but never corrupt results). `AddTarget` and
// `BeginRequest` must not race with evaluations.
//
// The memo's reader/writer discipline is machine-checked under Clang's
// -Wthread-safety (common/thread_annotations.h): both memo maps are
// `GUARDED_BY(CacheState::mu)` — hit scans hold it shared, inserts hold
// it exclusive. A hit only reads its entry (the counters it bumps are
// atomics), so nothing is written under the shared lock. Both memos are
// unbounded for the box's lifetime; the serving router's engine LRU is
// what bounds memory across engines.
//
// `ConstraintGame` (players = DCs, table fixed) and `CellGame` (players =
// cells replaced in/out, DCs fixed) adapt one target's characteristic
// function to `shap::Game`.

#ifndef TREX_CORE_REPAIR_GAME_H_
#define TREX_CORE_REPAIR_GAME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/game.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "table/stats.h"
#include "table/table.h"

namespace trex {

/// How absent cells are materialized in cell coalitions.
enum class AbsentCellPolicy {
  /// Set to null (the paper's formal definition, §2.2).
  kNull,
  /// Replace with a draw from the cell's column distribution in T^d
  /// (the paper's sampling estimator, Example 2.5).
  kSampleFromColumn,
};

const char* AbsentCellPolicyToString(AbsentCellPolicy policy);

/// Memoized multi-target evaluator of the binary repair outcome (see
/// file comment).
class BlackBoxRepair {
 public:
  /// `EvalConstraintSubset` encodes constraint subsets in a
  /// `std::uint64_t`, so constraint games support at most 64 players.
  static constexpr std::size_t kMaxMaskConstraints = 64;

  /// Runs the reference repair `Alg(dcs, dirty)` once and registers every
  /// cell of `targets` (deduplicated, order preserved) against it.
  /// `targets` may be empty; add cells later with `AddTarget`.
  [[nodiscard]] static Result<BlackBoxRepair> MakeMultiTarget(
      const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
      const std::vector<CellRef>& targets);

  /// Like the `Table` overload but *shares* the dirty table with the
  /// caller instead of holding its own copy — the engine hands its table
  /// over at `EnsureRepair` so only one dirty copy stays resident.
  [[nodiscard]] static Result<BlackBoxRepair> MakeMultiTarget(
      const repair::RepairAlgorithm* algorithm, dc::DcSet dcs,
      std::shared_ptr<const Table> dirty, const std::vector<CellRef>& targets);

  /// Single-target convenience (the seed API): equivalent to
  /// `MakeMultiTarget(..., {target})`.
  [[nodiscard]] static Result<BlackBoxRepair> Make(
      const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
      CellRef target);

  /// Registers another target cell against the cached reference repair —
  /// no additional algorithm call — and returns its index. Returns the
  /// existing index when the cell is already registered. Resident memo
  /// entries answer the new target too (see file comment). Must not race
  /// with concurrent evaluations.
  [[nodiscard]] Result<std::size_t> AddTarget(CellRef target);

  /// Index of a registered target cell, if any. O(1).
  std::optional<std::size_t> FindTarget(CellRef target) const;

  const Table& dirty() const { return *dirty_; }
  const Table& reference_clean() const { return clean_; }
  const dc::DcSet& dcs() const { return dcs_; }
  const repair::RepairAlgorithm& algorithm() const { return *algorithm_; }

  std::size_t num_targets() const { return targets_.size(); }
  CellRef target(std::size_t index = 0) const;

  /// True iff the reference repair changed the given target cell.
  bool target_was_repaired(std::size_t index = 0) const;

  /// Alg|t[A] for target `target_index` with the constraint subset
  /// selected by `mask` (bit i keeps constraint i) and the unperturbed
  /// dirty table. Requires at most `kMaxMaskConstraints` constraints
  /// (fatal otherwise — callers returning `Status` validate first).
  bool EvalConstraintSubset(std::uint64_t mask,
                            std::size_t target_index = 0) const;

  /// Alg|t[A] for target `target_index` with the full constraint set and
  /// a perturbed table of the dirty table's shape: the cells where it
  /// differs from the dirty table become the write set of
  /// `EvalPerturbation`.
  bool EvalTable(const Table& perturbed, std::size_t target_index = 0) const;

  /// Alg|t[A] for target `target_index` with the full constraint set and
  /// the perturbed table described by (dirty table, `writes`) — without
  /// materializing it on the memo hit path (see file comment). `writes`
  /// must address pairwise-distinct, in-bounds cells; outcomes are
  /// identical to `EvalTable` on the materialized table.
  bool EvalPerturbation(std::span<const CellWrite> writes,
                        std::size_t target_index = 0) const;

  /// Like above, with the perturbed table's fingerprints already in
  /// hand — for hot loops that maintain a running fingerprint by XORing
  /// precomputed `Table::WriteDelta`s (the cell game and its sweep
  /// state) instead of re-hashing O(#writes) per
  /// evaluation. `fp64`/`fp128` MUST equal
  /// `dirty().DeltaFingerprint(dirty fps, writes)`: they are the memo
  /// key and the first verification stage — an inconsistent pair could
  /// miss entries it should hit.
  bool EvalPerturbation(std::span<const CellWrite> writes,
                        std::uint64_t fp64, const Hash128& fp128,
                        std::size_t target_index) const;

  /// The dirty table's own fingerprints — the base the running
  /// fingerprints above start from.
  void dirty_fingerprints(std::uint64_t* fp64, Hash128* fp128) const {
    *fp64 = dirty_fp64_;
    *fp128 = dirty_fp128_;
  }

  /// Total underlying algorithm invocations (cache misses), including the
  /// reference run.
  std::size_t num_algorithm_calls() const;
  /// Evaluations answered from the memo tables.
  std::size_t num_cache_hits() const;
  /// Memo hits on entries written under a different request context —
  /// the work `ExplainBatch` amortizes across targets (see
  /// `BeginRequest`).
  std::size_t num_cross_request_hits() const;

  /// Full dirty-table copies made by the evaluation paths (per-thread
  /// scratch (re)initializations on memo misses). Warm-cache
  /// evaluations make none — the copy-freedom the delta path is built
  /// for, asserted by tests.
  std::size_t num_eval_table_copies() const;

  /// Estimated resident bytes of both memos (entries × payload
  /// estimate: write sets, disagreement sets, entry overhead); surfaced
  /// through `Engine`/`BatchStats` and the benches' JSON lines.
  std::size_t approx_memo_bytes() const;

  /// Tags subsequent cache writes with `request_id`; hits on entries
  /// written under another id count as cross-request hits. The engine
  /// calls this once per batched request. Also resets the evaluation
  /// failure channel below (`eval_error` → OK, a fresh abort source), so
  /// a retried request starts clean. Must not race with evaluations.
  void BeginRequest(std::size_t request_id) const;

  /// ## Evaluation failure channel
  ///
  /// The `shap::Game` interface the solvers consume is `double
  /// Value(coalition)` — there is no error path through a sweep. When a
  /// memo-miss repair call fails, the box instead (1) records the first
  /// failure `Status` (sticky until the next `BeginRequest`), (2) fires
  /// the abort source below so every sweep observing the token stops at
  /// its next poll, and (3) returns a dummy outcome WITHOUT writing any
  /// `CacheEntry` — a failed evaluation never poisons the memo, so the
  /// retry re-runs the identical schedule and produces bit-identical
  /// results. The engine merges `eval_abort_token()` into its cancel
  /// tokens and converts abort-driven cancellation back into
  /// `eval_error()` for the caller.
  ///
  /// Token fired when an evaluation's underlying repair call fails.
  CancelToken eval_abort_token() const;

  /// First repair failure recorded since the last `BeginRequest`; OK
  /// when every evaluation's repair call succeeded.
  [[nodiscard]] Status eval_error() const;

  /// Disables memoization (ablation experiments).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  /// Table-memo entries currently resident.
  std::size_t num_table_memo_entries() const;

  /// Test-only: maps every 64-bit table-memo bucket key through `fn`, so
  /// tests can force distinct inputs into one bucket and exercise the
  /// collision path (verification telling them apart). Must not race
  /// with evaluations.
  void set_table_bucket_fn_for_test(
      std::function<std::uint64_t(std::uint64_t)> fn) {
    table_bucket_fn_ = std::move(fn);
  }

 private:
  BlackBoxRepair() = default;

  struct TargetInfo {
    CellRef cell;
    Value clean_value;
    bool was_repaired = false;
  };

  /// One memoized repair run (see file comment). Mask-memo entries use
  /// only `disagreements`; table-memo entries also identify their input
  /// by `fp128` plus the canonical write set `writes`.
  struct CacheEntry {
    Hash128 fp128;                  // content fingerprint of the input
    std::vector<CellWrite> writes;  // canonical input write set vs dirty
    /// Sorted linear indices of the cells where the repaired table
    /// disagrees with the reference repair.
    std::vector<std::size_t> disagreements;
    std::size_t request_id = 0;
  };

  /// Mutable memo state, boxed so `BlackBoxRepair` stays movable despite
  /// the mutex. Lookups (the steady-state path under a warm cache) take
  /// the lock shared so sampling shards hit concurrently; only inserts
  /// take it exclusive. Counters are atomics so hits need no exclusive
  /// access. The maps are `GUARDED_BY(mu)`; entries are written only
  /// before insertion, so a hit under the shared lock is a pure read.
  struct CacheState {
    CacheState();

    SharedMutex mu;
    std::unordered_map<std::uint64_t, CacheEntry> mask_cache GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, std::vector<CacheEntry>> table_cache
        GUARDED_BY(mu);
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> cross_request_hits{0};
    std::atomic<std::size_t> current_request{0};
    /// Table-memo entry count.
    std::size_t table_entries GUARDED_BY(mu) = 0;
    /// Estimated resident payload of both memos (maintained under `mu`
    /// on insert; atomic so reads need no lock).
    std::atomic<std::size_t> approx_bytes{0};
    /// Full dirty-table copies made by the evaluation scratch.
    std::atomic<std::size_t> eval_table_copies{0};
    /// Distinguishes this box's per-thread evaluation scratch from
    /// other boxes' (globally unique, assigned at construction).
    const std::uint64_t scratch_id;
    /// Evaluation failure channel (see `eval_error()`): the first
    /// failure since `BeginRequest`, and the source its recording
    /// fires. Leaf lock: never held while calling the algorithm or
    /// while `mu` is held.
    mutable Mutex error_mu;
    Status eval_error GUARDED_BY(error_mu);
    CancelSource eval_abort GUARDED_BY(error_mu);
  };

  /// Records the first evaluation failure and fires the abort source
  /// (see `eval_error()`).
  void RecordEvalError(const Status& status) const;

  /// The outcome a memo entry records for one target: its cell is not
  /// among the entry's disagreements.
  bool Outcome(const CacheEntry& entry, std::size_t target_index) const;

  /// Sorted linear indices of the cells where `repaired` disagrees with
  /// `reference_clean()`.
  std::vector<std::size_t> Disagreements(const Table& repaired) const;

  /// The mask selecting every constraint (the grand coalition).
  std::uint64_t FullMask() const;

  /// Answers an evaluation whose input is the reference repair's own —
  /// the full constraint set on the unperturbed dirty table — from
  /// `clean_`, counted as a memo hit (cross-request once any request
  /// context is set, since the reference predates every request).
  bool ReferenceHit(std::size_t target_index) const;

  /// Estimated resident payload of one memo entry.
  std::size_t EntryPayloadBytes(const CacheEntry& entry) const;

  /// Counts a hit on `entry` (cross-request when another request wrote
  /// it) and returns its outcome for `target_index`.
  bool CountHit(const CacheEntry& entry, std::size_t target_index) const;

  /// The per-thread scratch table holding dirty+writes, (re)initialized
  /// from the dirty table only when this thread last evaluated a
  /// different box (counted in `eval_table_copies`), otherwise reset by
  /// undoing the previous writes.
  const Table& MaterializeScratch(std::span<const CellWrite> writes) const;

  /// Hit scan of the table memo: walks the `fp64` bucket under the
  /// shared lock, verifying each candidate by 128-bit fingerprint and
  /// then by canonical write set (the query is canonicalized only once
  /// a fingerprint matches). Returns the hit outcome — counters bumped —
  /// or nullopt when the caller must run the repair.
  std::optional<bool> LookupTableMemo(std::span<const CellWrite> writes,
                                      std::uint64_t fp64,
                                      const Hash128& fp128,
                                      std::size_t target_index) const;

  /// Miss path of `EvalPerturbation`: runs the repair on dirty+`writes`
  /// (materialized into the per-thread scratch) and inserts the memo
  /// entry under the exclusive lock.
  bool EvalTableMiss(std::span<const CellWrite> writes, std::uint64_t fp64,
                     const Hash128& fp128, std::size_t target_index) const;

  const repair::RepairAlgorithm* algorithm_ = nullptr;
  dc::DcSet dcs_;
  /// Shared with the owning engine/session (never null once constructed).
  std::shared_ptr<const Table> dirty_;
  /// `algorithm_` bound to `dirty_`: answers the reference repair and
  /// every constraint-subset miss. Perturbed tables (the cell game) go
  /// through `algorithm_->Repair` instead, one table per coalition.
  std::unique_ptr<const repair::PreparedRepair> prepared_;
  Table clean_;
  /// The dirty table's own fingerprints: the delta-evaluation base.
  std::uint64_t dirty_fp64_ = 0;
  Hash128 dirty_fp128_;
  std::vector<TargetInfo> targets_;
  std::unordered_map<CellRef, std::size_t, CellRefHash> target_index_;
  bool cache_enabled_ = true;
  /// Test-only bucket-key override (null in production).
  std::function<std::uint64_t(std::uint64_t)> table_bucket_fn_;
  std::unique_ptr<CacheState> state_;
};

/// Cooperative game whose players are the denial constraints (paper
/// §2.2, first adaptation). The table stays fixed at T^d; outcomes are
/// read for one registered target of the shared box.
class ConstraintGame : public shap::Game {
 public:
  explicit ConstraintGame(const BlackBoxRepair* box,
                          std::size_t target_index = 0)
      : box_(box), target_index_(target_index) {}

  std::size_t num_players() const override { return box_->dcs().size(); }
  double Value(const shap::Coalition& coalition) const override;

 private:
  const BlackBoxRepair* box_;
  std::size_t target_index_;
};

/// Cooperative game whose players are table cells (paper §2.2, second
/// adaptation): cells absent from a coalition are replaced under an
/// `AbsentCellPolicy`, the constraint set stays fixed. Coalitions
/// evaluate through `EvalPerturbation` — the absent cells become a write
/// set, no table is materialized on the memo hit path.
///
/// `players` may be a subset of all cells (relevant-cell pruning); cells
/// outside the player list keep their original values — sound when the
/// excluded cells are dummy players under the algorithm's influence
/// graph.
///
/// Under `kNull` the game is deterministic and `Value(coalition)` is its
/// characteristic function. Under `kSampleFromColumn` it is stochastic:
/// each permutation sweep draws its own replacements, so only
/// `BeginSweep` is defined and `Value(coalition)` is a fatal error.
class CellGame : public shap::Game {
 public:
  /// Precomputes each player's null-write fingerprint delta, so a
  /// coalition evaluation is one XOR per absent player — no hashing —
  /// and, under `kSampleFromColumn`, the column distribution of every
  /// player's column.
  CellGame(const BlackBoxRepair* box, std::vector<CellRef> players,
           std::size_t target_index = 0,
           AbsentCellPolicy policy = AbsentCellPolicy::kNull);

  std::size_t num_players() const override { return players_.size(); }
  double Value(const shap::Coalition& coalition) const override;

  /// A sweep over a write set of the dirty table that starts with every
  /// player absent. Under `kSampleFromColumn` the replacements are drawn
  /// from `rng` in player order. `Join` removes the player's write
  /// (swap-with-last; delta fingerprints are order-insensitive) and XORs
  /// its delta out of the running fingerprint, so each `Value()` costs
  /// O(1) hashing.
  std::unique_ptr<shap::SweepState> BeginSweep(Rng* rng) const override;

  const std::vector<CellRef>& players() const { return players_; }

 private:
  class Sweep;

  const BlackBoxRepair* box_;
  std::vector<CellRef> players_;
  std::size_t target_index_;
  AbsentCellPolicy policy_;
  /// The dirty table's fingerprints (the running fingerprint base).
  std::uint64_t base64_ = 0;
  Hash128 base128_;
  /// Per-player `WriteDelta(player, null)` — the XOR a player's absence
  /// applies to the base.
  std::vector<FingerprintDelta> null_deltas_;
  /// Column distributions of the dirty table by column index, built for
  /// the players' columns under `kSampleFromColumn` (empty otherwise).
  /// Read-only after construction, so concurrent sweeps share them.
  std::vector<ColumnStats> columns_;
};

}  // namespace trex

#endif  // TREX_CORE_REPAIR_GAME_H_
