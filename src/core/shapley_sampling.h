// Monte-Carlo Shapley estimation (Strumbelj & Kononenko, KAIS 2014 — the
// paper's reference [7]).
//
// The estimator draws random player permutations; the marginal
// contribution of a player against the coalition of players preceding it
// is an unbiased sample of its Shapley value. Two estimators, both
// walking the game's incremental `Game::BeginSweep` state, so the cell
// game keeps its running write set and column-sampled replacements
// without a sampling loop of its own:
//
//  * `EstimateShapleyForPlayer` — the paper's Example 2.5 loop for a
//    single player of interest: per sample, one permutation and two
//    evaluations of the sweep state (without and with the player). The
//    engine's single-cell requests run on it.
//  * `EstimateShapleyAllPlayers` — one sweep per permutation yields a
//    marginal sample for *every* player with n+1 evaluations, the right
//    tool when ranking all cells. This is the one permutation-sweep
//    sampler: the engine's cell and constraint rankings and its adaptive
//    top-k driver all run on it.
//
// Anytime estimation: every estimator can stop as soon as the answer is
// good enough instead of spending a fixed permutation budget. A
// `StopRule` requests either a target confidence-interval half-width per
// player (normal-theory or empirical-Bernstein bounds) or top-k
// CI-separation (`StopRule::top_k`: stop once the k best players' CIs
// clear the rest — the GUI flow, where the user reads only the first
// rows). The sweep estimator evaluates the rule only at *wave
// boundaries* — waves are groups of shards defined purely by shard
// index, so the stopping point, the freeze set, and the merged estimates
// are bit-identical at every thread count. Early stopping and sweep
// parallelism coexist: a wave's shards run concurrently on the
// configured pool, and the rule is consulted after the wave's statistics
// have been merged in shard-index order. Converged players can
// optionally be *frozen* — their with/without evaluations are skipped in
// subsequent sweeps — without perturbing any other player's samples.
// A `soften` token (armed e.g. by a serving deadline) flips the rule to
// "finish the current wave and return the partial confidence-bounded
// estimates" instead of discarding work.

#ifndef TREX_CORE_SHAPLEY_SAMPLING_H_
#define TREX_CORE_SHAPLEY_SAMPLING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/game.h"
#include "common/cancel.h"

namespace trex::shap {

/// Which concentration bound turns running moments into a confidence
/// half-width.
enum class BoundKind {
  /// Normal-theory (CLT): z · std_error. Tight asymptotically but
  /// overconfident at small counts and for zero-variance players.
  kNormal,
  /// Empirical Bernstein (Audibert et al. / Maurer & Pontil):
  /// sqrt(2·V·ln(3/δ)/n) + 3·R·ln(3/δ)/n for samples in a range of
  /// width R. Sound for the bounded marginals of binary repair games
  /// (marginals live in [-1, 1], R = 2), and its O(1/n) term keeps
  /// zero-variance players honest where the normal bound collapses to 0.
  kBernstein,
};

/// Anytime stopping rule, evaluated only at wave boundaries of the
/// sweep estimator (see `EstimateShapleyAllPlayers`) and every
/// `check_interval` samples of the single-player estimator. Inactive by
/// default.
struct StopRule {
  /// Stop once every player's confidence half-width is at or below this
  /// value (and each has at least `min_samples` samples).
  std::optional<double> target_half_width;
  /// When > 0, stop once the k-th ranked player's CI lower bound
  /// exceeds the (k+1)-th player's CI upper bound (top-k separation).
  /// May be combined with `target_half_width`; either condition stops.
  std::size_t top_k = 0;
  /// Bound family used for half-widths (both stopping and freezing).
  BoundKind bound = BoundKind::kNormal;
  /// Normal-theory width multiplier (kNormal only).
  double z = 1.96;
  /// Failure probability per player (kBernstein only).
  double delta = 0.05;
  /// Sample range width for the Bernstein bound; marginals of a 0/1
  /// game live in [-1, 1], so the default is 2.
  double range = 2.0;
  /// No player is considered converged (or separated) below this count.
  std::size_t min_samples = 16;
  /// When a `target_half_width` is set, players whose half-width already
  /// meets it are *frozen*: subsequent sweeps skip their with/without
  /// evaluations (they still join the coalition in order). Frozen
  /// players' accumulated estimates are left untouched, and the freeze
  /// set only changes at wave boundaries, so it is deterministic.
  bool freeze_converged = true;
  /// Soft stop: once this token fires, the driver finishes the current
  /// wave, merges it, and returns the partial confidence-bounded
  /// estimates with `SweepOutcome::softened` set. Unlike
  /// `SamplingOptions::cancel`, the merged statistics remain valid.
  /// Checked at wave boundaries (check intervals for the single-player
  /// estimator) only, so its latency is at most one wave.
  CancelToken soften;

  bool active() const { return target_half_width.has_value() || top_k > 0; }
};

/// Options for the sampling estimators.
struct SamplingOptions {
  /// Number of samples (permutations). For `EstimateShapleyForPlayer`
  /// this is the number of (without, with) evaluation pairs; for
  /// `EstimateShapleyAllPlayers` the number of full sweeps. Always an
  /// upper bound: a stopping rule can end the run earlier.
  std::size_t num_samples = 500;
  /// RNG seed; equal seeds give identical estimates.
  std::uint64_t seed = Rng::kDefaultSeed;
  /// Variance reduction: also evaluate each permutation reversed
  /// (negatively correlated coalition sizes). Doubles the samples drawn
  /// per iteration.
  bool antithetic = false;
  /// Anytime stopping rule (see `StopRule`). Applies to every estimator
  /// that accepts these options.
  StopRule stop;
  /// Granularity of stopping checks, in samples. The single-player
  /// estimator checks every `check_interval` samples; the sweep
  /// estimator rounds it up to whole shards — a wave spans
  /// `max(1, ceil(check_interval / shard_size))` shards and the rule is
  /// evaluated at wave boundaries. One unified knob: larger values check
  /// less often but expose more parallelism per wave (a wave's shards
  /// run concurrently).
  std::size_t check_interval = 32;
  /// Worker threads for the sweep estimator; 0 means "unset" (run
  /// single-threaded here, but let an embedding engine substitute its
  /// own thread count), while an explicit 1 forces a serial run even
  /// under a multi-threaded engine. Sweeps are partitioned into fixed
  /// shards of `shard_size` permutations, each drawing from a seed
  /// derived deterministically from (seed, shard index), and shard
  /// results are merged in index order — so the estimates are
  /// bit-identical for every thread count (the game's `Value` and
  /// `BeginSweep` must be thread-safe; `BlackBoxRepair` is). This holds with
  /// early stopping too: the stopping point is a wave boundary, defined
  /// by shard index, never by thread scheduling.
  std::size_t num_threads = 0;
  /// Permutation sweeps per shard (the unit of parallel work).
  std::size_t shard_size = 32;
  /// Optional persistent worker pool (non-owning; must outlive the
  /// call); the engine passes its own so repeated requests don't respawn
  /// threads. Null = transient pool per call.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: polled between permutation sweeps (each
  /// sweep is n+1 repair runs). Once cancelled the estimator stops
  /// promptly and returns `Status::Cancelled` — partial estimates are
  /// discarded. For a soft stop that *keeps* partial estimates, arm
  /// `stop.soften` instead. Default token = never cancelled.
  CancelToken cancel;
};

/// One player's Monte-Carlo estimate.
struct Estimate {
  double value = 0.0;
  /// Standard error of the mean (0 until 2+ samples).
  double std_error = 0.0;
  /// Samples actually taken (= num_samples unless early-stopped or
  /// frozen before budget exhaustion).
  std::size_t num_samples = 0;

  /// Normal-theory confidence bounds, e.g. `value ± 1.96·std_error`.
  double ci_low(double z = 1.96) const { return value - z * std_error; }
  double ci_high(double z = 1.96) const { return value + z * std_error; }
};

/// Welford running-moment accumulator (exposed for tests).
class RunningStat {
 public:
  void Add(double x);
  /// Folds another accumulator's moments into this one (Chan et al.
  /// pairwise combination) — used to merge per-shard statistics in
  /// deterministic shard order.
  void Merge(const RunningStat& other);
  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 until two samples.
  double variance() const;
  /// Standard error of the mean.
  double std_error() const;
  Estimate ToEstimate() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// The confidence half-width of a running estimate under `rule.bound`.
/// Returns +infinity below two samples (no variance information yet).
double CiHalfWidth(const RunningStat& stat, const StopRule& rule);

/// What a sharded sweep run produced, beyond the statistics themselves.
struct SweepOutcome {
  /// Per-player merged statistics (shard-index merge order).
  std::vector<RunningStat> stats;
  /// Permutation sweeps consumed (≤ options.num_samples).
  std::size_t sweeps = 0;
  /// Wave boundaries crossed.
  std::size_t waves = 0;
  /// A stopping rule ended the run before the sample budget.
  bool stopped_early = false;
  /// The soften token fired; `stats` hold the partial (but valid and
  /// confidence-bounded) estimates as of the completed wave.
  bool softened = false;
  /// Top-k separation held at the stopping wave (`stop.top_k > 0` only).
  bool separated = false;
  /// Largest per-player confidence half-width at the end of the run
  /// under `stop.bound` (+infinity until every player has 2+ samples;
  /// 0 for an empty player set).
  double achieved_half_width = 0.0;
  /// Players frozen when the run ended.
  std::size_t frozen_players = 0;
};

/// Estimates the Shapley value of `player` (see file comment). Each
/// sample draws a permutation, then calls `game.BeginSweep` on the same
/// RNG and joins the players preceding `player`; an antithetic sample
/// walks the reversed permutation on a fresh sweep state. `options.stop`
/// and its soften token are checked every `check_interval` samples.
/// `outcome` (optional) receives `sweeps` (samples drawn),
/// `stopped_early`, `softened` and `achieved_half_width`; its other
/// fields keep their defaults.
[[nodiscard]] Result<Estimate> EstimateShapleyForPlayer(
    const Game& game, std::size_t player, const SamplingOptions& options = {},
    SweepOutcome* outcome = nullptr);

/// Estimates all players' Shapley values with permutation sweeps.
/// `outcome` (optional) receives the full sweep outcome — sweeps
/// consumed, achieved confidence width, freeze count, soften and top-k
/// separation flags.
///
/// The sweep budget is partitioned into fixed shards of
/// `options.shard_size` sweeps; each shard draws from an RNG seeded by a
/// splitmix64 mix of (seed, shard index), and per-shard statistics are
/// merged in shard-index order, so the result depends only on the
/// options, never on thread count. Shards execute in waves, concurrently
/// on the pool; after each wave is merged the estimator consults
/// `options.stop`, updates the freeze set, and honours `stop.soften`.
/// Each sweep draws its permutation, then calls `game.BeginSweep` on the
/// shard's RNG and walks the permutation through the returned state.
[[nodiscard]] Result<std::vector<Estimate>> EstimateShapleyAllPlayers(
    const Game& game, const SamplingOptions& options = {},
    SweepOutcome* outcome = nullptr);

}  // namespace trex::shap

#endif  // TREX_CORE_SHAPLEY_SAMPLING_H_
