#include "core/shapley_sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include "common/thread_pool.h"

namespace trex::shap {

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::std_error() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(variance() / static_cast<double>(count_));
}

Estimate RunningStat::ToEstimate() const {
  Estimate e;
  e.value = mean_;
  e.std_error = std_error();
  e.num_samples = count_;
  return e;
}

double CiHalfWidth(const RunningStat& stat, const StopRule& rule) {
  if (stat.count() < 2) return std::numeric_limits<double>::infinity();
  if (rule.bound == BoundKind::kNormal) return rule.z * stat.std_error();
  // Empirical Bernstein (Maurer & Pontil 2009): the variance term matches
  // the CLT width asymptotically; the 3·R·ln(3/δ)/n term keeps the bound
  // sound at small counts and for zero-variance players.
  const double n = static_cast<double>(stat.count());
  const double log_term = std::log(3.0 / rule.delta);
  return std::sqrt(2.0 * stat.variance() * log_term / n) +
         3.0 * rule.range * log_term / n;
}

namespace {

/// The convergence test behind `StopRule::target_half_width`: `stat`
/// has at least `max(stop.min_samples, 2)` samples and its half-width
/// is at or below the target, which must be set. The sweep estimator
/// freezes and stops on it; the single-player estimator stops on it.
bool PlayerConverged(const RunningStat& stat, const StopRule& stop) {
  return stat.count() >= std::max<std::size_t>(stop.min_samples, 2) &&
         CiHalfWidth(stat, stop) <= *stop.target_half_width;
}

/// The per-shard RNG seed of sharded sampling: a splitmix64 mix of the
/// base seed and the shard index.
std::uint64_t ShardSeed(std::uint64_t seed, std::size_t shard) {
  std::uint64_t state =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1);
  return SplitMix64(&state);
}

/// Folds one sweep into `stats`: draws the permutation, starts the
/// game's sweep state, and walks the permutation through it, adding one
/// marginal sample per unfrozen player. Frozen players keep their
/// position in the permutation (so other players' coalitions are
/// undisturbed) but skip both of their evaluations: the prefix value is
/// re-evaluated lazily only when the next unfrozen player needs it.
void Sweep(const Game& game, bool antithetic, const std::vector<bool>& frozen,
           Rng* rng, std::vector<RunningStat>* stats) {
  auto walk = [&](const std::vector<std::size_t>& perm) {
    const std::unique_ptr<SweepState> state = game.BeginSweep(rng);
    double prev = 0.0;
    bool have_prev = false;
    // One permutation sweep is the cancellation unit:
    // trex-check-ok(cancel-poll): RunShardedSweeps polls at shard bounds
    for (const std::size_t p : perm) {
      if (frozen[p]) {
        state->Join(p);
        have_prev = false;
        continue;
      }
      if (!have_prev) prev = state->Value();
      state->Join(p);
      const double curr = state->Value();
      (*stats)[p].Add(curr - prev);
      prev = curr;
      have_prev = true;
    }
  };
  std::vector<std::size_t> perm = rng->Permutation(game.num_players());
  walk(perm);
  if (antithetic) {
    std::reverse(perm.begin(), perm.end());
    walk(perm);
  }
}

/// The wave-synchronous sweep driver behind `EstimateShapleyAllPlayers`
/// (see its comment). Callers observing `options.cancel.cancelled()`
/// after the call must treat the merged statistics as garbage.
SweepOutcome RunShardedSweeps(const Game& game,
                              const SamplingOptions& options) {
  // The sweep budget is partitioned into fixed shards; each shard owns a
  // deterministically derived RNG stream and completed shards are folded
  // into the merge in shard-index order, so the merged statistics depend
  // only on the options, never on thread count or scheduling.
  //
  // Shards are processed in waves. Under an active stopping rule a
  // wave's width is derived from `check_interval` — never from the pool
  // width — because every anytime decision (stop, freeze, top-k
  // separation, soften) happens at a wave boundary on the merged
  // statistics and must land on the same shard index for every thread
  // count. Without a rule the wave only bounds memory (the merge order
  // is the global shard order regardless), so it scales with the pool.
  const std::size_t num_players = game.num_players();
  const std::size_t shard_size = options.shard_size;
  const std::size_t num_shards =
      (options.num_samples + shard_size - 1) / shard_size;
  ThreadPool* pool = options.pool;
  std::optional<ThreadPool> local_pool;
  if (pool == nullptr) {
    local_pool.emplace(std::max<std::size_t>(options.num_threads, 1));
    pool = &*local_pool;
  }
  const StopRule& stop = options.stop;
  std::size_t wave_shards = pool->num_threads() * 4;
  if (stop.active()) {
    const std::size_t interval =
        std::max<std::size_t>(options.check_interval, 1);
    wave_shards = (interval + shard_size - 1) / shard_size;
  }

  SweepOutcome out;
  out.stats.assign(num_players, RunningStat{});
  std::vector<bool> frozen(num_players, false);
  const bool can_freeze =
      stop.freeze_converged && stop.target_half_width.has_value();

  for (std::size_t start = 0; start < num_shards; start += wave_shards) {
    const std::size_t count = std::min(wave_shards, num_shards - start);
    std::vector<std::vector<RunningStat>> wave_stats(
        count, std::vector<RunningStat>(num_players));
    pool->Run(count, [&](std::size_t i) {
      const std::size_t shard = start + i;
      const std::size_t begin = shard * shard_size;
      const std::size_t end =
          std::min(begin + shard_size, options.num_samples);
      Rng rng(ShardSeed(options.seed, shard));
      for (std::size_t s = begin; s < end; ++s) {
        // Poll between sweeps: one sweep costs n+1 repair runs, so this
        // bounds cancellation latency at one sweep per worker. Results
        // after cancellation are discarded by the caller.
        if (options.cancel.cancelled()) break;
        Sweep(game, options.antithetic, frozen, &rng, &wave_stats[i]);
      }
    });
    if (options.cancel.cancelled()) break;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t p = 0; p < num_players; ++p) {
        out.stats[p].Merge(wave_stats[i][p]);
      }
    }
    out.sweeps = std::min((start + count) * shard_size, options.num_samples);
    ++out.waves;

    // Wave boundary: every anytime decision below runs on the merged
    // statistics, whose content is fixed by the shard index range —
    // identical for every thread count.
    bool stop_now = false;
    if (stop.target_half_width.has_value()) {
      bool all_converged = true;
      for (std::size_t p = 0; p < num_players; ++p) {
        const bool conv = PlayerConverged(out.stats[p], stop);
        if (can_freeze && conv) frozen[p] = true;
        all_converged = all_converged && conv;
      }
      stop_now = all_converged;
    }
    if (!stop_now && stop.top_k > 0) {
      if (stop.top_k >= num_players) {
        out.separated = true;  // nothing to separate from
        stop_now = true;
      } else {
        // Players ranked by estimate, descending; the stable sort keeps
        // ties in index order, so the test is deterministic.
        std::vector<std::size_t> order(num_players);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&out](std::size_t a, std::size_t b) {
                           return out.stats[a].mean() > out.stats[b].mean();
                         });
        const RunningStat& kth = out.stats[order[stop.top_k - 1]];
        const RunningStat& next = out.stats[order[stop.top_k]];
        const double lower = kth.mean() - CiHalfWidth(kth, stop);
        const double upper = next.mean() + CiHalfWidth(next, stop);
        if (kth.count() >= stop.min_samples && lower > upper) {
          out.separated = true;
          stop_now = true;
        }
      }
    }
    if (!stop_now && stop.soften.cancelled()) {
      out.softened = true;
      stop_now = true;
    }
    if (stop_now) {
      out.stopped_early = start + count < num_shards;
      break;
    }
  }

  for (std::size_t p = 0; p < num_players; ++p) {
    if (frozen[p]) ++out.frozen_players;
    out.achieved_half_width =
        std::max(out.achieved_half_width, CiHalfWidth(out.stats[p], stop));
  }
  return out;
}

}  // namespace

Result<Estimate> EstimateShapleyForPlayer(const Game& game,
                                          std::size_t player,
                                          const SamplingOptions& options,
                                          SweepOutcome* outcome) {
  const std::size_t n = game.num_players();
  if (player >= n) {
    return Status::OutOfRange("player " + std::to_string(player) +
                              " out of range for " + std::to_string(n) +
                              "-player game");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  const StopRule& stop = options.stop;
  const std::size_t check_interval =
      std::max<std::size_t>(1, options.check_interval);
  Rng rng(options.seed);
  RunningStat stat;
  // One with/without pair: a fresh sweep state joins the players that
  // precede `player` in `perm`, then is evaluated without and with it.
  auto add_pair = [&](const std::vector<std::size_t>& perm) {
    const std::unique_ptr<SweepState> state = game.BeginSweep(&rng);
    for (const std::size_t p : perm) {
      if (p == player) break;
      state->Join(p);
    }
    const double without = state->Value();
    state->Join(player);
    stat.Add(state->Value() - without);
  };
  SweepOutcome out;
  while (out.sweeps < options.num_samples) {
    if (options.cancel.cancelled()) {
      return Status::Cancelled("Shapley sampling cancelled");
    }
    std::vector<std::size_t> perm = rng.Permutation(n);
    add_pair(perm);
    if (options.antithetic) {
      std::reverse(perm.begin(), perm.end());
      add_pair(perm);
    }
    if (++out.sweeps % check_interval != 0) continue;
    if (stop.target_half_width.has_value() && PlayerConverged(stat, stop)) {
      break;
    }
    if (stop.soften.cancelled()) {
      out.softened = true;
      break;
    }
  }
  out.stopped_early = out.sweeps < options.num_samples;
  out.achieved_half_width = CiHalfWidth(stat, stop);
  if (outcome != nullptr) *outcome = std::move(out);
  return stat.ToEstimate();
}

Result<std::vector<Estimate>> EstimateShapleyAllPlayers(
    const Game& game, const SamplingOptions& options, SweepOutcome* outcome) {
  if (game.num_players() == 0) return std::vector<Estimate>{};
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  if (options.shard_size == 0) {
    return Status::InvalidArgument("shard_size must be positive");
  }
  SweepOutcome out = RunShardedSweeps(game, options);
  if (options.cancel.cancelled()) {
    return Status::Cancelled("Shapley sweep sampling cancelled");
  }
  std::vector<Estimate> estimates;
  estimates.reserve(out.stats.size());
  for (const RunningStat& s : out.stats) estimates.push_back(s.ToEstimate());
  if (outcome != nullptr) *outcome = std::move(out);
  return estimates;
}

}  // namespace trex::shap
