// The cooperative-game abstraction the Shapley machinery runs on.
//
// A game is a set of `n` players plus a characteristic function
// `v : 2^N -> R` with `v(∅) = 0` (paper §2.2). T-REx instantiates it twice
// — players = denial constraints, and players = table cells — but the
// solvers in shapley_exact.h / shapley_sampling.h work for any game, and
// the tests exercise them on classic game-theory examples (glove games,
// weighted majority, airport games).
//
// Permutation sweeps (shapley_sampling.h) walk one coalition from ∅ to N,
// adding one player at a time. `Game::BeginSweep` is the hook for that
// walk: it returns a per-sweep state that starts at the empty coalition
// and offers `Value()` and `Join(player)`. The default state keeps a
// `Coalition` and calls `Value(coalition)`; a game whose coalitions are
// cheaper to update than to rebuild (the cell game's running write set)
// or whose sweep needs its own randomness (column-sampled replacements)
// overrides it.

#ifndef TREX_CORE_GAME_H_
#define TREX_CORE_GAME_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/random.h"

namespace trex::shap {

/// A coalition: membership flags indexed by player.
using Coalition = std::vector<bool>;

/// One permutation sweep's running coalition (see file comment). Used by
/// one thread at a time.
class SweepState {
 public:
  virtual ~SweepState() = default;

  /// The characteristic function of the current coalition.
  virtual double Value() = 0;

  /// Adds `player` to the coalition; each player joins at most once.
  virtual void Join(std::size_t player) = 0;
};

/// Abstract cooperative game with a real-valued characteristic function.
///
/// Implementations must be deterministic: equal coalitions must get equal
/// values, or Shapley values are ill-defined. `Value` may be expensive
/// (T-REx's games run a full table repair per call) — solvers treat calls
/// as the unit of cost and memoize where possible.
class Game {
 public:
  virtual ~Game() = default;

  /// Number of players `n`.
  virtual std::size_t num_players() const = 0;

  /// Characteristic function. `coalition.size() == num_players()`;
  /// `Value` of the empty coalition must be 0 for the Shapley efficiency
  /// axiom to read as usual.
  virtual double Value(const Coalition& coalition) const = 0;

  /// Starts one permutation sweep at the empty coalition. Called once
  /// per sweep, right after the sweep's permutation is drawn from `rng`;
  /// an override may draw the sweep's own randomness from `rng` here.
  /// The default wraps `Value(coalition)` and draws nothing. Must be
  /// thread-safe when sweeps run concurrently.
  virtual std::unique_ptr<SweepState> BeginSweep(Rng* rng) const;
};

/// The default sweep state: a coalition evaluated through `Game::Value`.
class CoalitionSweep : public SweepState {
 public:
  explicit CoalitionSweep(const Game& game)
      : game_(game), coalition_(game.num_players(), false) {}

  double Value() override { return game_.Value(coalition_); }
  void Join(std::size_t player) override { coalition_[player] = true; }

 private:
  const Game& game_;
  Coalition coalition_;
};

inline std::unique_ptr<SweepState> Game::BeginSweep(Rng* /*rng*/) const {
  return std::make_unique<CoalitionSweep>(*this);
}

}  // namespace trex::shap

#endif  // TREX_CORE_GAME_H_
