#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/counterfactual.h"
#include "core/interaction.h"
#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"
#include "dc/graph.h"

namespace trex {
namespace {

/// Sorts player scores descending by Shapley value; ties keep the
/// original player order (stable), making output deterministic.
void RankDescending(std::vector<PlayerScore>* scores) {
  std::stable_sort(scores->begin(), scores->end(),
                   [](const PlayerScore& a, const PlayerScore& b) {
                     return a.shapley > b.shapley;
                   });
}

/// The request kind's sampling options (budget, seed, and for
/// kConstraints the caller's own options) with `anytime` lowered onto
/// them: the stopping rule, its check interval and the sweep budget
/// override. Sampling options that carry their own stopping rule keep
/// it. kTopKCells has a fixed configuration of its own (see its doc).
shap::SamplingOptions LowerAnytime(const ExplainRequest& request,
                                   const AnytimeOptions& anytime) {
  shap::SamplingOptions sampling;
  if (request.kind == ExplainKind::kConstraints) {
    sampling = request.constraints.sampling;
  } else {
    sampling.num_samples = request.cells.num_samples;
    sampling.seed = request.cells.seed;
  }
  if (request.kind == ExplainKind::kTopKCells) {
    // Top-k separation: one sweep per shard and a 16-sweep round per
    // wave, whose sweeps run concurrently; the test runs at round
    // boundaries on deterministically merged statistics.
    sampling.shard_size = 1;
    sampling.check_interval = 16;
    sampling.stop.top_k = request.top_k;
    sampling.stop.z = 2.0;
    sampling.stop.min_samples = 8;
    if (anytime.enabled()) {
      sampling.stop.bound = anytime.bound;
      sampling.stop.z = anytime.z;
      sampling.stop.delta = anytime.delta;
    }
    return sampling;
  }
  if (sampling.stop.active() || !anytime.enabled()) return sampling;
  shap::StopRule& stop = sampling.stop;
  stop.target_half_width = anytime.target_ci_half_width;
  stop.bound = anytime.bound;
  stop.z = anytime.z;
  stop.delta = anytime.delta;
  stop.min_samples = anytime.min_samples;
  stop.freeze_converged = anytime.freeze_converged;
  sampling.check_interval = anytime.check_interval;
  if (anytime.max_sweeps > 0) sampling.num_samples = anytime.max_sweeps;
  return sampling;
}

/// kAuto resolves to exact cell Shapley only for the deterministic
/// (null-policy) game on a small player set.
CellMethod ResolveCellMethod(const CellExplainerOptions& options,
                             std::size_t num_players) {
  if (options.method != CellMethod::kAuto) return options.method;
  return options.policy == AbsentCellPolicy::kNull &&
                 num_players <= options.max_exact_players
             ? CellMethod::kExact
             : CellMethod::kSampling;
}

/// One score per player cell, ranked descending.
std::vector<PlayerScore> CellScores(
    const Schema& schema, const std::vector<CellRef>& players,
    const std::vector<shap::Estimate>& estimates) {
  std::vector<PlayerScore> scores;
  scores.reserve(players.size());
  for (std::size_t i = 0; i < players.size(); ++i) {
    PlayerScore score;
    score.cell = players[i];
    score.label = players[i].ToString(schema);
    score.shapley = estimates[i].value;
    score.std_error = estimates[i].std_error;
    score.num_samples = estimates[i].num_samples;
    scores.push_back(std::move(score));
  }
  RankDescending(&scores);
  return scores;
}

/// Copies a sweep outcome's anytime telemetry onto the request's result.
void RecordOutcome(const shap::SweepOutcome& outcome, ExplainResult* result) {
  if (result == nullptr) return;
  result->sweeps = outcome.sweeps;
  result->achieved_ci_half_width = outcome.achieved_half_width;
  result->early_stopped = outcome.stopped_early;
  result->approximate = outcome.softened;
}

Explanation MakeBaseExplanation(const BlackBoxRepair& box,
                                std::size_t target_index) {
  Explanation ex;
  ex.target = box.target(target_index);
  ex.target_label = ex.target.ToString(box.dirty().schema());
  ex.old_value = box.dirty().at(ex.target);
  ex.new_value = box.reference_clean().at(ex.target);
  return ex;
}

}  // namespace

std::vector<PlayerScore> Explanation::TopK(std::size_t k) const {
  const std::size_t count = std::min(k, ranked.size());
  return {ranked.begin(), ranked.begin() + count};
}

double Explanation::TotalAttribution() const {
  double total = 0;
  for (const PlayerScore& p : ranked) total += p.shapley;
  return total;
}

const char* ExplainKindToString(ExplainKind kind) {
  switch (kind) {
    case ExplainKind::kConstraints:
      return "constraints";
    case ExplainKind::kCells:
      return "cells";
    case ExplainKind::kInteractions:
      return "interactions";
    case ExplainKind::kRemovalSets:
      return "removal-sets";
    case ExplainKind::kSingleCell:
      return "single-cell";
    case ExplainKind::kTopKCells:
      return "top-k-cells";
  }
  return "?";
}

Engine::Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
               dc::DcSet dcs, Table dirty, EngineOptions options)
    : Engine(std::move(algorithm), std::move(dcs),
             std::make_shared<const Table>(std::move(dirty)), options) {}

Engine::Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
               dc::DcSet dcs, std::shared_ptr<const Table> dirty,
               EngineOptions options)
    : algorithm_(std::move(algorithm)),
      dcs_(std::move(dcs)),
      dirty_(std::move(dirty)),
      options_(options) {
  TREX_CHECK(algorithm_ != nullptr);
  TREX_CHECK(dirty_ != nullptr);
}

Status Engine::EnsureRepair() {
  if (box_.has_value()) return Status::Ok();
  // The box *shares* the engine's dirty table (one resident copy, not
  // three across session/engine/box).
  TREX_ASSIGN_OR_RETURN(
      BlackBoxRepair box,
      BlackBoxRepair::MakeMultiTarget(algorithm_.get(), dcs_, dirty_, {}));
  box_ = std::move(box);
  return Status::Ok();
}

const Table& Engine::reference_clean() const {
  TREX_CHECK(box_.has_value()) << "call EnsureRepair() first";
  return box_->reference_clean();
}

std::size_t Engine::num_algorithm_calls() const {
  return box_.has_value() ? box_->num_algorithm_calls() : 0;
}

std::size_t Engine::num_cache_hits() const {
  return box_.has_value() ? box_->num_cache_hits() : 0;
}

std::size_t Engine::num_cross_request_hits() const {
  return box_.has_value() ? box_->num_cross_request_hits() : 0;
}

std::size_t Engine::approx_memo_bytes() const {
  return box_.has_value() ? box_->approx_memo_bytes() : 0;
}

Result<std::size_t> Engine::EnsureTarget(CellRef target) {
  return box_->AddTarget(target);
}

ThreadPool* Engine::SweepPool() {
  if (options_.num_threads <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return pool_.get();
}

Status Engine::RequireRepairedTarget(std::size_t target_index) const {
  if (!box_->target_was_repaired(target_index)) {
    const CellRef target = box_->target(target_index);
    return Status::InvalidArgument(
        "cell " + target.ToString(dirty_->schema()) +
        " was not repaired by the algorithm (value '" +
        dirty_->at(target).ToString() +
        "' is unchanged); pick a repaired cell");
  }
  return Status::Ok();
}

Status Engine::RequireMaskableConstraints() const {
  if (dcs_.empty()) {
    return Status::InvalidArgument("constraint set is empty");
  }
  if (dcs_.size() > BlackBoxRepair::kMaxMaskConstraints) {
    return Status::InvalidArgument(
        "constraint games support at most 64 constraints");
  }
  return Status::Ok();
}

Status Engine::ValidateRequest(const ExplainRequest& request) const {
  // Cheap input validation up front: a malformed request must never pay
  // for a reference repair run.
  switch (request.kind) {
    case ExplainKind::kConstraints:
    case ExplainKind::kRemovalSets:
      TREX_RETURN_NOT_OK(RequireMaskableConstraints());
      break;
    case ExplainKind::kInteractions:
      if (dcs_.size() < 2) {
        return Status::InvalidArgument(
            "interaction indices need at least two constraints");
      }
      TREX_RETURN_NOT_OK(RequireMaskableConstraints());
      break;
    case ExplainKind::kSingleCell:
      if (!request.single_cell.has_value()) {
        return Status::InvalidArgument(
            "kSingleCell requests must set ExplainRequest::single_cell");
      }
      if (request.single_cell->row >= dirty_->num_rows() ||
          request.single_cell->col >= dirty_->num_columns()) {
        return Status::OutOfRange("player cell " +
                                  request.single_cell->ToString() +
                                  " outside the table");
      }
      break;
    case ExplainKind::kTopKCells:
      if (request.top_k == 0) {
        return Status::InvalidArgument("kTopKCells requests need top_k > 0");
      }
      if (request.cells.policy != AbsentCellPolicy::kNull) {
        return Status::InvalidArgument(
            "kTopKCells requires AbsentCellPolicy::kNull (the adaptive "
            "driver runs on the deterministic cell game)");
      }
      break;
    case ExplainKind::kCells:
      break;
  }
  if (request.target.row >= dirty_->num_rows() ||
      request.target.col >= dirty_->num_columns()) {
    return Status::OutOfRange("target cell " + request.target.ToString() +
                              " outside the table");
  }
  // A sampled request with no sweeps has no estimate to return.
  if (LowerAnytime(request, EffectiveAnytime(request)).num_samples == 0 &&
      IsSampled(request)) {
    return Status::InvalidArgument(
        "sweep budget must be positive (num_samples, or anytime.max_sweeps "
        "when set)");
  }
  return Status::Ok();
}

bool Engine::IsSampled(const ExplainRequest& request) const {
  switch (request.kind) {
    case ExplainKind::kConstraints:
      return request.constraints.force_sampling ||
             dcs_.size() > request.constraints.max_exact_players;
    case ExplainKind::kCells:
      return ResolveCellMethod(
                 request.cells,
                 PlayerCells(request.cells, request.target).size()) ==
             CellMethod::kSampling;
    case ExplainKind::kSingleCell:
    case ExplainKind::kTopKCells:
      return true;
    case ExplainKind::kInteractions:
    case ExplainKind::kRemovalSets:
      return false;
  }
  return false;
}

Result<ExplainResult> Engine::Explain(const ExplainRequest& request) {
  TREX_RETURN_NOT_OK(ValidateRequest(request));
  if (request.cancel.cancelled()) {
    return Status::Cancelled("request cancelled before execution");
  }
  const std::size_t calls_before = num_algorithm_calls();
  const std::size_t hits_before = num_cache_hits();
  const std::size_t cross_before = num_cross_request_hits();
  TREX_RETURN_NOT_OK(EnsureRepair());
  box_->BeginRequest(next_request_id_++);
  TREX_ASSIGN_OR_RETURN(const std::size_t target_index,
                        EnsureTarget(request.target));

  // A failed memo-miss repair fires the box's abort token (see
  // repair_game.h's failure channel): merge it into the request's
  // cancel so every sweep shard stops at its next poll instead of
  // hammering a failing backend, then convert the resulting kCancelled
  // back into the underlying failure below.
  ExplainRequest effective = request;
  effective.cancel =
      CancelToken::AnyOf(effective.cancel, box_->eval_abort_token());

  ExplainResult result;
  result.kind = request.kind;
  result.target = request.target;
  Status dispatch = [&]() -> Status {
    switch (effective.kind) {
      case ExplainKind::kConstraints: {
        TREX_ASSIGN_OR_RETURN(
            Explanation ex,
            ExplainConstraints(target_index, effective, &result));
        result.explanation = std::move(ex);
        break;
      }
      case ExplainKind::kCells:
      case ExplainKind::kTopKCells: {
        TREX_ASSIGN_OR_RETURN(Explanation ex,
                              ExplainCells(target_index, effective, &result));
        result.explanation = std::move(ex);
        break;
      }
      case ExplainKind::kInteractions: {
        TREX_ASSIGN_OR_RETURN(
            result.interactions,
            ExplainInteractions(target_index, effective.constraints,
                                effective.cancel));
        break;
      }
      case ExplainKind::kRemovalSets: {
        TREX_ASSIGN_OR_RETURN(
            result.removal_sets,
            ExplainRemovalSets(target_index, effective.constraints,
                               effective.max_removal_set_size,
                               effective.cancel));
        break;
      }
      case ExplainKind::kSingleCell: {
        TREX_ASSIGN_OR_RETURN(
            PlayerScore score,
            ExplainSingleCell(target_index, effective, &result));
        result.single_cell = std::move(score);
        break;
      }
    }
    return Status::Ok();
  }();
  // A failed eval taints everything derived after it: the box hands
  // the sweep a placeholder value for the call that failed, so the run
  // must report the repair failure (typically transient kUnavailable,
  // which the serving layer retries) no matter how the dispatch ended —
  // abort-driven kCancelled, a different error tripped by the
  // placeholder (e.g. a v(N)=0 rejection), or even nominal success.
  Status eval = box_->eval_error();
  if (!eval.ok()) return eval;
  if (!dispatch.ok()) return dispatch;
  result.algorithm_calls = num_algorithm_calls() - calls_before;
  result.cache_hits = num_cache_hits() - hits_before;
  result.cross_request_hits = num_cross_request_hits() - cross_before;
  if (result.explanation.has_value()) {
    // Per-request cost, not engine-lifetime totals: a second query on a
    // warm engine reports only the work it added.
    result.explanation->algorithm_calls = result.algorithm_calls;
    result.explanation->cache_hits = result.cache_hits;
  }
  return result;
}

Result<BatchResult> Engine::ExplainBatch(
    const std::vector<ExplainRequest>& requests, CancelToken cancel) {
  BatchResult batch;
  if (requests.empty()) return batch;  // nothing to serve, nothing to pay
  if (cancel.cancelled()) {
    // A dead batch must not pay for the reference repair — the
    // dominant cost on a cold engine.
    batch.stats.requests = requests.size();
    batch.stats.failed_requests = requests.size();
    batch.stats.cancelled_requests = requests.size();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      batch.results.push_back(Status::Cancelled("batch cancelled"));
    }
    return batch;
  }
  const bool had_repair = box_.has_value();
  const std::size_t calls_before = num_algorithm_calls();
  const std::size_t hits_before = num_cache_hits();
  const std::size_t cross_before = num_cross_request_hits();
  // One reference repair for the whole batch, however many targets.
  TREX_RETURN_NOT_OK(EnsureRepair());
  batch.stats.reference_repairs = had_repair ? 0 : 1;

  batch.results.reserve(requests.size());
  for (const ExplainRequest& request : requests) {
    Result<ExplainResult> result = [&]() -> Result<ExplainResult> {
      // The batch-level token short-circuits remaining slots; merged
      // into each member it also stops a slot mid-sweep.
      if (cancel.cancelled()) {
        return Status::Cancelled("batch cancelled");
      }
      if (!cancel.can_be_cancelled()) return Explain(request);
      ExplainRequest merged = request;
      merged.cancel = CancelToken::AnyOf(merged.cancel, cancel);
      return Explain(merged);
    }();
    if (!result.ok()) {
      ++batch.stats.failed_requests;
      if (result.status().IsCancelled()) ++batch.stats.cancelled_requests;
    } else {
      // Anytime accounting: sweeps actually spent and the worst achieved
      // confidence width across the batch's sampled members.
      batch.stats.sweeps += result->sweeps;
      if (result->achieved_ci_half_width.has_value()) {
        batch.stats.max_achieved_ci_half_width =
            std::max(batch.stats.max_achieved_ci_half_width,
                     *result->achieved_ci_half_width);
      }
      if (result->early_stopped) ++batch.stats.early_stopped_requests;
      if (result->approximate) ++batch.stats.approximate_requests;
    }
    batch.results.push_back(std::move(result));
  }
  batch.stats.requests = requests.size();
  batch.stats.algorithm_calls = num_algorithm_calls() - calls_before;
  batch.stats.cache_hits = num_cache_hits() - hits_before;
  batch.stats.cross_request_hits = num_cross_request_hits() - cross_before;
  batch.stats.approx_memo_bytes = approx_memo_bytes();
  return batch;
}

// The per-kind helpers assume `ValidateRequest` already screened the
// request; they only enforce conditions that need the reference repair.

const AnytimeOptions& Engine::EffectiveAnytime(
    const ExplainRequest& request) const {
  return request.anytime.has_value() ? *request.anytime : options_.anytime;
}

shap::SamplingOptions Engine::SweepOptions(const ExplainRequest& request) {
  shap::SamplingOptions sampling =
      LowerAnytime(request, EffectiveAnytime(request));
  // The soften and cancel tokens are merged either way, so deadline
  // degradation and cancellation reach every sampled path.
  sampling.stop.soften =
      CancelToken::AnyOf(sampling.stop.soften, request.soften);
  sampling.cancel = CancelToken::AnyOf(sampling.cancel, request.cancel);
  // 0 = unset: inherit the engine's thread count (and its persistent
  // pool). An explicit value is respected as a per-request override
  // and runs on its own transient pool.
  if (sampling.num_threads == 0) {
    sampling.num_threads = options_.num_threads;
    sampling.pool = SweepPool();
  }
  return sampling;
}

Result<Explanation> Engine::ExplainConstraints(std::size_t target_index,
                                               const ExplainRequest& request,
                                               ExplainResult* result) {
  const ConstraintExplainerOptions& options = request.constraints;
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  ConstraintGame game(&*box_, target_index);
  Explanation ex = MakeBaseExplanation(*box_, target_index);

  const bool exact = !IsSampled(request);
  if (options.use_banzhaf && !exact) {
    return Status::InvalidArgument(
        "Banzhaf attribution is exact-only; reduce the constraint count "
        "or raise max_exact_players");
  }
  std::vector<shap::Estimate> estimates;
  if (exact) {
    shap::ExactShapleyOptions exact_options;
    exact_options.max_players = options.max_exact_players;
    // Shard the 2^n subset walk over the engine's persistent pool;
    // values are bit-identical for every thread count.
    exact_options.num_threads = options_.num_threads;
    exact_options.pool = SweepPool();
    exact_options.cancel = request.cancel;
    TREX_ASSIGN_OR_RETURN(
        std::vector<double> values,
        options.use_banzhaf
            ? shap::ComputeExactBanzhaf(game, exact_options)
            : shap::ComputeExactShapley(game, exact_options));
    estimates.reserve(values.size());
    for (double value : values) estimates.push_back({.value = value});
    ex.method = options.use_banzhaf ? "exact(banzhaf)" : "exact";
  } else {
    const shap::SamplingOptions sampling = SweepOptions(request);
    shap::SweepOutcome outcome;
    TREX_ASSIGN_OR_RETURN(
        estimates, shap::EstimateShapleyAllPlayers(game, sampling, &outcome));
    RecordOutcome(outcome, result);
    ex.method = StrFormat("sampling(m=%zu)", sampling.num_samples);
  }
  ex.ranked.reserve(dcs_.size());
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    PlayerScore score;
    score.label = dcs_.at(i).name();
    score.shapley = estimates[i].value;
    score.std_error = estimates[i].std_error;
    score.num_samples = estimates[i].num_samples;
    score.constraint_index = i;
    ex.ranked.push_back(std::move(score));
  }
  RankDescending(&ex.ranked);
  return ex;
}

Result<std::vector<InteractionScore>> Engine::ExplainInteractions(
    std::size_t target_index, const ConstraintExplainerOptions& options,
    const CancelToken& cancel) {
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  ConstraintGame game(&*box_, target_index);
  shap::InteractionOptions interaction_options;
  interaction_options.max_players = options.max_exact_players;
  interaction_options.num_threads = options_.num_threads;
  interaction_options.pool = SweepPool();
  interaction_options.cancel = cancel;
  TREX_ASSIGN_OR_RETURN(
      std::vector<shap::Interaction> raw,
      shap::ComputeShapleyInteractions(game, interaction_options));
  std::vector<InteractionScore> scores;
  scores.reserve(raw.size());
  for (const shap::Interaction& interaction : raw) {
    scores.push_back(InteractionScore{
        dcs_.at(interaction.player_a).name(),
        dcs_.at(interaction.player_b).name(), interaction.value});
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const InteractionScore& a, const InteractionScore& b) {
                     return std::fabs(a.interaction) >
                            std::fabs(b.interaction);
                   });
  return scores;
}

Result<std::vector<std::vector<std::string>>> Engine::ExplainRemovalSets(
    std::size_t target_index, const ConstraintExplainerOptions& options,
    std::size_t max_set_size, const CancelToken& cancel) {
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  ConstraintGame game(&*box_, target_index);
  shap::CounterfactualOptions counterfactual_options;
  counterfactual_options.max_set_size = max_set_size;
  counterfactual_options.max_players = options.max_exact_players;
  counterfactual_options.cancel = cancel;
  TREX_ASSIGN_OR_RETURN(auto removal_sets,
                        shap::MinimalRemovalSets(game, counterfactual_options));
  std::vector<std::vector<std::string>> named;
  named.reserve(removal_sets.size());
  for (const auto& removal : removal_sets) {
    std::vector<std::string> labels;
    labels.reserve(removal.size());
    for (std::size_t index : removal) labels.push_back(dcs_.at(index).name());
    named.push_back(std::move(labels));
  }
  return named;
}

std::vector<CellRef> Engine::PlayerCells(const CellExplainerOptions& options,
                                         CellRef target) const {
  if (!options.prune) return dirty_->AllCells();
  std::optional<dc::AttributeGraph> graph =
      algorithm_->InfluenceGraph(dcs_, dirty_->schema());
  if (!graph.has_value()) {
    graph = dc::AttributeGraph::FromDcSet(dcs_, dirty_->num_columns());
  }
  return dc::RelevantCells(*dirty_, *graph, target);
}

Result<Explanation> Engine::ExplainCells(std::size_t target_index,
                                         const ExplainRequest& request,
                                         ExplainResult* result) {
  const CellExplainerOptions& options = request.cells;
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));
  const std::vector<CellRef> players =
      PlayerCells(options, box_->target(target_index));
  if (players.empty()) {
    return Status::InvalidArgument("no candidate player cells");
  }
  const bool top_k = request.kind == ExplainKind::kTopKCells;
  const CellMethod method = top_k ? CellMethod::kSampling
                                  : ResolveCellMethod(options, players.size());
  if (method == CellMethod::kExact &&
      options.policy != AbsentCellPolicy::kNull) {
    return Status::InvalidArgument(
        "exact cell Shapley requires AbsentCellPolicy::kNull (the "
        "column-sample policy defines a stochastic game)");
  }

  CellGame game(&*box_, players, target_index, options.policy);
  Explanation ex = MakeBaseExplanation(*box_, target_index);
  std::vector<shap::Estimate> estimates;
  if (method == CellMethod::kExact) {
    shap::ExactShapleyOptions exact_options;
    exact_options.max_players = options.max_exact_players;
    exact_options.num_threads = options_.num_threads;
    exact_options.pool = SweepPool();
    exact_options.cancel = request.cancel;
    TREX_ASSIGN_OR_RETURN(std::vector<double> values,
                          shap::ComputeExactShapley(game, exact_options));
    estimates.reserve(values.size());
    for (double value : values) estimates.push_back({.value = value});
    ex.method = "exact(null-policy)";
  } else {
    // Permutation-sweep sampling with the configured replacement policy
    // (Example 2.5 generalized to rank all players per sweep).
    const shap::SamplingOptions sampling = SweepOptions(request);
    shap::SweepOutcome outcome;
    TREX_ASSIGN_OR_RETURN(
        estimates, shap::EstimateShapleyAllPlayers(game, sampling, &outcome));
    RecordOutcome(outcome, result);
    ex.method =
        top_k ? StrFormat("topk(k=%zu, sweeps=%zu, separated=%s%s)",
                          request.top_k, outcome.sweeps,
                          outcome.separated ? "yes" : "no",
                          outcome.softened ? ", softened" : "")
              : StrFormat("sampling(m=%zu, policy=%s, players=%zu/%zu)",
                          sampling.num_samples,
                          AbsentCellPolicyToString(options.policy),
                          players.size(), dirty_->num_cells());
  }
  ex.ranked = CellScores(dirty_->schema(), players, estimates);
  return ex;
}

Result<PlayerScore> Engine::ExplainSingleCell(std::size_t target_index,
                                              const ExplainRequest& request,
                                              ExplainResult* result) {
  const CellRef player_cell = *request.single_cell;
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  std::vector<CellRef> players =
      PlayerCells(request.cells, box_->target(target_index));
  // The player of interest must be in the game even if pruning would
  // drop it (its Shapley value is then provably 0, but we measure it).
  const std::size_t player =
      std::find(players.begin(), players.end(), player_cell) - players.begin();
  if (player == players.size()) players.push_back(player_cell);

  // Example 2.5: per sample, one permutation and the cell game's sweep
  // state evaluated without and with the cell of interest.
  CellGame game(&*box_, std::move(players), target_index,
                request.cells.policy);
  shap::SweepOutcome outcome;
  TREX_ASSIGN_OR_RETURN(const shap::Estimate estimate,
                        shap::EstimateShapleyForPlayer(
                            game, player, SweepOptions(request), &outcome));
  RecordOutcome(outcome, result);
  PlayerScore score;
  score.cell = player_cell;
  score.label = player_cell.ToString(dirty_->schema());
  score.shapley = estimate.value;
  score.std_error = estimate.std_error;
  score.num_samples = estimate.num_samples;
  return score;
}

}  // namespace trex
