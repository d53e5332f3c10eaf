#include "repair/holoclean.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_set>
#include <vector>

#include "dc/row_index.h"
#include "dc/violation.h"
#include "table/stats.h"

namespace trex::repair {
namespace {

constexpr int kNumFeatures = 4;
using FeatureVector = std::array<double, kNumFeatures>;

/// The mutable assignment under inference: the working table plus one
/// bucketed violation probe per constraint (kept consistent on writes),
/// so scoring a candidate is a what-if probe per constraint instead of
/// a scan of all rows.
struct WorkingState {
  Table table;
  std::vector<dc::ConstraintRowIndex> row_indexes;

  WorkingState(const Table& dirty, const dc::DcSet& dcs) : table(dirty) {
    row_indexes.reserve(dcs.size());
    for (std::size_t c = 0; c < dcs.size(); ++c) {
      row_indexes.emplace_back(&table, &dcs.at(c));
    }
  }

  /// Not copyable/movable: the row indexes point into this object's own
  /// `table`.
  WorkingState(const WorkingState&) = delete;
  WorkingState& operator=(const WorkingState&) = delete;

  void Set(CellRef cell, const Value& value) {
    table.Set(cell, value);
    for (dc::ConstraintRowIndex& index : row_indexes) {
      if (index.IsKeyColumn(cell.col)) index.Rekey(cell.row);
    }
  }
};

/// Shared per-run context: the dirty table's statistics and the DC set.
struct Context {
  const Table& dirty;
  const dc::DcSet& dcs;
  TableStats stats;
  const HoloCleanOptions& options;

  Context(const Table& dirty_in, const dc::DcSet& dcs_in,
          const HoloCleanOptions& options_in)
      : dirty(dirty_in), dcs(dcs_in), stats(&dirty_in), options(options_in) {}
};

/// Candidate domain for one cell: mined from co-occurrence with the
/// tuple's other attributes, plus the current value and the column mode.
std::vector<Value> BuildDomain(Context* ctx, CellRef cell) {
  const Table& table = ctx->dirty;
  const std::size_t num_cols = table.num_columns();

  // Score candidates by summed co-occurrence probability. Evidence with
  // fewer than min_cooccurrence_support supporting rows is skipped (see
  // HoloCleanOptions).
  std::map<Value, double> scores;
  for (std::size_t other = 0; other < num_cols; ++other) {
    if (other == cell.col) continue;
    const Value& evidence = table.at(cell.row, other);
    if (evidence.is_null()) continue;
    const JointStats& joint = ctx->stats.Joint(other, cell.col);
    if (joint.CountGiven(evidence) < ctx->options.min_cooccurrence_support) {
      continue;
    }
    for (const Value& candidate : joint.TargetsGiven(evidence)) {
      scores[candidate] += joint.ProbabilityGiven(evidence, candidate);
    }
  }
  const ColumnStats& column = ctx->stats.Column(cell.col);
  if (auto mode = column.MostCommon(); mode.has_value()) {
    scores.emplace(*mode, 0.0);  // ensure present, keep mined score if any
  }
  const Value& current = table.at(cell);
  if (!current.is_null()) scores.emplace(current, 0.0);

  // Rank by (score desc, value asc) — std::map already orders by value,
  // giving deterministic ties.
  std::vector<std::pair<Value, double>> ranked(scores.begin(), scores.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::vector<Value> domain;
  for (const auto& [value, score] : ranked) {
    (void)score;
    if (!current.is_null() && value == current) continue;  // added below
    domain.push_back(value);
    if (static_cast<int>(domain.size()) >=
        ctx->options.max_domain_size - (current.is_null() ? 0 : 1)) {
      break;
    }
  }
  if (!current.is_null()) domain.push_back(current);
  std::sort(domain.begin(), domain.end());  // deterministic scan order
  return domain;
}

/// The features of assigning `candidate` to `cell` that read only the
/// dirty table: f[0], f[1] and f[3]. f[2] is left 0 (see
/// `ViolationFeature`).
FeatureVector DirtyFeatures(Context* ctx, CellRef cell,
                            const Value& candidate, const Value& original) {
  FeatureVector f{};
  // f[0]: column prior from the dirty table.
  f[0] = ctx->stats.Column(cell.col).Probability(candidate);

  // f[1]: mean co-occurrence probability with the tuple's other
  // attributes (dirty-table statistics, as HoloClean mines evidence from
  // the input dataset).
  double cooc_sum = 0;
  int cooc_count = 0;
  for (std::size_t other = 0; other < ctx->dirty.num_columns(); ++other) {
    if (other == cell.col) continue;
    const Value& evidence = ctx->dirty.at(cell.row, other);
    if (evidence.is_null()) continue;
    const JointStats& joint = ctx->stats.Joint(other, cell.col);
    if (joint.CountGiven(evidence) < ctx->options.min_cooccurrence_support) {
      continue;  // key-like evidence carries no repair signal
    }
    cooc_sum += joint.ProbabilityGiven(evidence, candidate);
    ++cooc_count;
  }
  f[1] = cooc_count == 0 ? 0.0 : cooc_sum / cooc_count;

  // f[3]: minimality — keeping the original value.
  f[3] = (!original.is_null() && candidate == original) ? 1.0 : 0.0;
  return f;
}

/// f[2]: negated fraction of DCs the row violates with `candidate`
/// placed in `cell`, judged against `working` (the current assignment of
/// all other cells) by what-if probes — violations lower the score.
double ViolationFeature(Context* ctx, WorkingState* working, CellRef cell,
                        const Value& candidate) {
  if (ctx->dcs.empty()) return 0.0;
  int violated = 0;
  for (dc::ConstraintRowIndex& index : working->row_indexes) {
    if (index.RowViolatesIf(cell.row, cell.col, candidate)) ++violated;
  }
  return -static_cast<double>(violated) /
         static_cast<double>(ctx->dcs.size());
}

/// One cell's scoring inputs that depend only on the dirty table,
/// computed once per run: the candidate domain and, per candidate, the
/// dirty-table features (`DirtyFeatures`).
struct CellModel {
  CellRef cell;
  std::vector<Value> domain;
  std::vector<FeatureVector> features;  // parallel to `domain`
};

CellModel BuildCellModel(Context* ctx, CellRef cell) {
  CellModel model;
  model.cell = cell;
  model.domain = BuildDomain(ctx, cell);
  const Value& original = ctx->dirty.at(cell);
  model.features.reserve(model.domain.size());
  for (const Value& candidate : model.domain) {
    model.features.push_back(DirtyFeatures(ctx, cell, candidate, original));
  }
  return model;
}

/// All four features of the model's `i`-th candidate against `working`.
FeatureVector Featurize(Context* ctx, WorkingState* working,
                        const CellModel& model, std::size_t i) {
  FeatureVector f = model.features[i];
  f[2] = ViolationFeature(ctx, working, model.cell, model.domain[i]);
  return f;
}

double Score(const FeatureVector& f, const FeatureVector& w) {
  double s = 0;
  for (int i = 0; i < kNumFeatures; ++i) s += f[i] * w[i];
  return s;
}

/// Index of the argmax candidate under the current weights; ties break
/// toward the smaller value (domains are value-sorted). Requires a
/// non-empty domain.
std::size_t BestCandidate(Context* ctx, WorkingState* working,
                          const CellModel& model,
                          const FeatureVector& weights) {
  double best_score = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < model.domain.size(); ++i) {
    const double s = Score(Featurize(ctx, working, model, i), weights);
    if (i == 0 || s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

/// Multiclass-perceptron weight fitting on weakly-labeled clean cells.
FeatureVector LearnWeights(Context* ctx, WorkingState* working,
                           const std::vector<CellRef>& clean_cells) {
  FeatureVector w{ctx->options.w_prior, ctx->options.w_cooccurrence,
                  ctx->options.w_violation, ctx->options.w_minimality};
  std::vector<CellModel> models;
  models.reserve(clean_cells.size());
  for (const CellRef& cell : clean_cells) {
    models.push_back(BuildCellModel(ctx, cell));
  }
  const double lr = ctx->options.learning_rate;
  for (int epoch = 0; epoch < ctx->options.learning_epochs; ++epoch) {
    for (const CellModel& model : models) {
      if (model.domain.size() < 2) continue;
      // A clean cell's observed value is non-null, so its domain holds it.
      const Value& observed = ctx->dirty.at(model.cell);
      const std::size_t predicted = BestCandidate(ctx, working, model, w);
      if (model.domain[predicted] == observed) continue;
      const std::size_t observed_index = static_cast<std::size_t>(
          std::find(model.domain.begin(), model.domain.end(), observed) -
          model.domain.begin());
      const FeatureVector f_obs =
          Featurize(ctx, working, model, observed_index);
      const FeatureVector f_pred = Featurize(ctx, working, model, predicted);
      for (int i = 0; i < kNumFeatures; ++i) {
        w[i] += lr * (f_obs[i] - f_pred[i]);
      }
    }
  }
  return w;
}

}  // namespace

HoloCleanRepair::HoloCleanRepair(HoloCleanOptions options)
    : options_(options) {}

Result<Table> HoloCleanRepair::Repair(const dc::DcSet& dcs,
                                      const Table& dirty) const {
  Context ctx(dirty, dcs, options_);

  // Stage 1: error detection.
  const std::vector<dc::Violation> violations = dc::FindViolations(dirty, dcs);
  std::unordered_set<std::size_t> noisy_linear;
  for (const dc::Violation& v : violations) {
    for (const CellRef& cell : dc::ImplicatedCells(v, dcs)) {
      noisy_linear.insert(dirty.LinearIndex(cell));
    }
  }
  if (noisy_linear.empty()) return dirty;

  std::vector<CellRef> noisy_cells;
  std::vector<CellRef> clean_cells;
  for (const CellRef& cell : dirty.AllCells()) {
    if (noisy_linear.count(dirty.LinearIndex(cell)) > 0) {
      noisy_cells.push_back(cell);
    } else if (!dirty.at(cell).is_null() &&
               static_cast<int>(clean_cells.size()) <
                   options_.max_training_cells) {
      clean_cells.push_back(cell);
    }
  }

  WorkingState working(dirty, dcs);

  // Stage 4 (weights) uses the *unrepaired* working copy.
  FeatureVector weights{options_.w_prior, options_.w_cooccurrence,
                        options_.w_violation, options_.w_minimality};
  if (options_.learn_weights) {
    weights = LearnWeights(&ctx, &working, clean_cells);
  }

  // Stage 2 domains and dirty-table features, computed once per noisy
  // cell.
  std::vector<CellModel> models;
  models.reserve(noisy_cells.size());
  for (const CellRef& cell : noisy_cells) {
    models.push_back(BuildCellModel(&ctx, cell));
  }

  // Stage 5: ICM to fixpoint.
  for (int iter = 0; iter < options_.max_inference_iterations; ++iter) {
    bool changed = false;
    for (const CellModel& model : models) {
      if (model.domain.empty()) continue;
      const Value& best =
          model.domain[BestCandidate(&ctx, &working, model, weights)];
      const Value& current = working.table.at(model.cell);
      if (current.is_null() || best != current) {
        working.Set(model.cell, best);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return working.table;
}

}  // namespace trex::repair
