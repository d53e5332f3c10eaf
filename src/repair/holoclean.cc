#include "repair/holoclean.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
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

/// What a cell model reads: the dirty table, its statistics and the
/// options. The statistics must be fully built (`TableStats::BuildAll`),
/// so that any number of threads can read them.
struct DirtyContext {
  const Table& dirty;
  const TableStats& stats;
  const HoloCleanOptions& options;
};

/// Candidate domain for one cell: mined from co-occurrence with the
/// tuple's other attributes, plus the current value and the column mode,
/// capped at `max_domain_size` values.
std::vector<Value> BuildDomain(const DirtyContext& ctx, CellRef cell) {
  const Table& table = ctx.dirty;
  const std::size_t num_cols = table.num_columns();

  // Score candidates by summed co-occurrence probability. Evidence with
  // fewer than min_cooccurrence_support supporting rows is skipped (see
  // HoloCleanOptions).
  std::map<Value, double> scores;
  for (std::size_t other = 0; other < num_cols; ++other) {
    if (other == cell.col) continue;
    const Value& evidence = table.at(cell.row, other);
    if (evidence.is_null()) continue;
    const JointStats& joint = ctx.stats.Joint(other, cell.col);
    if (joint.CountGiven(evidence) < ctx.options.min_cooccurrence_support) {
      continue;
    }
    for (const Value& candidate : joint.TargetsGiven(evidence)) {
      scores[candidate] += joint.ProbabilityGiven(evidence, candidate);
    }
  }
  const ColumnStats& column = ctx.stats.Column(cell.col);
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
  // A non-null current value is always kept, so it takes one slot.
  const std::size_t mined_cap = static_cast<std::size_t>(
      ctx.options.max_domain_size - (current.is_null() ? 0 : 1));
  std::vector<Value> domain;
  for (const auto& [value, score] : ranked) {
    (void)score;
    if (domain.size() >= mined_cap) break;
    if (!current.is_null() && value == current) continue;  // added below
    domain.push_back(value);
  }
  if (!current.is_null()) domain.push_back(current);
  std::sort(domain.begin(), domain.end());  // deterministic scan order
  return domain;
}

/// The features of assigning `candidate` to `cell` that read only the
/// dirty table: f[0], f[1] and f[3]. f[2] is left 0 (see
/// `Featurize`).
FeatureVector DirtyFeatures(const DirtyContext& ctx, CellRef cell,
                            const Value& candidate, const Value& original) {
  FeatureVector f{};
  // f[0]: column prior from the dirty table.
  f[0] = ctx.stats.Column(cell.col).Probability(candidate);

  // f[1]: mean co-occurrence probability with the tuple's other
  // attributes (dirty-table statistics, as HoloClean mines evidence from
  // the input dataset).
  double cooc_sum = 0;
  int cooc_count = 0;
  for (std::size_t other = 0; other < ctx.dirty.num_columns(); ++other) {
    if (other == cell.col) continue;
    const Value& evidence = ctx.dirty.at(cell.row, other);
    if (evidence.is_null()) continue;
    const JointStats& joint = ctx.stats.Joint(other, cell.col);
    if (joint.CountGiven(evidence) < ctx.options.min_cooccurrence_support) {
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

/// One cell's scoring inputs that depend only on the dirty table: the
/// candidate domain and, per candidate, the dirty-table features
/// (`DirtyFeatures`).
struct CellModel {
  CellRef cell;
  std::vector<Value> domain;
  std::vector<FeatureVector> features;  // parallel to `domain`
};

CellModel BuildCellModel(const DirtyContext& ctx, CellRef cell) {
  CellModel model;
  model.cell = cell;
  model.domain = BuildDomain(ctx, cell);
  const Value& original = ctx.dirty.at(cell);
  model.features.reserve(model.domain.size());
  for (const Value& candidate : model.domain) {
    model.features.push_back(DirtyFeatures(ctx, cell, candidate, original));
  }
  return model;
}

/// The number of constraints under which `cell.row` would violate with
/// `candidate` placed in `cell`, judged against `working` (the current
/// assignment of all other cells) by what-if probes. Only constraints
/// whose `ReadsColumn(cell.col)` equals `reads_column` are counted: a
/// constraint that does not read the column answers alike for every
/// candidate, so a caller scoring a whole domain probes those once.
int ViolatedConstraints(WorkingState* working, CellRef cell,
                        const Value& candidate, bool reads_column) {
  int violated = 0;
  for (dc::ConstraintRowIndex& index : working->row_indexes) {
    if (index.ReadsColumn(cell.col) == reads_column &&
        index.RowViolatesIf(cell.row, cell.col, candidate)) {
      ++violated;
    }
  }
  return violated;
}

/// The constraints the row violates whatever `model.cell` holds (see
/// `ViolatedConstraints`); probed with the cell's current value.
int FixedViolations(WorkingState* working, const CellModel& model) {
  return ViolatedConstraints(working, model.cell,
                             working->table.at(model.cell), false);
}

/// All four features of the model's `i`-th candidate against `working`,
/// given the model's `FixedViolations`. f[2] is the negated fraction of
/// DCs the row violates with the candidate placed — violations lower
/// the score.
FeatureVector Featurize(const dc::DcSet& dcs, WorkingState* working,
                        const CellModel& model, std::size_t i, int fixed) {
  FeatureVector f = model.features[i];
  if (dcs.empty()) return f;
  const int violated =
      fixed + ViolatedConstraints(working, model.cell, model.domain[i], true);
  f[2] = -static_cast<double>(violated) / static_cast<double>(dcs.size());
  return f;
}

double Score(const FeatureVector& f, const FeatureVector& w) {
  double s = 0;
  for (int i = 0; i < kNumFeatures; ++i) s += f[i] * w[i];
  return s;
}

/// Index of the argmax candidate under the current weights; ties break
/// toward the smaller value (domains are value-sorted). `fixed` is the
/// model's `FixedViolations` against `working`. Requires a non-empty
/// domain.
std::size_t BestCandidate(const dc::DcSet& dcs, WorkingState* working,
                          const CellModel& model, const FeatureVector& weights,
                          int fixed) {
  double best_score = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < model.domain.size(); ++i) {
    const double s = Score(Featurize(dcs, working, model, i, fixed), weights);
    if (i == 0 || s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

/// Multiclass-perceptron weight fitting on weakly-labeled clean cells.
FeatureVector LearnWeights(const Table& dirty, const dc::DcSet& dcs,
                           const HoloCleanOptions& options,
                           WorkingState* working,
                           const std::vector<const CellModel*>& models) {
  FeatureVector w{options.w_prior, options.w_cooccurrence,
                  options.w_violation, options.w_minimality};
  const double lr = options.learning_rate;
  for (int epoch = 0; epoch < options.learning_epochs; ++epoch) {
    for (const CellModel* model : models) {
      if (model->domain.size() < 2) continue;
      // A clean cell's observed value is non-null, so its domain holds it.
      const Value& observed = dirty.at(model->cell);
      const int fixed = FixedViolations(working, *model);
      const std::size_t predicted =
          BestCandidate(dcs, working, *model, w, fixed);
      if (model->domain[predicted] == observed) continue;
      const std::size_t observed_index = static_cast<std::size_t>(
          std::find(model->domain.begin(), model->domain.end(), observed) -
          model->domain.begin());
      const FeatureVector f_obs =
          Featurize(dcs, working, *model, observed_index, fixed);
      const FeatureVector f_pred =
          Featurize(dcs, working, *model, predicted, fixed);
      for (int i = 0; i < kNumFeatures; ++i) {
        w[i] += lr * (f_obs[i] - f_pred[i]);
      }
    }
  }
  return w;
}

/// The dirty-table half of the pipeline (stages 2 and 3): the table's
/// statistics plus one lazily filled model slot per cell. A model is a
/// pure function of (dirty, cell, options), so one instance serves every
/// constraint set.
///
/// Thread safety: the statistics are fully built in the constructor and
/// only read afterwards. A slot is published with a compare-and-swap in
/// which the first writer wins; a thread that loses the race discards
/// its own (equal) model, which wastes work but never changes an answer.
class DirtyModels {
 public:
  DirtyModels(const Table* dirty, const HoloCleanOptions* options)
      : stats_(dirty),
        ctx_{*dirty, stats_, *options},
        slots_(std::make_unique<std::atomic<const CellModel*>[]>(
            dirty->num_cells())) {
    stats_.BuildAll();
  }

  ~DirtyModels() {
    for (std::size_t i = 0; i < ctx_.dirty.num_cells(); ++i) {
      delete slots_[i].load(std::memory_order_relaxed);
    }
  }

  DirtyModels(const DirtyModels&) = delete;
  DirtyModels& operator=(const DirtyModels&) = delete;

  /// The model of `cell`, built on first use and read in place after.
  const CellModel& Model(CellRef cell) const {
    std::atomic<const CellModel*>& slot =
        slots_[ctx_.dirty.LinearIndex(cell)];
    const CellModel* published = slot.load(std::memory_order_acquire);
    if (published != nullptr) return *published;
    auto built = std::make_unique<const CellModel>(BuildCellModel(ctx_, cell));
    if (slot.compare_exchange_strong(published, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return *built.release();
    }
    return *published;  // another thread won; `built` is discarded
  }

 private:
  TableStats stats_;
  const DirtyContext ctx_;
  std::unique_ptr<std::atomic<const CellModel*>[]> slots_;
};

/// The whole pipeline on `dirty` under `dcs`. Stage 1 runs first, so a
/// table without violations returns before any statistics are built;
/// stages 2–5 then read their models from `prepared` (bound to `dirty`),
/// or from a call-local `DirtyModels` when `prepared` is null.
Result<Table> RunPipeline(const dc::DcSet& dcs, const Table& dirty,
                          const HoloCleanOptions& options,
                          const DirtyModels* prepared) {
  if (options.max_domain_size < 1) {
    return Status::InvalidArgument("HoloCleanOptions::max_domain_size is " +
                                   std::to_string(options.max_domain_size) +
                                   "; it must be at least 1");
  }

  // Stage 1: error detection.
  const std::vector<dc::Violation> violations = dc::FindViolations(dirty, dcs);
  std::unordered_set<std::size_t> noisy_linear;
  for (const dc::Violation& v : violations) {
    for (const CellRef& cell : dc::ImplicatedCells(v, dcs)) {
      noisy_linear.insert(dirty.LinearIndex(cell));
    }
  }
  if (noisy_linear.empty()) return dirty;

  std::optional<DirtyModels> local;
  const DirtyModels& models =
      prepared != nullptr ? *prepared : local.emplace(&dirty, &options);

  // Stages 2 and 3: the noisy and training cells' domains and
  // dirty-table features, read in place.
  std::vector<const CellModel*> noisy_models;
  std::vector<const CellModel*> clean_models;
  for (const CellRef& cell : dirty.AllCells()) {
    if (noisy_linear.count(dirty.LinearIndex(cell)) > 0) {
      noisy_models.push_back(&models.Model(cell));
    } else if (options.learn_weights && !dirty.at(cell).is_null() &&
               static_cast<int>(clean_models.size()) <
                   options.max_training_cells) {
      clean_models.push_back(&models.Model(cell));
    }
  }

  WorkingState working(dirty, dcs);

  // Stage 4 (weights) uses the *unrepaired* working copy.
  FeatureVector weights{options.w_prior, options.w_cooccurrence,
                        options.w_violation, options.w_minimality};
  if (options.learn_weights) {
    weights = LearnWeights(dirty, dcs, options, &working, clean_models);
  }

  // Stage 5: ICM to fixpoint.
  for (int iter = 0; iter < options.max_inference_iterations; ++iter) {
    bool changed = false;
    for (const CellModel* model : noisy_models) {
      if (model->domain.empty()) continue;
      const Value& best = model->domain[BestCandidate(
          dcs, &working, *model, weights, FixedViolations(&working, *model))];
      const Value& current = working.table.at(model->cell);
      if (current.is_null() || best != current) {
        working.Set(model->cell, best);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return working.table;
}

/// `HoloCleanRepair` bound to one dirty table: the `DirtyModels` live as
/// long as this object, so every constraint set reuses them.
class PreparedHoloClean : public PreparedRepair {
 public:
  PreparedHoloClean(const HoloCleanOptions* options,
                    std::shared_ptr<const Table> dirty)
      : options_(options),
        dirty_(std::move(dirty)),
        models_(dirty_.get(), options) {}

  Result<Table> Repair(const dc::DcSet& dcs) const override {
    return RunPipeline(dcs, *dirty_, *options_, &models_);
  }

 private:
  const HoloCleanOptions* options_;
  std::shared_ptr<const Table> dirty_;
  DirtyModels models_;
};

}  // namespace

HoloCleanRepair::HoloCleanRepair(HoloCleanOptions options)
    : options_(options) {}

Result<Table> HoloCleanRepair::Repair(const dc::DcSet& dcs,
                                      const Table& dirty) const {
  return RunPipeline(dcs, dirty, options_, nullptr);
}

std::unique_ptr<const PreparedRepair> HoloCleanRepair::Prepare(
    std::shared_ptr<const Table> dirty) const {
  return std::make_unique<PreparedHoloClean>(&options_, std::move(dirty));
}

}  // namespace trex::repair
