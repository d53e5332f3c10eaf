// `HoloCleanRepair`: a C++ reimplementation of the HoloClean pipeline
// (Rekatsinas, Chu, Ilyas, Ré — PVLDB 2017), the repair system the T-REx
// demo queries as its black box.
//
// The original is a Python/PostgreSQL system performing probabilistic
// inference over a factor-graph relaxation. This substrate keeps its
// stages and signal sources, deterministic and dependency-free:
//
//   1. Error detection   — cells implicated in DC violations are "noisy".
//   2. Domain generation — candidate values for a noisy cell are mined
//      from co-occurrence with the tuple's other attributes (capped,
//      ranked by co-occurrence strength).
//   3. Featurization     — per candidate: column prior, mean attribute
//      co-occurrence probability, DC-violation fraction when placed, and
//      a minimality indicator (HoloClean's feature families). Domains
//      and the three dirty-table features depend only on the dirty
//      table, so they are built once per cell per *prepared table*
//      (`Prepare`), on the cell's first use, and read in place by every
//      later call, whatever its constraint set; a plain `Repair` call
//      prepares its table for that call alone. Only the violation
//      fraction reads the working assignment, through the row indexes'
//      what-if probes (dc/row_index.h), so scoring a candidate never
//      writes the table.
//   4. Weight learning   — weak supervision exactly as in the paper:
//      cells *not* flagged noisy serve as labeled examples; a multiclass
//      perceptron fits the feature weights.
//   5. Inference         — iterated conditional modes (ICM) to a
//      fixpoint, the deterministic analogue of Gibbs-based MAP inference.
//
// Determinism: fixed iteration orders and value-ordered tie-breaks, so
// the Shapley games are well-defined on top of it.

#ifndef TREX_REPAIR_HOLOCLEAN_H_
#define TREX_REPAIR_HOLOCLEAN_H_

#include <memory>
#include <string>

#include "repair/algorithm.h"

namespace trex::repair {

/// Tuning knobs for `HoloCleanRepair`.
struct HoloCleanOptions {
  /// Maximum candidate-domain size per noisy cell, at least 1 (the
  /// current value is always kept, so a cap of 1 never rewrites a
  /// non-null cell). `Repair` rejects a smaller cap with
  /// `InvalidArgument`.
  int max_domain_size = 8;
  /// ICM sweeps over the noisy cells.
  int max_inference_iterations = 10;
  /// Perceptron epochs over the weakly-labeled (clean) cells.
  int learning_epochs = 3;
  /// Perceptron step size.
  double learning_rate = 0.1;
  /// Cap on weak-supervision examples (row-major prefix) per run.
  int max_training_cells = 512;
  /// Disable to run with the fixed initial weights below.
  bool learn_weights = true;
  /// Conditioning evidence must be shared by at least this many rows to
  /// contribute co-occurrence signal. Key-like attributes (unique per
  /// row) co-occur perfectly with whatever the row currently holds —
  /// including injected errors — so singleton evidence is discarded,
  /// mirroring HoloClean's pruning of uninformative attribute pairs.
  std::size_t min_cooccurrence_support = 2;

  /// Initial feature weights: prior frequency, co-occurrence,
  /// violation penalty, minimality.
  double w_prior = 1.0;
  double w_cooccurrence = 2.0;
  double w_violation = 4.0;
  double w_minimality = 0.5;
};

/// HoloClean-style probabilistic repairer (see file comment).
class HoloCleanRepair : public RepairAlgorithm {
 public:
  explicit HoloCleanRepair(HoloCleanOptions options = {});

  std::string name() const override { return "holoclean"; }

  [[nodiscard]] Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override;

  /// Builds the dirty table's statistics now and keeps one model slot
  /// per cell, filled on first use and shared by every later call. The
  /// result borrows `*this`.
  std::unique_ptr<const PreparedRepair> Prepare(
      std::shared_ptr<const Table> dirty) const override;

  const HoloCleanOptions& options() const { return options_; }

 private:
  HoloCleanOptions options_;
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_HOLOCLEAN_H_
