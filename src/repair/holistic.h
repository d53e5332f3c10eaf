// `HolisticRepair`: the holistic data-cleaning baseline of Chu, Ilyas &
// Papotti (ICDE 2013) — one of the DC-repair approaches the paper's
// introduction cites ([3]).
//
// The algorithm builds the *conflict hypergraph* (nodes: cells; edges: the
// cell sets implicated in each violation), greedily approximates a
// minimum vertex cover to choose which cells to change, and assigns each
// chosen cell the candidate value that minimizes the remaining violations
// (its "repair context"). We iterate this until the table is clean, no
// candidate improves things, or the round budget is exhausted.

#ifndef TREX_REPAIR_HOLISTIC_H_
#define TREX_REPAIR_HOLISTIC_H_

#include <string>

#include "repair/algorithm.h"

namespace trex::repair {

/// Options for `HolisticRepair`. `Repair` rejects a negative value of
/// either field with `InvalidArgument` before doing any work.
struct HolisticOptions {
  /// Upper bound on repair rounds. Each round rewrites exactly one cell:
  /// of the cells at maximum conflict degree, the (cell, candidate)
  /// pair that leaves the fewest violations. Guards termination on
  /// unsatisfiable constraint sets; 0 returns the input unchanged.
  int max_rounds = 64;
  /// Cap on the column-value fill of a cell's candidate set: the
  /// smallest distinct values of its column are added only while the
  /// set holds fewer than this many. The partner values from the cell's
  /// violations and the column mode are always added, so a set can
  /// exceed the cap.
  int max_candidates = 16;
};

/// Greedy conflict-hypergraph repairer (see file comment).
class HolisticRepair : public RepairAlgorithm {
 public:
  explicit HolisticRepair(HolisticOptions options = {});

  std::string name() const override { return "holistic"; }

  [[nodiscard]] Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override;

 private:
  HolisticOptions options_;
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_HOLISTIC_H_
