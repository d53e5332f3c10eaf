// The black-box repair-algorithm interface T-REx explains.
//
// T-REx (paper §1) is agnostic to the repair approach: it only requires a
// deterministic function `Alg(C, T^d) -> T^c`. Every repairer in this
// library implements `RepairAlgorithm`; the Shapley games in src/core
// query it with perturbed inputs (constraint subsets / cell coalitions)
// and never look inside.
//
// Determinism contract: two calls with equal `(dcs, dirty)` must return
// equal tables — otherwise Shapley values are ill-defined. All bundled
// repairers use fixed iteration orders and value-ordered tie-breaking; no
// wall-clock, no unseeded randomness.
//
// Preparation hook: the constraint game (paper Fig. 1) runs all 2^k
// subset repairs `Alg(C', T^d)` over one dirty table. `Prepare(dirty)`
// binds an algorithm to that table once and returns a `PreparedRepair`
// answering `Repair(dcs)`, so a backend whose work splits into a
// dirty-table-only part and a constraint-dependent part can do the
// first part once per table instead of once per call. The default
// prepared object just forwards to `Repair(dcs, *dirty)`, so black-box
// backends and decorators keep the per-call contract unchanged.

#ifndef TREX_REPAIR_ALGORITHM_H_
#define TREX_REPAIR_ALGORITHM_H_

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "dc/constraint.h"
#include "dc/graph.h"
#include "table/table.h"

namespace trex::repair {

/// A repair algorithm bound to one dirty table (see file comment).
///
/// Contract: `Repair(dcs)` must equal the binding algorithm's
/// `Repair(dcs, dirty)` bit for bit (same cells, same value types and
/// bits, same error status), for every `dcs`. The object is immutable
/// from the caller's side and must be safe to call concurrently from
/// multiple threads: the exact subset walk calls it from pool threads.
/// It may borrow the algorithm that made it, which must outlive it.
class PreparedRepair {
 public:
  virtual ~PreparedRepair() = default;

  /// Repairs the bound dirty table under `dcs`.
  [[nodiscard]] virtual Result<Table> Repair(const dc::DcSet& dcs) const = 0;
};

/// Abstract deterministic repair algorithm.
class RepairAlgorithm {
 public:
  virtual ~RepairAlgorithm() = default;

  /// Human-readable identifier used in reports and benchmarks.
  virtual std::string name() const = 0;

  /// Repairs `dirty` under the constraint set `dcs` and returns the clean
  /// table. Must not mutate inputs; must be deterministic; must accept
  /// tables containing nulls (Shapley coalition complements). Must also
  /// be safe to call concurrently from multiple threads (stateless, or
  /// internally synchronized): the engine's sharded samplers invoke it
  /// in parallel when `EngineOptions::num_threads > 1`.
  [[nodiscard]] virtual Result<Table> Repair(const dc::DcSet& dcs,
                               const Table& dirty) const = 0;

  /// Binds this algorithm to `dirty` for repeated `Repair(dcs)` calls
  /// under varying constraint sets (see `PreparedRepair` for the
  /// contract). The default forwards every call to `Repair(dcs, *dirty)`
  /// on this object, so decorators that do not override it still see
  /// each call. The result borrows `*this`.
  virtual std::unique_ptr<const PreparedRepair> Prepare(
      std::shared_ptr<const Table> dirty) const;

  /// Optionally exposes which columns can influence which under this
  /// algorithm (reads -> writes), enabling *sound* relevant-cell pruning
  /// in the cell explainer. Black-box algorithms return nullopt and the
  /// explainer falls back to the conservative DC-derived graph.
  virtual std::optional<dc::AttributeGraph> InfluenceGraph(
      const dc::DcSet& dcs, const Schema& schema) const {
    (void)dcs;
    (void)schema;
    return std::nullopt;
  }
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_ALGORITHM_H_
