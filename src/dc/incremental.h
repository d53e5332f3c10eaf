// Incremental violation maintenance.
//
// Repair inner loops ask "how many violations would remain if this cell
// were set to v?" thousands of times; recomputing all violations is
// O(n²) per probe. `ViolationIndex` maintains the violation set under
// single-cell updates: changing a cell only affects violations whose
// constraint reads that column and that involve that row. Each update
// rescans that row through a per-constraint `ConstraintRowIndex`
// (dc/row_index.h), so the rescan probes one hash bucket — O(bucket) —
// instead of the whole table, and stale entries are range-erased from a
// (constraint, row)-addressable mirror instead of scanned.
//
// `CountIfSet` is a what-if probe that never writes: it subtracts the
// row's current entries (two range scans) and adds each affected
// constraint's `ConstraintRowIndex::ViolationCountIf`. For the shapes
// that index answers in O(1) — cross-tuple equalities plus one
// cross-tuple `!=`, i.e. every FD — a probe costs O(#constraints) hash
// lookups: no table write, no re-keying, no bucket scan, no violation
// set. Other shapes evaluate the constraint over the row's hypothetical
// bucket. The first probe builds each index's per-bucket histograms
// (lazily; see dc/row_index.h), after which `SetCell` keeps them exact
// through `IsKeyColumn`/`Rekey`. `HolisticRepair` uses it for candidate
// evaluation (see bench_ablation's incremental entry and the
// equivalence property test).

#ifndef TREX_DC_INCREMENTAL_H_
#define TREX_DC_INCREMENTAL_H_

#include <set>
#include <vector>

#include "dc/constraint.h"
#include "dc/row_index.h"
#include "dc/violation.h"
#include "table/table.h"

namespace trex::dc {

/// Maintains the violation set of a table under cell updates (see file
/// comment). Owns a private copy of the table; `table()` exposes the
/// current state. Violations are kept with symmetric dedup (row1 < row2
/// for symmetric DCs), matching `FindViolations`' default.
class ViolationIndex {
 public:
  /// Builds the index over a snapshot of `table`.
  ViolationIndex(const Table& table, const DcSet* dcs);

  /// Not copyable/movable: the per-constraint row indexes hold pointers
  /// into this object's own `table_`.
  ViolationIndex(const ViolationIndex&) = delete;
  ViolationIndex& operator=(const ViolationIndex&) = delete;

  /// Current table state (the snapshot plus applied updates).
  const Table& table() const { return table_; }

  /// Current violations, in deterministic (constraint, rows) order.
  const std::set<Violation>& violations() const { return violations_; }
  std::size_t count() const { return violations_.size(); }

  /// Applies a cell update and incrementally maintains the set.
  /// `removed` / `added` (optional) receive the update's violation
  /// delta — entries dropped from and inserted into `violations()` —
  /// so callers maintaining derived structures (degree counts, conflict
  /// frontiers) can patch instead of rescanning. An entry that merely
  /// survives a refresh may appear in both lists; apply removals first.
  void SetCell(CellRef cell, Value value,
               std::vector<Violation>* removed = nullptr,
               std::vector<Violation>* added = nullptr);

  /// What-if probe: the violation count if `cell` were set to `value`.
  /// The table and the violation set are left unchanged (the first call
  /// builds the row indexes' histograms, hence non-const).
  std::size_t CountIfSet(CellRef cell, const Value& value);

 private:
  /// Orders violations by (constraint, row2, row1) so entries involving
  /// a row as the *second* tuple are range-addressable.
  struct Row2Order {
    bool operator()(const Violation& a, const Violation& b) const {
      if (a.constraint_index != b.constraint_index) {
        return a.constraint_index < b.constraint_index;
      }
      if (a.row2 != b.row2) return a.row2 < b.row2;
      return a.row1 < b.row1;
    }
  };

  /// Recomputes violations of constraint `c` that involve `row` and
  /// replaces the stale entries, reporting the delta when requested.
  void RefreshRow(std::size_t constraint_index, std::size_t row,
                  std::vector<Violation>* removed,
                  std::vector<Violation>* added);

  Table table_;
  const DcSet* dcs_;
  std::set<Violation> violations_;
  /// Mirror of `violations_` under `Row2Order` (same entries).
  std::set<Violation, Row2Order> by_row2_;
  /// One partner-probe index per constraint, kept over `table_`; it
  /// also says which columns its constraint reads.
  std::vector<ConstraintRowIndex> row_indexes_;
};

}  // namespace trex::dc

#endif  // TREX_DC_INCREMENTAL_H_
