#include "dc/incremental.h"

#include <utility>

#include "common/logging.h"

namespace trex::dc {

ViolationIndex::ViolationIndex(const Table& table, const DcSet* dcs)
    : table_(table), dcs_(dcs) {
  TREX_CHECK(dcs_ != nullptr);
  row_indexes_.reserve(dcs_->size());
  for (std::size_t c = 0; c < dcs_->size(); ++c) {
    row_indexes_.emplace_back(&table_, &dcs_->at(c));
  }
  for (const Violation& v : FindViolations(table_, *dcs_)) {
    violations_.insert(v);
    by_row2_.insert(v);
  }
}

void ViolationIndex::RefreshRow(std::size_t constraint_index,
                                std::size_t row,
                                std::vector<Violation>* removed,
                                std::vector<Violation>* added) {
  // Drop stale entries involving the row: range-scan the primary set for
  // row1 == row and the mirror for row2 == row.
  std::vector<Violation> stale;
  for (auto it = violations_.lower_bound(Violation{constraint_index, row, 0});
       it != violations_.end() &&
       it->constraint_index == constraint_index && it->row1 == row;
       ++it) {
    stale.push_back(*it);
  }
  for (auto it = by_row2_.lower_bound(Violation{constraint_index, 0, row});
       it != by_row2_.end() && it->constraint_index == constraint_index &&
       it->row2 == row;
       ++it) {
    if (it->row1 != row) stale.push_back(*it);  // unary collected above
  }
  for (const Violation& v : stale) {
    violations_.erase(v);
    by_row2_.erase(v);
    if (removed != nullptr) removed->push_back(v);
  }

  // Rescan the row through the constraint's bucket probe.
  const bool dedup = dcs_->at(constraint_index).IsSymmetric();
  for (const Violation& v : row_indexes_[constraint_index].ViolationsOfRow(
           row, constraint_index, dedup)) {
    if (violations_.insert(v).second) {
      by_row2_.insert(v);
      if (added != nullptr) added->push_back(v);
    }
  }
}

void ViolationIndex::SetCell(CellRef cell, Value value,
                             std::vector<Violation>* removed,
                             std::vector<Violation>* added) {
  TREX_CHECK_LT(cell.row, table_.num_rows());
  TREX_CHECK_LT(cell.col, table_.num_columns());
  table_.Set(cell, std::move(value));
  for (std::size_t c = 0; c < dcs_->size(); ++c) {
    if (!row_indexes_[c].ReadsColumn(cell.col)) continue;
    if (row_indexes_[c].IsKeyColumn(cell.col)) row_indexes_[c].Rekey(cell.row);
    RefreshRow(c, cell.row, removed, added);
  }
}

std::size_t ViolationIndex::CountIfSet(CellRef cell, const Value& value) {
  // Pure delta probe: a cell write only affects violations that involve
  // its row under constraints reading its column, so the what-if count
  // is |V| − (current such violations) + (such violations with `value`
  // placed). Neither the table nor the violation sets are touched; the
  // placed count comes from the row index's what-if probe (O(1) hash
  // work for FD-like constraints, see dc/row_index.h), and violations of
  // distinct constraints are distinct, so the per-constraint counts add.
  std::size_t count = violations_.size();
  for (std::size_t c = 0; c < dcs_->size(); ++c) {
    if (!row_indexes_[c].ReadsColumn(cell.col)) continue;
    // Distinct current entries involving the row: row1 == row (primary
    // range) plus row2 == row (mirror range), minus the unary overlap.
    for (auto it = violations_.lower_bound(Violation{c, cell.row, 0});
         it != violations_.end() && it->constraint_index == c &&
         it->row1 == cell.row;
         ++it) {
      --count;
    }
    for (auto it = by_row2_.lower_bound(Violation{c, 0, cell.row});
         it != by_row2_.end() && it->constraint_index == c &&
         it->row2 == cell.row;
         ++it) {
      if (it->row1 != cell.row) --count;  // unary counted above already
    }
    count += row_indexes_[c].ViolationCountIf(cell.row, cell.col, value);
  }
  return count;
}

}  // namespace trex::dc
