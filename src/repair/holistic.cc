#include "repair/holistic.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dc/incremental.h"
#include "dc/violation.h"

namespace trex::repair {
namespace {

/// One column's non-null values with their counts, in value order: the
/// column distribution `ContextCandidates` reads, patched on each write
/// instead of rebuilt.
using ColumnCounts = std::map<Value, std::size_t>;

ColumnCounts CountColumn(const Table& table, std::size_t col) {
  ColumnCounts counts;
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    const Value& v = table.at(row, col);
    if (!v.is_null()) ++counts[v];
  }
  return counts;
}

/// Candidate replacement values for `cell`, mined from its repair
/// context: partner-cell values from the violations it participates in
/// (to satisfy broken != predicates), plus the column mode (ties toward
/// the smaller value), plus the smallest column values up to
/// `max_candidates` (to escape broken = predicates). The result is a
/// set, so the order of `cell_violations` does not matter; `counts` is
/// the cell's column distribution over the current table.
std::vector<Value> ContextCandidates(
    const Table& table, const std::vector<dc::Violation>& cell_violations,
    const ColumnCounts& counts, CellRef cell, int max_candidates) {
  std::set<Value> candidates;
  for (const dc::Violation& v : cell_violations) {
    // Partner value in the same column from the other tuple.
    const std::size_t partner_row = cell.row == v.row1 ? v.row2 : v.row1;
    const Value& partner = table.at(partner_row, cell.col);
    if (!partner.is_null()) candidates.insert(partner);
  }
  const Value* mode = nullptr;
  std::size_t mode_count = 0;
  for (const auto& [value, count] : counts) {  // ascending: smallest wins
    if (count > mode_count) {
      mode = &value;
      mode_count = count;
    }
  }
  if (mode != nullptr) candidates.insert(*mode);
  for (const auto& [value, count] : counts) {
    if (static_cast<int>(candidates.size()) >= max_candidates) break;
    candidates.insert(value);
  }
  const Value& current = table.at(cell);
  if (!current.is_null()) candidates.erase(current);
  return {candidates.begin(), candidates.end()};
}

/// The conflict hypergraph's cell-degree bookkeeping, maintained
/// incrementally from `ViolationIndex` deltas: one violation list per
/// cell (by linear index) and the number of cells at each degree, so
/// the greedy MVC frontier (all max-degree cells, ascending CellRef
/// order) is one scan of the degrees instead of a per-round rescan of
/// every violation.
class ConflictGraph {
 public:
  ConflictGraph(const Table& table, const dc::DcSet& dcs,
                const std::set<dc::Violation>& violations)
      : table_(table), dcs_(dcs), per_cell_(table.num_cells()) {
    for (const dc::Violation& v : violations) Add(v);
  }

  void Add(const dc::Violation& v) {
    for (const CellRef& cell : dc::ImplicatedCells(v, dcs_)) {
      std::vector<dc::Violation>& list = per_cell_[table_.LinearIndex(cell)];
      list.push_back(v);
      Rebucket(list.size() - 1, list.size());
    }
  }

  void Remove(const dc::Violation& v) {
    for (const CellRef& cell : dc::ImplicatedCells(v, dcs_)) {
      std::vector<dc::Violation>& list = per_cell_[table_.LinearIndex(cell)];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] == v) {
          list[i] = list.back();
          list.pop_back();
          Rebucket(list.size() + 1, list.size());
          break;
        }
      }
    }
  }

  /// All cells at the maximum degree, ascending CellRef order; empty
  /// when no cell is in a violation.
  std::vector<CellRef> Frontier() const {
    std::vector<CellRef> frontier;
    if (max_degree_ == 0) return frontier;
    frontier.reserve(cells_at_degree_[max_degree_]);
    for (std::size_t i = 0; i < per_cell_.size(); ++i) {
      if (per_cell_[i].size() == max_degree_) {
        frontier.push_back(table_.FromLinearIndex(i));
      }
    }
    return frontier;
  }

  const std::vector<dc::Violation>& ViolationsOf(CellRef cell) const {
    return per_cell_[table_.LinearIndex(cell)];
  }

 private:
  void Rebucket(std::size_t from, std::size_t to) {
    if (from > 0) --cells_at_degree_[from];
    if (to > 0) {
      if (to >= cells_at_degree_.size()) cells_at_degree_.resize(to + 1);
      ++cells_at_degree_[to];
      if (to > max_degree_) max_degree_ = to;
    }
    while (max_degree_ > 0 && cells_at_degree_[max_degree_] == 0) {
      --max_degree_;
    }
  }

  const Table& table_;
  const dc::DcSet& dcs_;
  std::vector<std::vector<dc::Violation>> per_cell_;
  /// cells_at_degree_[d]: cells in exactly d violations (d > 0).
  std::vector<std::size_t> cells_at_degree_;
  std::size_t max_degree_ = 0;
};

}  // namespace

HolisticRepair::HolisticRepair(HolisticOptions options) : options_(options) {}

Result<Table> HolisticRepair::Repair(const dc::DcSet& dcs,
                                     const Table& dirty) const {
  if (options_.max_rounds < 0 || options_.max_candidates < 0) {
    return Status::InvalidArgument(
        "HolisticOptions::max_rounds is " +
        std::to_string(options_.max_rounds) + " and max_candidates is " +
        std::to_string(options_.max_candidates) +
        "; neither may be negative");
  }

  // The index maintains the violation set under cell probes/updates
  // (one bucket probe per candidate instead of a full table scan — see
  // dc/incremental.h); the conflict graph rides its deltas and the
  // column counts are patched on each write, so a round costs the
  // frontier evaluation, not a rescan of every violation and column.
  dc::ViolationIndex index(dirty, &dcs);
  ConflictGraph graph(index.table(), dcs, index.violations());
  std::map<std::size_t, ColumnCounts> column_counts;

  for (int round = 0; round < options_.max_rounds; ++round) {
    if (index.violations().empty()) break;

    // Evaluate each (frontier cell, context candidate) pair by the total
    // violations after placement; the frontier and the candidate lists
    // are value-ordered, so ties resolve deterministically.
    const std::size_t before = index.count();
    std::size_t best_count = before;
    CellRef best_cell{};
    Value best_value;
    bool found = false;
    for (const CellRef& cell : graph.Frontier()) {
      auto counts_it = column_counts.find(cell.col);
      if (counts_it == column_counts.end()) {
        counts_it = column_counts
                        .emplace(cell.col, CountColumn(index.table(), cell.col))
                        .first;
      }
      const std::vector<Value> candidates =
          ContextCandidates(index.table(), graph.ViolationsOf(cell),
                            counts_it->second, cell, options_.max_candidates);
      for (const Value& candidate : candidates) {
        const std::size_t count = index.CountIfSet(cell, candidate);
        if (count < best_count) {
          best_count = count;
          best_cell = cell;
          best_value = candidate;
          found = true;
        }
      }
    }

    if (!found) break;  // no rewrite strictly improves: stop
    // The chosen cell's column was counted when the frontier reached it;
    // candidates are never null.
    ColumnCounts& counts = column_counts.at(best_cell.col);
    if (const Value& old_value = index.table().at(best_cell);
        !old_value.is_null()) {
      auto old_it = counts.find(old_value);
      if (--old_it->second == 0) counts.erase(old_it);
    }
    ++counts[best_value];
    std::vector<dc::Violation> removed;
    std::vector<dc::Violation> added;
    index.SetCell(best_cell, best_value, &removed, &added);
    for (const dc::Violation& v : removed) graph.Remove(v);
    for (const dc::Violation& v : added) graph.Add(v);
  }
  return index.table();
}

}  // namespace trex::repair
