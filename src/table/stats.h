// Column and joint-column statistics over a table.
//
// These power both the repair substrates (Algorithm 1's
// `argmax_c P[City = c]`, HoloClean-style priors/co-occurrence features)
// and the Shapley sampler's "replace with a sample value from their column
// distribution" step (paper Example 2.5). Null cells are excluded from all
// counts, matching SQL aggregate semantics.

#ifndef TREX_TABLE_STATS_H_
#define TREX_TABLE_STATS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "table/table.h"

namespace trex {

/// Empirical distribution of one column (nulls excluded).
class ColumnStats {
 public:
  ColumnStats() = default;

  /// Builds the distribution of column `col` of `table`.
  static ColumnStats Build(const Table& table, std::size_t col);

  /// Number of non-null observations.
  std::size_t total() const { return total_; }

  /// Number of distinct non-null values.
  std::size_t num_distinct() const { return counts_.size(); }

  /// Occurrences of `value` (0 when unseen).
  std::size_t Count(const Value& value) const;

  /// Empirical probability of `value`; 0 when the column is all-null.
  double Probability(const Value& value) const;

  /// The most frequent value; ties break toward the smallest value under
  /// `Value::Compare` so the result is deterministic. Empty optional when
  /// the column has no non-null values.
  std::optional<Value> MostCommon() const;

  /// Distinct values sorted ascending (deterministic iteration order for
  /// candidate domains).
  std::vector<Value> DistinctSorted() const;

  /// Draws a value from the empirical distribution. The column must have
  /// at least one non-null value.
  Value Sample(Rng* rng) const;

 private:
  std::unordered_map<Value, std::size_t, ValueHash> counts_;
  // Parallel arrays for O(1) weighted sampling (values in first-seen
  // order with cumulative counts).
  std::vector<Value> sample_values_;
  std::vector<std::size_t> sample_cumulative_;
  std::size_t total_ = 0;
};

/// Conditional distribution P[target | cond]: for each observed value of
/// the conditioning column, the distribution of the target column among
/// co-occurring rows (rows where either side is null are excluded).
class JointStats {
 public:
  JointStats() = default;

  /// Builds P[`target_col` | `cond_col`] over `table`.
  static JointStats Build(const Table& table, std::size_t cond_col,
                          std::size_t target_col);

  /// Most frequent target value among rows whose conditioning column
  /// equals `cond_value` (deterministic tie-break). Empty when the
  /// conditioning value was never observed.
  std::optional<Value> MostCommonGiven(const Value& cond_value) const;

  /// Empirical P[target = `target_value` | cond = `cond_value`]; 0 when
  /// the conditioning value is unseen.
  double ProbabilityGiven(const Value& cond_value,
                          const Value& target_value) const;

  /// Number of rows observed for `cond_value`.
  std::size_t CountGiven(const Value& cond_value) const;

  /// Distinct target values co-occurring with `cond_value`, sorted.
  std::vector<Value> TargetsGiven(const Value& cond_value) const;

 private:
  std::unordered_map<Value, ColumnStats, ValueHash> per_cond_;
  friend class TableStats;
};

/// Cache of column and pairwise statistics for one table, built lazily
/// through the non-const lookups or all at once by `BuildAll`; lookups
/// after the first are O(1).
///
/// Thread safety: the non-const lookups may insert and need exclusive
/// access. After `BuildAll`, the const lookups never build, so any
/// number of threads may read one `const TableStats` concurrently.
class TableStats {
 public:
  explicit TableStats(const Table* table) : table_(table) {}

  /// Stats of column `col` (built on first use).
  const ColumnStats& Column(std::size_t col);

  /// Conditional stats P[target|cond] (built on first use).
  const JointStats& Joint(std::size_t cond_col, std::size_t target_col);

  /// Builds every column and every ordered pair of distinct columns.
  void BuildAll();

  /// Read-only lookups; the stats must already be built (e.g. by
  /// `BuildAll`), otherwise a fatal error.
  const ColumnStats& Column(std::size_t col) const;
  const JointStats& Joint(std::size_t cond_col, std::size_t target_col) const;

 private:
  const Table* table_;
  std::unordered_map<std::size_t, ColumnStats> columns_;
  std::unordered_map<std::uint64_t, JointStats> joints_;
};

}  // namespace trex

#endif  // TREX_TABLE_STATS_H_
