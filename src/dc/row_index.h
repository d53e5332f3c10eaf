// Hash-bucketed per-row violation probing for one denial constraint.
//
// `dc::RowViolates` answers "does this row participate in a violation?"
// with a full table scan — O(n) per call. Repair inner loops (rule
// firing, HoloClean featurization, holistic candidate probes) ask that
// question per row or per candidate, turning every repair into O(n²) and
// making 100k-row worlds unreachable. `ConstraintRowIndex` is the same
// hash-partition idea `FindViolations` already uses, kept *resident and
// maintainable* while the table mutates: rows are bucketed by the
// constraint's cross-tuple equality columns once (O(n)), and a probe
// tests only the row's join-key bucket — O(bucket) instead of O(n).
//
// Exactness: a probe returns exactly what the nested-loop scan would.
// Cross-tuple equality on a null is false (see EvalOp in predicate.cc),
// so rows with null join keys are correctly unbucketed on that side —
// the same argument that makes `FindViolations`' hash fast path exact.
// Constraints with no cross-tuple equality predicate (and unary
// constraints) fall back to the scan, so the index is safe for any DC.
//
// ## What-if probes
//
// `RowViolatesIf` / `ViolationCountIf` answer "would `row` violate /
// how many violations would involve `row` if cell (row, col) held
// `value`?" without writing the table — the candidate-scoring question
// of HoloClean's featurization and holistic repair's candidate search.
// Callers use one API whatever the constraint's shape:
//
//   * O(1) shape — cross-tuple equalities plus exactly one cross-tuple
//     `t1.X != t2.Y` and nothing else (every FD; X may differ from Y).
//     Each join-key bucket keeps a histogram of its rows' residual
//     column (Y for the t2-keyed buckets, X for the t1-keyed ones):
//     value → count, plus the non-null count. The partners violating
//     (row, o) are then `bucket size − count[x]`, or the non-null count
//     when x is null (EvalOp's null semantics), minus the row's own
//     entry when it sits in the probed bucket — O(#key columns) hash
//     work per probe, no bucket scan.
//   * Any other shape (order comparisons, constants, single-tuple
//     predicates, no equality) evaluates the constraint with the one
//     cell overridden, over the row's hypothetical join-key buckets (or
//     the whole table without buckets) — O(bucket), still no write.
//
// The histograms are built lazily, on the first what-if probe, never in
// the constructor: callers that only ask `RowViolates` (rule firing
// builds one index per rule per pass on small tables) never pay for
// them. Once built, `Rekey` maintains them and `IsKeyColumn` also
// reports X and Y, so the mutation contract below keeps them exact.
//
// Mutation contract: the index reads the caller's table *live* — edits
// to columns for which `IsKeyColumn` is false are visible immediately.
// After changing a cell in a column for which it is true, the owner
// must call `Rekey(row)` before the next probe so the row moves to its
// new bucket (and its histogram entries follow). The index is not
// thread-safe: one owner probes and mutates it.

#ifndef TREX_DC_ROW_INDEX_H_
#define TREX_DC_ROW_INDEX_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dc/constraint.h"
#include "dc/violation.h"
#include "table/table.h"

namespace trex::dc {

/// Resident partner-probe index for one constraint over a mutating
/// table (see file comment). The table and constraint must outlive the
/// index.
class ConstraintRowIndex {
 public:
  ConstraintRowIndex(const Table* table, const DenialConstraint* dc);

  /// True iff `row` currently participates in a violation of the
  /// constraint (as either tuple variable) — bit-identical to
  /// `dc::RowViolates(table, dc, row)`, in O(bucket) for constraints
  /// with cross-tuple equalities.
  bool RowViolates(std::size_t row) const;

  /// Every current violation involving `row`, tagged `constraint_index`
  /// and normalized like `ViolationIndex` keeps them (`dedup` folds a
  /// symmetric constraint's ordered pair onto row1 < row2). May contain
  /// duplicates when both orientations violate; callers deduplicate by
  /// inserting into a set.
  std::vector<Violation> ViolationsOfRow(std::size_t row,
                                         std::size_t constraint_index,
                                         bool dedup) const;

  /// What-if `RowViolates`: the answer `RowViolates(row)` would give
  /// after writing `value` into (row, col) (and re-keying). The table is
  /// never written; the first call builds the histograms (see file
  /// comment), hence non-const.
  bool RowViolatesIf(std::size_t row, std::size_t col, const Value& value);

  /// What-if violation count: the number of distinct violations
  /// involving `row` — `ViolationsOfRow(row, c, dc.IsSymmetric())`
  /// deduplicated — after writing `value` into (row, col). Same
  /// no-write contract as `RowViolatesIf`.
  std::size_t ViolationCountIf(std::size_t row, std::size_t col,
                               const Value& value);

  /// True iff some predicate of the constraint reads `col` (of either
  /// tuple). A write to any other column changes no answer of this
  /// index, so what-if probes on such a column all answer alike.
  bool ReadsColumn(std::size_t col) const;

  /// True iff writes to `col` require `Rekey(row)`: the bucket-key
  /// columns, plus X and Y once the histograms exist.
  bool IsKeyColumn(std::size_t col) const;

  /// Re-buckets `row` from the table's current values (and moves its
  /// histogram entries, once built).
  void Rekey(std::size_t row);

  /// False when the constraint has no cross-tuple equality predicate
  /// (probes fall back to the O(n) scan).
  bool uses_buckets() const { return use_buckets_; }

  /// True when what-if probes take the O(1) histogram path (the
  /// constraint has the equality + single `!=` shape).
  bool uses_histograms() const { return residual_.has_value(); }

 private:
  struct Key {
    std::vector<Value> values;
    bool operator==(const Key& other) const;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  /// A bucket's residual-column histogram: value → rows holding it
  /// (nulls excluded), and the non-null total.
  struct Histogram {
    std::unordered_map<Value, std::size_t, ValueHash> counts;
    std::size_t non_null = 0;
  };
  /// One join-key bucket: its rows and, once built, their histogram
  /// (out of line, so index builds that never ask what-if stay lean).
  struct Bucket {
    std::vector<std::size_t> rows;
    std::unique_ptr<Histogram> histogram;

    void Add(const Value& v);
    void Drop(const Value& v);
    /// Rows whose residual value `r` satisfies `EvalOp(probe, !=, r)`.
    std::size_t CountNotEqual(const Value& probe) const;
  };
  using BucketMap = std::unordered_map<Key, Bucket, KeyHash>;

  /// The `t1.X != t2.Y` predicate's columns, for the O(1) shape.
  struct Residual {
    std::size_t x_col;
    std::size_t y_col;
  };

  /// Ordered-pair violation counts involving a row: forward pairs
  /// (row, o) and reverse pairs (o, row).
  struct PairCounts {
    std::size_t forward = 0;
    std::size_t reverse = 0;
  };

  /// The row's join key over `cols`, or nullopt when any key value is
  /// null (null never joins).
  std::optional<Key> KeyOf(std::size_t row,
                           const std::vector<std::size_t>& cols) const;
  /// The row's key over `cols` if (row, col) held `value`: `stored`
  /// itself when `col` is not among `cols`, else a key built in
  /// `*scratch`. Null when any key value would be null.
  const Key* KeyIf(std::size_t row, const std::vector<std::size_t>& cols,
                   const std::optional<Key>& stored, std::size_t col,
                   const Value& value, Key* scratch) const;
  /// Bucket upkeep; `residual` is the row's histogram entry, or null
  /// while the histograms are not built.
  static void Remove(BucketMap* buckets, const std::optional<Key>& key,
                     std::size_t row, const Value* residual);
  static void Insert(BucketMap* buckets, const std::optional<Key>& key,
                     std::size_t row, const Value* residual);

  /// Builds the residual histograms and caches the symmetry flag; no-op
  /// after the first call.
  void EnsureWhatIf();
  bool histograms_built() const {
    return what_if_ready_ && residual_.has_value();
  }
  /// The what-if pair counts; `stop_at_first` lets the scan path return
  /// as soon as one violation is found (counts are then lower bounds).
  PairCounts PairCountsIf(std::size_t row, std::size_t col,
                          const Value& value, bool stop_at_first);

  const Table* table_;
  const DenialConstraint* dc_;
  bool use_buckets_ = false;
  /// Columns of each tuple variable in the cross-tuple equality
  /// predicates (parallel vectors, one entry per such predicate).
  std::vector<std::size_t> t1_cols_;
  std::vector<std::size_t> t2_cols_;
  /// Set iff the constraint has the O(1) what-if shape.
  std::optional<Residual> residual_;
  /// Rows bucketed by their t2-side key — probed with a row's t1-side
  /// key to find partners `o` for ordered pairs (row, o) — and the
  /// mirror for pairs (o, row). Histograms: Y over `by_t2_key_`, X over
  /// `by_t1_key_`.
  BucketMap by_t2_key_;
  BucketMap by_t1_key_;
  /// Each row's current keys, for bucket removal on `Rekey`.
  std::vector<std::optional<Key>> t1_key_of_row_;
  std::vector<std::optional<Key>> t2_key_of_row_;
  /// Lazily built what-if state: whether histograms exist, each row's
  /// X/Y as recorded in them (for removal on `Rekey`), and the
  /// constraint's symmetry (pair-count dedup).
  bool what_if_ready_ = false;
  bool symmetric_ = false;
  std::vector<Value> x_of_row_;
  std::vector<Value> y_of_row_;
};

}  // namespace trex::dc

#endif  // TREX_DC_ROW_INDEX_H_
