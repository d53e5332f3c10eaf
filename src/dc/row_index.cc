#include "dc/row_index.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "dc/predicate.h"

namespace trex::dc {

bool ConstraintRowIndex::Key::operator==(const Key& other) const {
  if (values.size() != other.values.size()) return false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != other.values[i]) return false;
  }
  return true;
}

std::size_t ConstraintRowIndex::KeyHash::operator()(const Key& key) const {
  std::size_t h = 0x811c9dc5;
  for (const Value& v : key.values) h = HashCombine(h, v.Hash());
  return h;
}

namespace {

/// `dc` evaluated on (row1, row2) as if cell (row, col) held `value` —
/// `DenialConstraint::IsViolatedBy` over an overlay of the one cell.
bool ViolatedIf(const Table& table, const DenialConstraint& dc,
                std::size_t row1, std::size_t row2, std::size_t row,
                std::size_t col, const Value& value) {
  const auto resolve = [&](const Operand& operand) -> const Value& {
    if (operand.is_constant()) return operand.constant();
    const std::size_t r = operand.tuple_index() == 0 ? row1 : row2;
    return r == row && operand.col() == col ? value
                                            : table.at(r, operand.col());
  };
  for (const Predicate& p : dc.predicates()) {
    if (!EvalOp(resolve(p.lhs), p.op, resolve(p.rhs))) return false;
  }
  return true;
}

}  // namespace

void ConstraintRowIndex::Bucket::Add(const Value& v) {
  if (histogram == nullptr) histogram = std::make_unique<Histogram>();
  if (v.is_null()) return;
  ++histogram->counts[v];
  ++histogram->non_null;
}

void ConstraintRowIndex::Bucket::Drop(const Value& v) {
  if (v.is_null()) return;
  auto it = histogram->counts.find(v);
  TREX_CHECK(it != histogram->counts.end());
  if (--it->second == 0) histogram->counts.erase(it);
  --histogram->non_null;
}

std::size_t ConstraintRowIndex::Bucket::CountNotEqual(
    const Value& probe) const {
  // EvalOp: null != r holds exactly for non-null r; a concrete probe is
  // unequal to every null and to every value but its own.
  if (probe.is_null()) return histogram->non_null;
  auto it = histogram->counts.find(probe);
  return rows.size() - (it == histogram->counts.end() ? 0 : it->second);
}

ConstraintRowIndex::ConstraintRowIndex(const Table* table,
                                       const DenialConstraint* dc)
    : table_(table), dc_(dc) {
  TREX_CHECK(table_ != nullptr);
  TREX_CHECK(dc_ != nullptr);
  if (dc_->arity() != 2) return;
  // The same join-key convention as the detector's hash fast path —
  // shared extraction keeps probe and detector agreeing on what joins.
  CrossTupleKeyColumns cols = CrossTupleEqualityColumns(*dc_);
  t1_cols_ = std::move(cols.t1_cols);
  t2_cols_ = std::move(cols.t2_cols);
  if (t1_cols_.empty()) return;
  use_buckets_ = true;

  // The O(1) what-if shape: apart from the equalities, exactly one
  // cross-tuple `!=` between cells.
  for (const Predicate& p : dc_->predicates()) {
    if (p.IsCrossTupleEquality()) continue;
    const bool cross_neq = p.op == CompareOp::kNeq && p.lhs.is_cell() &&
                           p.rhs.is_cell() &&
                           p.lhs.tuple_index() != p.rhs.tuple_index();
    if (!cross_neq || residual_.has_value()) {
      residual_.reset();
      break;
    }
    const bool lhs_is_t1 = p.lhs.tuple_index() == 0;
    residual_ = Residual{(lhs_is_t1 ? p.lhs : p.rhs).col(),
                         (lhs_is_t1 ? p.rhs : p.lhs).col()};
  }

  const std::size_t n = table_->num_rows();
  t1_key_of_row_.resize(n);
  t2_key_of_row_.resize(n);
  by_t2_key_.reserve(n);
  by_t1_key_.reserve(n);
  for (std::size_t row = 0; row < n; ++row) {
    t1_key_of_row_[row] = KeyOf(row, t1_cols_);
    t2_key_of_row_[row] = KeyOf(row, t2_cols_);
    Insert(&by_t1_key_, t1_key_of_row_[row], row, nullptr);
    Insert(&by_t2_key_, t2_key_of_row_[row], row, nullptr);
  }
}

std::optional<ConstraintRowIndex::Key> ConstraintRowIndex::KeyOf(
    std::size_t row, const std::vector<std::size_t>& cols) const {
  Key key;
  key.values.reserve(cols.size());
  for (std::size_t col : cols) {
    const Value& v = table_->at(row, col);
    if (v.is_null()) return std::nullopt;  // null never joins
    key.values.push_back(v);
  }
  return key;
}

const ConstraintRowIndex::Key* ConstraintRowIndex::KeyIf(
    std::size_t row, const std::vector<std::size_t>& cols,
    const std::optional<Key>& stored, std::size_t col, const Value& value,
    Key* scratch) const {
  if (std::find(cols.begin(), cols.end(), col) == cols.end()) {
    return stored.has_value() ? &*stored : nullptr;
  }
  scratch->values.clear();
  for (std::size_t c : cols) {
    const Value& v = c == col ? value : table_->at(row, c);
    if (v.is_null()) return nullptr;  // null never joins
    scratch->values.push_back(v);
  }
  return scratch;
}

void ConstraintRowIndex::Remove(BucketMap* buckets,
                                const std::optional<Key>& key,
                                std::size_t row, const Value* residual) {
  if (!key.has_value()) return;
  auto it = buckets->find(*key);
  if (it == buckets->end()) return;
  auto& rows = it->second.rows;
  rows.erase(std::remove(rows.begin(), rows.end(), row), rows.end());
  if (residual != nullptr) it->second.Drop(*residual);
  if (rows.empty()) buckets->erase(it);
}

void ConstraintRowIndex::Insert(BucketMap* buckets,
                                const std::optional<Key>& key,
                                std::size_t row, const Value* residual) {
  if (!key.has_value()) return;
  Bucket& bucket = (*buckets)[*key];
  bucket.rows.push_back(row);
  if (residual != nullptr) bucket.Add(*residual);
}

bool ConstraintRowIndex::ReadsColumn(std::size_t col) const {
  for (const Predicate& p : dc_->predicates()) {
    if ((p.lhs.is_cell() && p.lhs.col() == col) ||
        (p.rhs.is_cell() && p.rhs.col() == col)) {
      return true;
    }
  }
  return false;
}

bool ConstraintRowIndex::IsKeyColumn(std::size_t col) const {
  if (!use_buckets_) return false;
  if (histograms_built() &&
      (col == residual_->x_col || col == residual_->y_col)) {
    return true;
  }
  return std::find(t1_cols_.begin(), t1_cols_.end(), col) !=
             t1_cols_.end() ||
         std::find(t2_cols_.begin(), t2_cols_.end(), col) != t2_cols_.end();
}

void ConstraintRowIndex::Rekey(std::size_t row) {
  if (!use_buckets_) return;
  TREX_CHECK_LT(row, t1_key_of_row_.size());
  const bool histograms = histograms_built();
  Remove(&by_t1_key_, t1_key_of_row_[row], row,
         histograms ? &x_of_row_[row] : nullptr);
  Remove(&by_t2_key_, t2_key_of_row_[row], row,
         histograms ? &y_of_row_[row] : nullptr);
  t1_key_of_row_[row] = KeyOf(row, t1_cols_);
  t2_key_of_row_[row] = KeyOf(row, t2_cols_);
  if (histograms) {
    x_of_row_[row] = table_->at(row, residual_->x_col);
    y_of_row_[row] = table_->at(row, residual_->y_col);
  }
  Insert(&by_t1_key_, t1_key_of_row_[row], row,
         histograms ? &x_of_row_[row] : nullptr);
  Insert(&by_t2_key_, t2_key_of_row_[row], row,
         histograms ? &y_of_row_[row] : nullptr);
}

void ConstraintRowIndex::EnsureWhatIf() {
  if (what_if_ready_) return;
  what_if_ready_ = true;
  symmetric_ = dc_->IsSymmetric();
  if (!residual_.has_value()) return;
  const std::size_t n = table_->num_rows();
  x_of_row_.resize(n);
  y_of_row_.resize(n);
  for (std::size_t row = 0; row < n; ++row) {
    x_of_row_[row] = table_->at(row, residual_->x_col);
    y_of_row_[row] = table_->at(row, residual_->y_col);
    if (const auto& key = t1_key_of_row_[row]; key.has_value()) {
      by_t1_key_.find(*key)->second.Add(x_of_row_[row]);
    }
    if (const auto& key = t2_key_of_row_[row]; key.has_value()) {
      by_t2_key_.find(*key)->second.Add(y_of_row_[row]);
    }
  }
}

ConstraintRowIndex::PairCounts ConstraintRowIndex::PairCountsIf(
    std::size_t row, std::size_t col, const Value& value,
    bool stop_at_first) {
  EnsureWhatIf();
  PairCounts counts;
  if (dc_->arity() == 1) {
    counts.forward =
        ViolatedIf(*table_, *dc_, row, row, row, col, value) ? 1 : 0;
    return counts;
  }
  if (!use_buckets_) {
    for (std::size_t other = 0; other < table_->num_rows(); ++other) {
      if (other == row) continue;
      if (ViolatedIf(*table_, *dc_, row, other, row, col, value)) {
        ++counts.forward;
      }
      if (ViolatedIf(*table_, *dc_, other, row, row, col, value)) {
        ++counts.reverse;
      }
      if (stop_at_first && counts.forward + counts.reverse > 0) break;
    }
    return counts;
  }
  const auto value_if = [&](std::size_t c) -> const Value& {
    return c == col ? value : table_->at(row, c);
  };
  Key scratch;
  // Forward pairs (row, o): partners are the rows whose t2-side key
  // matches the row's hypothetical t1-side key.
  if (const Key* key = KeyIf(row, t1_cols_, t1_key_of_row_[row], col, value,
                             &scratch)) {
    if (auto it = by_t2_key_.find(*key); it != by_t2_key_.end()) {
      const Bucket& bucket = it->second;
      if (residual_.has_value()) {
        const Value& x = value_if(residual_->x_col);
        counts.forward = bucket.CountNotEqual(x);
        // The row's own histogram entry is not a partner.
        if (t2_key_of_row_[row].has_value() && *t2_key_of_row_[row] == *key &&
            EvalOp(x, CompareOp::kNeq, y_of_row_[row])) {
          --counts.forward;
        }
      } else {
        for (std::size_t other : bucket.rows) {
          if (other == row) continue;
          if (!ViolatedIf(*table_, *dc_, row, other, row, col, value)) {
            continue;
          }
          ++counts.forward;
          if (stop_at_first) return counts;
        }
      }
    }
  }
  if (stop_at_first && counts.forward > 0) return counts;
  // ...and the mirror for reverse pairs (o, row).
  if (const Key* key = KeyIf(row, t2_cols_, t2_key_of_row_[row], col, value,
                             &scratch)) {
    if (auto it = by_t1_key_.find(*key); it != by_t1_key_.end()) {
      const Bucket& bucket = it->second;
      if (residual_.has_value()) {
        const Value& y = value_if(residual_->y_col);
        counts.reverse = bucket.CountNotEqual(y);
        if (t1_key_of_row_[row].has_value() && *t1_key_of_row_[row] == *key &&
            EvalOp(x_of_row_[row], CompareOp::kNeq, y)) {
          --counts.reverse;
        }
      } else {
        for (std::size_t other : bucket.rows) {
          if (other == row) continue;
          if (!ViolatedIf(*table_, *dc_, other, row, row, col, value)) {
            continue;
          }
          ++counts.reverse;
          if (stop_at_first) return counts;
        }
      }
    }
  }
  return counts;
}

bool ConstraintRowIndex::RowViolatesIf(std::size_t row, std::size_t col,
                                       const Value& value) {
  const PairCounts counts = PairCountsIf(row, col, value, true);
  return counts.forward + counts.reverse > 0;
}

std::size_t ConstraintRowIndex::ViolationCountIf(std::size_t row,
                                                 std::size_t col,
                                                 const Value& value) {
  const PairCounts counts = PairCountsIf(row, col, value, false);
  // A symmetric constraint's (row, o) and (o, row) fold onto one
  // violation, and each orientation violates iff the other does.
  return symmetric_ ? counts.forward : counts.forward + counts.reverse;
}

bool ConstraintRowIndex::RowViolates(std::size_t row) const {
  if (dc_->arity() == 1) return dc_->IsViolatedBy(*table_, row, row);
  if (!use_buckets_) {
    for (std::size_t other = 0; other < table_->num_rows(); ++other) {
      if (other == row) continue;
      if (dc_->IsViolatedBy(*table_, row, other) ||
          dc_->IsViolatedBy(*table_, other, row)) {
        return true;
      }
    }
    return false;
  }
  // Partners for ordered pairs (row, other): rows whose t2-side key
  // matches this row's t1-side key.
  if (const auto& key = t1_key_of_row_[row]; key.has_value()) {
    if (auto it = by_t2_key_.find(*key); it != by_t2_key_.end()) {
      for (std::size_t other : it->second.rows) {
        if (other == row) continue;
        if (dc_->IsViolatedBy(*table_, row, other)) return true;
      }
    }
  }
  // ...and the mirror for ordered pairs (other, row).
  if (const auto& key = t2_key_of_row_[row]; key.has_value()) {
    if (auto it = by_t1_key_.find(*key); it != by_t1_key_.end()) {
      for (std::size_t other : it->second.rows) {
        if (other == row) continue;
        if (dc_->IsViolatedBy(*table_, other, row)) return true;
      }
    }
  }
  return false;
}

std::vector<Violation> ConstraintRowIndex::ViolationsOfRow(
    std::size_t row, std::size_t constraint_index, bool dedup) const {
  std::vector<Violation> out;
  if (dc_->arity() == 1) {
    if (dc_->IsViolatedBy(*table_, row, row)) {
      out.push_back(Violation{constraint_index, row, row});
    }
    return out;
  }
  const auto emit_forward = [&](std::size_t other) {
    if (dc_->IsViolatedBy(*table_, row, other)) {
      Violation v{constraint_index, row, other};
      if (dedup && other < row) v = Violation{constraint_index, other, row};
      out.push_back(v);
    }
  };
  const auto emit_reverse = [&](std::size_t other) {
    if (dc_->IsViolatedBy(*table_, other, row)) {
      Violation v{constraint_index, other, row};
      if (dedup && row < other) v = Violation{constraint_index, row, other};
      out.push_back(v);
    }
  };
  if (!use_buckets_) {
    for (std::size_t other = 0; other < table_->num_rows(); ++other) {
      if (other == row) continue;
      emit_forward(other);
      emit_reverse(other);
    }
    return out;
  }
  if (const auto& key = t1_key_of_row_[row]; key.has_value()) {
    if (auto it = by_t2_key_.find(*key); it != by_t2_key_.end()) {
      for (std::size_t other : it->second.rows) {
        if (other != row) emit_forward(other);
      }
    }
  }
  if (const auto& key = t2_key_of_row_[row]; key.has_value()) {
    if (auto it = by_t1_key_.find(*key); it != by_t1_key_.end()) {
      for (std::size_t other : it->second.rows) {
        if (other != row) emit_reverse(other);
      }
    }
  }
  return out;
}

}  // namespace trex::dc
