#include "table/value.h"

#include <cmath>
#include <functional>
#include <ostream>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/string_util.h"

namespace trex {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

namespace {

/// Intern-pool key: a view of a live record's text plus its cached hash.
struct PoolKey {
  std::string_view text;
  std::uint64_t hash;
};
struct PoolKeyHash {
  std::size_t operator()(const PoolKey& key) const {
    return static_cast<std::size_t>(key.hash);
  }
};
struct PoolKeyEq {
  bool operator()(const PoolKey& a, const PoolKey& b) const {
    return a.text == b.text;
  }
};

// Orders doubles totally: numerically, with every NaN equal to every
// other NaN and after every non-NaN.
int CompareDoubles(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Orders an int against a double exactly (no rounding of `i` to double,
// which would equate 2^53 + 1 with 2^53 and break transitivity), with
// NaN after every int.
int CompareIntDouble(std::int64_t i, double d) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(d) || d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  // `d` is in int64 range; its truncation is exact as a double too.
  const auto t = static_cast<std::int64_t>(d);
  if (i != t) return i < t ? -1 : 1;
  const double whole = static_cast<double>(t);
  return d > whole ? -1 : (d < whole ? 1 : 0);
}

}  // namespace

// A record is in `records` from its creation until its count reaches
// zero; its key views the record's own text. `Intern` revives no record:
// it takes a reference only while the count is non-zero, and replaces a
// dying (zero-count) entry with a fresh record. The releaser that took
// the count to zero erases the entry only if it still maps to its own
// record, then frees it, so every record a key views is alive.
class Value::InternPool {
 public:
  static std::size_t RecordBytes(const StringRecord& record) {
    return sizeof(StringRecord) + record.text.capacity();
  }

  Mutex mu;
  std::unordered_map<PoolKey, StringRecord*, PoolKeyHash, PoolKeyEq> records
      GUARDED_BY(mu);
  StringPoolStats live GUARDED_BY(mu);
};

Value::InternPool& Value::Pool() {
  // Never destroyed: values in static storage may die after it would.
  static InternPool* pool = new InternPool;
  return *pool;
}

const Value::StringRecord* Value::Intern(std::string_view text) {
  const std::uint64_t hash = Fnv1a(text);
  InternPool& pool = Pool();
  MutexLock lock(pool.mu);
  const auto it = pool.records.find(PoolKey{text, hash});
  if (it != pool.records.end()) {
    StringRecord* found = it->second;
    std::uint64_t refs = found->refs.load(std::memory_order_relaxed);
    while (refs != 0) {
      if (found->refs.compare_exchange_weak(refs, refs + 1,
                                            std::memory_order_relaxed)) {
        return found;
      }
    }
    pool.records.erase(it);  // dying: its releaser frees it
  }
  auto* record = new StringRecord{hash, {1}, std::string(text)};
  pool.records.emplace(PoolKey{record->text, hash}, record);
  ++pool.live.records;
  pool.live.bytes += InternPool::RecordBytes(*record);
  return record;
}

void Value::Reclaim(const StringRecord* record) {
  InternPool& pool = Pool();
  {
    MutexLock lock(pool.mu);
    const auto it = pool.records.find(PoolKey{record->text, record->hash});
    if (it != pool.records.end() && it->second == record) {
      pool.records.erase(it);
    }
    --pool.live.records;
    pool.live.bytes -= InternPool::RecordBytes(*record);
  }
  delete record;
}

StringPoolStats Value::StringPool() {
  InternPool& pool = Pool();
  MutexLock lock(pool.mu);
  return pool.live;
}

std::int64_t Value::as_int() const {
  TREX_CHECK(is_int()) << "Value is " << ValueTypeToString(type());
  return payload_.int_v;
}

double Value::as_double() const {
  TREX_CHECK(is_double()) << "Value is " << ValueTypeToString(type());
  return payload_.double_v;
}

const std::string& Value::as_string() const {
  TREX_CHECK(is_string()) << "Value is " << ValueTypeToString(type());
  return payload_.string_v->text;
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(payload_.int_v);
  if (is_double()) return payload_.double_v;
  TREX_CHECK(false) << "Value is not numeric: " << ToString();
  return 0;
}

int Value::Compare(const Value& other) const {
  if (type_ == other.type_) {
    switch (type_) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt: {
        const std::int64_t a = payload_.int_v;
        const std::int64_t b = other.payload_.int_v;
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      case ValueType::kDouble:
        return CompareDoubles(payload_.double_v, other.payload_.double_v);
      case ValueType::kString: {
        if (payload_.string_v == other.payload_.string_v) return 0;
        const int c = payload_.string_v->text.compare(
            other.payload_.string_v->text);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
    }
  }
  // Mixed int/double compare numerically.
  if (is_numeric() && other.is_numeric()) {
    if (is_int()) {
      return CompareIntDouble(payload_.int_v, other.payload_.double_v);
    }
    return -CompareIntDouble(other.payload_.int_v, payload_.double_v);
  }
  // Order classes: null(0) < numeric(1) < string(2).
  auto cls = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  return cls(*this) < cls(other) ? -1 : 1;
}

std::size_t Value::ScalarHash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kInt: {
      // Hash via the double representation when it is exact, so that
      // Value(1) and Value(1.0) — which compare equal — hash alike. An
      // int with no exact double equals no double. (2^63 is the one
      // rounded value outside int64 range.)
      const std::int64_t v = payload_.int_v;
      const double d = static_cast<double>(v);
      if (d != 9223372036854775808.0 && static_cast<std::int64_t>(d) == v) {
        return std::hash<double>{}(d);
      }
      return std::hash<std::int64_t>{}(v);
    }
    case ValueType::kDouble:
      // One hash for every NaN payload, since every NaN is equal.
      if (std::isnan(payload_.double_v)) return 0x7ff8b4a1c3e5d2f1ULL;
      return std::hash<double>{}(payload_.double_v);
    case ValueType::kString:
      return static_cast<std::size_t>(payload_.string_v->hash);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "∅";
    case ValueType::kInt:
      return std::to_string(payload_.int_v);
    case ValueType::kDouble:
      return FormatDouble(payload_.double_v);
    case ValueType::kString:
      return payload_.string_v->text;
  }
  return "?";
}

Result<Value> Value::Parse(std::string_view text, ValueType type) {
  const std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      TREX_ASSIGN_OR_RETURN(std::int64_t v, ParseInt64(trimmed));
      return Value(v);
    }
    case ValueType::kDouble: {
      TREX_ASSIGN_OR_RETURN(double v, ParseDouble(trimmed));
      return Value(v);
    }
    case ValueType::kString:
      return Value(text);
  }
  return Status::InvalidArgument("unknown value type");
}

Value Value::Infer(std::string_view text) {
  const std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return Value::Null();
  if (LooksLikeInt(trimmed)) {
    auto parsed = ParseInt64(trimmed);
    if (parsed.ok()) return Value(*parsed);
  }
  if (LooksLikeDouble(trimmed)) {
    auto parsed = ParseDouble(trimmed);
    if (parsed.ok()) return Value(*parsed);
  }
  return Value(text);
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace trex
