// `Value`: the dynamically-typed cell value used throughout T-REx.
//
// A value is null, a 64-bit integer, a double, or a string. Nulls are
// first-class because the Shapley cell game (paper §2.2) removes cells from
// a coalition by setting them to null; predicate evaluation gives nulls
// SQL-style semantics (see dc/predicate.h) while `Value` itself provides
// plain structural equality so values can live in hash maps.

#ifndef TREX_TABLE_VALUE_H_
#define TREX_TABLE_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"

namespace trex {

/// The runtime type of a `Value`.
enum class ValueType : std::uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

/// Returns "null", "int", "double", or "string".
const char* ValueTypeToString(ValueType type);

/// Live contents of the process-wide string intern pool.
struct StringPoolStats {
  std::size_t records = 0;  ///< interned strings currently alive
  std::size_t bytes = 0;    ///< their record and text heap bytes
};

/// A single table cell value: 16 bytes, immutable once constructed.
///
/// Numeric payloads are stored inline. A string payload is a pointer to
/// an immutable, refcounted record `{fnv1a_hash, text, refs}` in one
/// process-wide intern pool, so every live copy of equal text shares one
/// record: copying a string value is a reference-count increment, string
/// equality is a pointer compare, and `Hash()` is a load of the cached
/// FNV-1a of the bytes. The pool drops a record when its last value dies
/// (so it stays bounded by the strings alive, even on untrusted input);
/// re-interning the same text later makes a fresh record with the same
/// hash. Values may be created, copied and destroyed on any thread.
class Value {
 public:
  /// Constructs a null value.
  Value() noexcept : payload_{.int_v = 0}, type_(ValueType::kNull) {}

  /// Typed constructors (implicit on purpose — literals read naturally in
  /// row builders: `table.AppendRow({"Real Madrid", 2017, 1})`).
  Value(std::int64_t v)  // NOLINT(runtime/explicit)
      : payload_{.int_v = v}, type_(ValueType::kInt) {}
  Value(int v)  // NOLINT(runtime/explicit)
      : payload_{.int_v = v}, type_(ValueType::kInt) {}
  Value(double v)  // NOLINT(runtime/explicit)
      : payload_{.double_v = v}, type_(ValueType::kDouble) {}
  Value(std::string_view v)  // NOLINT(runtime/explicit)
      : payload_{.string_v = Intern(v)}, type_(ValueType::kString) {}
  Value(const std::string& v)  // NOLINT(runtime/explicit)
      : Value(std::string_view(v)) {}
  Value(const char* v)  // NOLINT(runtime/explicit)
      : Value(std::string_view(v)) {}

  Value(const Value& other) noexcept
      : payload_(other.payload_), type_(other.type_) {
    if (is_string()) Retain(payload_.string_v);
  }
  Value(Value&& other) noexcept
      : payload_(other.payload_), type_(other.type_) {
    other.type_ = ValueType::kNull;
  }
  Value& operator=(const Value& other) noexcept {
    if (this != &other) {
      if (other.is_string()) Retain(other.payload_.string_v);
      if (is_string()) Release(payload_.string_v);
      payload_ = other.payload_;
      type_ = other.type_;
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (is_string()) Release(payload_.string_v);
      payload_ = other.payload_;
      type_ = other.type_;
      other.type_ = ValueType::kNull;
    }
    return *this;
  }
  ~Value() {
    if (is_string()) Release(payload_.string_v);
  }

  /// Named constructor for the null value.
  static Value Null() { return Value(); }

  /// The runtime type tag.
  ValueType type() const { return type_; }

  /// True iff this is the null value.
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Typed accessors; calling the wrong one aborts (programmer error).
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Numeric view: ints widen to double. Must be numeric.
  double AsNumeric() const;

  /// Structural equality. Null equals null; `1` (int) equals `1.0`
  /// (double) numerically; NaN equals only NaN; strings compare bytewise
  /// (equal text shares one interned record, so this is a pointer
  /// compare).
  bool operator==(const Value& other) const {
    if (type_ != other.type_) {
      return is_numeric() && other.is_numeric() && Compare(other) == 0;
    }
    switch (type_) {
      case ValueType::kNull:
        return true;
      case ValueType::kInt:
        return payload_.int_v == other.payload_.int_v;
      case ValueType::kString:
        return payload_.string_v == other.payload_.string_v;
      case ValueType::kDouble: {
        const double a = payload_.double_v;
        const double b = other.payload_.double_v;
        return a == b || (a != a && b != b);  // NaN equals only NaN
      }
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Total order: null < numerics (ordered by exact numeric value, NaN
  /// after every other numeric) < strings (ordered bytewise). Returns
  /// <0, 0, >0.
  int Compare(const Value& other) const;

  /// Hash consistent with operator== (ints and equal-valued doubles hash
  /// alike, every NaN hashes alike). A string's hash is the FNV-1a of its
  /// bytes, computed once when the text is interned.
  std::size_t Hash() const {
    if (is_string()) {
      return static_cast<std::size_t>(payload_.string_v->hash);
    }
    return ScalarHash();
  }

  /// Renders the value: "∅" for null, decimal for numerics, raw bytes for
  /// strings.
  std::string ToString() const;

  /// Parses `text` as the given type; empty text parses to null.
  [[nodiscard]] static Result<Value> Parse(std::string_view text, ValueType type);

  /// Infers the narrowest type (int, then double, then string) and parses.
  static Value Infer(std::string_view text);

  /// The intern pool's live records and bytes (for tests and
  /// diagnostics).
  static StringPoolStats StringPool();

 private:
  /// One interned string. `hash` and `text` never change after the
  /// record is published; `refs` counts the values pointing at it.
  struct StringRecord {
    std::uint64_t hash;
    mutable std::atomic<std::uint64_t> refs;
    std::string text;
  };

  /// Returns `text`'s live record with one reference taken for the
  /// caller, creating it if no live record holds that text.
  static const StringRecord* Intern(std::string_view text);
  static void Retain(const StringRecord* record) {
    record->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Release(const StringRecord* record) {
    if (record->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Reclaim(record);
    }
  }
  /// Drops a record whose count reached zero from the pool and frees it.
  static void Reclaim(const StringRecord* record);

  /// The process-wide pool: text -> live record, under one mutex.
  class InternPool;
  static InternPool& Pool();

  std::size_t ScalarHash() const;

  union Payload {
    std::int64_t int_v;
    double double_v;
    const StringRecord* string_v;
  };

  Payload payload_;
  ValueType type_;
};

static_assert(sizeof(Value) == 16, "Value is a 16-byte tagged union");

std::ostream& operator<<(std::ostream& os, const Value& value);

/// std::hash adapter so `Value` can key unordered containers.
struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace trex

#endif  // TREX_TABLE_VALUE_H_
