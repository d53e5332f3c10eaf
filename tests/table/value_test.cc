#include "table/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "table/table.h"

namespace trex {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(std::int64_t{42}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(std::string("abc")).is_string());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("x").as_string(), "x");
}

TEST(ValueDeathTest, WrongAccessorAborts) {
  EXPECT_DEATH(Value("x").as_int(), "Check failed");
  EXPECT_DEATH(Value(1).as_string(), "Check failed");
  EXPECT_DEATH(Value::Null().AsNumeric(), "Check failed");
}

TEST(ValueTest, NumericView) {
  EXPECT_DOUBLE_EQ(Value(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value(3.5).AsNumeric(), 3.5);
  EXPECT_TRUE(Value(3).is_numeric());
  EXPECT_TRUE(Value(3.5).is_numeric());
  EXPECT_FALSE(Value("3").is_numeric());
  EXPECT_FALSE(Value::Null().is_numeric());
}

TEST(ValueTest, IntDoubleCrossEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
  EXPECT_LT(Value(1), Value(1.5));
  EXPECT_GT(Value(2), Value(1.9));
}

TEST(ValueTest, CrossEqualValuesHashAlike) {
  EXPECT_EQ(Value(1).Hash(), Value(1.0).Hash());
}

TEST(ValueTest, NullEqualsNullStructurally) {
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, TotalOrderAcrossClasses) {
  // null < numeric < string.
  EXPECT_LT(Value::Null(), Value(-100));
  EXPECT_LT(Value(1000000), Value(""));
  EXPECT_LT(Value::Null(), Value("a"));
}

TEST(ValueTest, StringOrderIsBytewise) {
  EXPECT_LT(Value("Madrid"), Value("Paris"));
  EXPECT_LT(Value("A"), Value("a"));
}

TEST(ValueTest, SortingMixedVectorIsStablyOrdered) {
  std::vector<Value> values{Value("b"), Value(2), Value::Null(),
                            Value(1.5), Value("a"), Value(1)};
  std::sort(values.begin(), values.end());
  EXPECT_TRUE(values[0].is_null());
  EXPECT_EQ(values[1], Value(1));
  EXPECT_EQ(values[2], Value(1.5));
  EXPECT_EQ(values[3], Value(2));
  EXPECT_EQ(values[4], Value("a"));
  EXPECT_EQ(values[5], Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value("x").Hash(), Value("y").Hash());
  EXPECT_EQ(Value(5).Hash(), Value(5).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(-1).ToString(), "-1");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("España").ToString(), "España");
  EXPECT_EQ(Value::Null().ToString(), "∅");
}

TEST(ValueTest, ParseTyped) {
  EXPECT_EQ(*Value::Parse("42", ValueType::kInt), Value(42));
  EXPECT_EQ(*Value::Parse("2.5", ValueType::kDouble), Value(2.5));
  EXPECT_EQ(*Value::Parse("abc", ValueType::kString), Value("abc"));
  EXPECT_TRUE(Value::Parse("", ValueType::kInt)->is_null());
  EXPECT_TRUE(Value::Parse("  ", ValueType::kString)->is_null());
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("abc", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("x1", ValueType::kDouble).ok());
}

TEST(ValueTest, InferNarrowestType) {
  EXPECT_TRUE(Value::Infer("42").is_int());
  EXPECT_TRUE(Value::Infer("2.5").is_double());
  EXPECT_TRUE(Value::Infer("2.5x").is_string());
  EXPECT_TRUE(Value::Infer("Madrid").is_string());
  EXPECT_TRUE(Value::Infer("").is_null());
  EXPECT_TRUE(Value::Infer("  ").is_null());
}

TEST(ValueTest, InferKeepsOriginalStringBytes) {
  // Inference must not trim payload of string values.
  EXPECT_EQ(Value::Infer(" padded ").as_string(), " padded ");
}

TEST(ValueTest, ValueHashFunctorUsableInContainers) {
  std::unordered_map<Value, int, ValueHash> map;
  map[Value("a")] = 1;
  map[Value(2)] = 2;
  map[Value::Null()] = 3;
  EXPECT_EQ(map.at(Value("a")), 1);
  EXPECT_EQ(map.at(Value(2)), 2);
  EXPECT_EQ(map.at(Value::Null()), 3);
}

// `strtod` accepts "nan", so untrusted CSV cells can produce NaN; the
// order must stay a strict weak order and equal values must hash alike.
TEST(ValueTest, NanEqualsOnlyNanAndOrdersAfterNumerics) {
  const Value nan = Value::Infer("nan");
  ASSERT_TRUE(nan.is_double());
  const Value other_nan(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(nan, Value(1));
  EXPECT_NE(nan, Value(2.0));
  EXPECT_NE(Value(1), nan);
  EXPECT_EQ(nan, other_nan);
  EXPECT_EQ(nan.Compare(other_nan), 0);
  EXPECT_EQ(nan.Hash(), other_nan.Hash());
  EXPECT_LT(Value(1), nan);
  EXPECT_LT(Value(std::numeric_limits<double>::infinity()), nan);
  EXPECT_GT(nan, Value(std::numeric_limits<std::int64_t>::max()));
  EXPECT_LT(Value::Null(), nan);
  EXPECT_LT(nan, Value(""));

  std::map<Value, int> counts;
  for (const Value& v : {Value(1), nan, Value(2), other_nan, Value(1.0)}) {
    ++counts[v];
  }
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts.at(Value(1)), 2);
  EXPECT_EQ(counts.at(nan), 2);
  std::unordered_set<Value, ValueHash> set{nan, other_nan, Value(1)};
  EXPECT_EQ(set.size(), 2u);
}

// Past 2^53 an int is compared exactly, not rounded to a double, so the
// order stays transitive and equal values still hash alike.
TEST(ValueTest, LargeIntsCompareExactlyAgainstDoubles) {
  const std::int64_t two53 = std::int64_t{1} << 53;
  const Value exact(two53);
  const Value above(two53 + 1);
  const Value as_double(static_cast<double>(two53));
  EXPECT_EQ(exact, as_double);
  EXPECT_NE(above, as_double);
  EXPECT_GT(above, as_double);
  EXPECT_LT(as_double, above);
  EXPECT_EQ(exact.Hash(), as_double.Hash());
  const Value max(std::numeric_limits<std::int64_t>::max());
  const Value two63(9223372036854775808.0);
  EXPECT_LT(max, two63);
  EXPECT_GT(Value(std::numeric_limits<std::int64_t>::min()), Value(-1e19));
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::min()), Value(-0x1p63));
  EXPECT_LT(Value(2), Value(2.5));
  EXPECT_GT(Value(-2), Value(-2.5));
  EXPECT_LT(Value(-3), Value(-2.5));
}

TEST(ValueTest, HashParityWithFnvAndStdHash) {
  for (const std::string& text :
       {std::string(), std::string("Madrid"), std::string("a\0b", 3),
        std::string("\xff\xfe\x80"), std::string(300, 'q')}) {
    EXPECT_EQ(Value(text).Hash(), static_cast<std::size_t>(Fnv1a(text)))
        << text.size();
  }
  EXPECT_EQ(Value::Null().Hash(), std::size_t{0x9ae16a3b2f90404fULL});
  EXPECT_EQ(Value(7).Hash(), std::hash<double>{}(7.0));
  EXPECT_EQ(Value(-2.5).Hash(), std::hash<double>{}(-2.5));
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
  // Past 2^53 an int has no exact double and keeps its integer hash.
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  EXPECT_EQ(Value(big).Hash(), std::hash<std::int64_t>{}(big));
}

TEST(ValueTest, StringEqualityAndOrderAreBytewise) {
  const Value empty("");
  const Value nul(std::string("a\0b", 3));
  const Value a("a");
  const Value high(std::string("\xff"));
  EXPECT_TRUE(empty.is_string());
  EXPECT_NE(empty, Value::Null());
  EXPECT_EQ(empty, Value(std::string()));
  EXPECT_EQ(nul.as_string().size(), 3u);
  EXPECT_NE(nul, a);
  EXPECT_EQ(nul, Value(std::string("a\0b", 3)));
  EXPECT_LT(empty, a);
  EXPECT_LT(a, nul);  // a prefix orders first
  EXPECT_LT(nul, high);  // bytes compare unsigned: 0xff is last
  EXPECT_LT(a, high);
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_EQ(Value(3.0).Compare(Value(3)), 0);
  EXPECT_LT(Value(3), Value(3.5));
  EXPECT_GT(Value(-0.5), Value(-1));
  EXPECT_EQ(Value(0.0), Value(-0.0));
}

TEST(ValueTest, CopiesShareOneRecordAndAssignmentKeepsCounts) {
  const StringPoolStats before = Value::StringPool();
  {
    Value x("value_test_share");
    Value y = x;
    Value z("value_test_share");
    EXPECT_EQ(&x.as_string(), &y.as_string());
    EXPECT_EQ(&x.as_string(), &z.as_string());
    EXPECT_EQ(Value::StringPool().records, before.records + 1);
    y = Value(4);
    z = z;  // self-assignment keeps the record alive
    Value moved = std::move(x);
    EXPECT_EQ(moved.as_string(), "value_test_share");
    z = std::move(moved);
    EXPECT_EQ(z.as_string(), "value_test_share");
    EXPECT_EQ(Value::StringPool().records, before.records + 1);
  }
  EXPECT_EQ(Value::StringPool().records, before.records);
  EXPECT_EQ(Value::StringPool().bytes, before.bytes);
}

TEST(ValueTest, PoolReclaimsStringsWhenTablesDie) {
  const StringPoolStats before = Value::StringPool();
  constexpr int kRows = 200;
  std::size_t first_hash = 0;
  {
    Table table(Schema::AllStrings({"A", "B"}));
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(table
                      .AppendRow({Value("value_test_row_" + std::to_string(i)),
                                  Value("value_test_shared")})
                      .ok());
    }
    const StringPoolStats filled = Value::StringPool();
    EXPECT_EQ(filled.records, before.records + kRows + 1);
    EXPECT_GT(filled.bytes, before.bytes);
    first_hash = table.at(0, 0).Hash();
    const Table copy = table;  // shares every record
    EXPECT_EQ(Value::StringPool().records, filled.records);
    EXPECT_EQ(copy.at(0, 0), table.at(0, 0));

    // Table accounting charges a cell, not the shared text.
    Table long_text(Schema::AllStrings({"A", "B"}));
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(long_text
                      .AppendRow({Value(std::string(500, 'L') +
                                        std::to_string(i)),
                                  Value("value_test_shared")})
                      .ok());
    }
    EXPECT_EQ(long_text.ApproxMemoryBytes(), table.ApproxMemoryBytes());
  }
  EXPECT_EQ(Value::StringPool().records, before.records);
  EXPECT_EQ(Value::StringPool().bytes, before.bytes);

  // A reclaimed text re-interns as a fresh record with the same hash.
  const Value again("value_test_row_0");
  EXPECT_EQ(again.Hash(), first_hash);
  EXPECT_EQ(again.Hash(), static_cast<std::size_t>(Fnv1a("value_test_row_0")));
  EXPECT_EQ(Value::StringPool().records, before.records + 1);
}

// Threads race to intern, copy and drop the same texts (so records die
// and are re-created concurrently) and their own texts; run under the
// sanitizer builds, this is the pool's race and leak check.
TEST(ValueTest, ConcurrentInternCopyAndReleaseStress) {
  const StringPoolStats before = Value::StringPool();
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      std::vector<Value> held;
      for (int r = 0; r < kRounds; ++r) {
        const std::string shared = "value_test_hot_" + std::to_string(r % 8);
        Value a(shared);
        Value b = a;
        held.push_back(b);
        held.emplace_back("value_test_t" + std::to_string(t) + "_" +
                          std::to_string(r % 64));
        if (a != Value(shared) || a.Hash() != Fnv1a(shared)) ++mismatches;
        if (held.size() > 16) held.erase(held.begin(), held.begin() + 8);
        if (r % 5 == 0) held.clear();  // let shared records die
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Value::StringPool().records, before.records);
  EXPECT_EQ(Value::StringPool().bytes, before.bytes);
}

TEST(ValueTypeTest, Names) {
  EXPECT_STREQ(ValueTypeToString(ValueType::kNull), "null");
  EXPECT_STREQ(ValueTypeToString(ValueType::kInt), "int");
  EXPECT_STREQ(ValueTypeToString(ValueType::kDouble), "double");
  EXPECT_STREQ(ValueTypeToString(ValueType::kString), "string");
}

}  // namespace
}  // namespace trex
