#include "dc/row_index.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "dc/violation.h"

namespace trex::dc {
namespace {

/// Probe answers must be bit-identical to the nested-loop scan for
/// every row and constraint.
void ExpectMatchesScan(const Table& table, const DcSet& dcs) {
  for (std::size_t c = 0; c < dcs.size(); ++c) {
    const DenialConstraint& dc = dcs.at(c);
    ConstraintRowIndex index(&table, &dc);
    for (std::size_t row = 0; row < table.num_rows(); ++row) {
      EXPECT_EQ(index.RowViolates(row), RowViolates(table, dc, row))
          << dc.name() << " row " << row;
    }
  }
}

TEST(ConstraintRowIndexTest, MatchesScanOnPaperTable) {
  ExpectMatchesScan(data::SoccerDirtyTable(), data::SoccerConstraints());
}

TEST(ConstraintRowIndexTest, MatchesScanOnDirtySyntheticWorld) {
  auto generated = data::GenerateSoccer({.num_rows = 120, .seed = 3});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.08;
  inject.seed = 4;
  auto injected = data::InjectErrors(generated.clean, inject);
  ExpectMatchesScan(injected.dirty, generated.dcs);
}

TEST(ConstraintRowIndexTest, ViolationsOfRowMatchesFullDetection) {
  auto generated = data::GenerateSoccer({.num_rows = 80, .seed = 5});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.10;
  inject.seed = 6;
  auto injected = data::InjectErrors(generated.clean, inject);
  const Table& table = injected.dirty;
  for (std::size_t c = 0; c < generated.dcs.size(); ++c) {
    const DenialConstraint& dc = generated.dcs.at(c);
    ConstraintRowIndex index(&table, &dc);
    const bool dedup = dc.IsSymmetric();
    // Ground truth: the full detector's violations involving each row.
    std::set<Violation> all;
    for (const Violation& v : FindViolationsOf(table, dc, c)) all.insert(v);
    for (std::size_t row = 0; row < table.num_rows(); ++row) {
      std::set<Violation> expected;
      for (const Violation& v : all) {
        if (v.row1 == row || v.row2 == row) expected.insert(v);
      }
      std::set<Violation> probed;
      for (const Violation& v : index.ViolationsOfRow(row, c, dedup)) {
        probed.insert(v);
      }
      EXPECT_EQ(probed, expected) << dc.name() << " row " << row;
    }
  }
}

TEST(ConstraintRowIndexTest, RekeyTracksKeyColumnWrites) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);  // Team -> City
  ConstraintRowIndex index(&table, &c1);
  ASSERT_TRUE(index.uses_buckets());
  const std::size_t team_col = *table.schema().IndexOf("Team");
  ASSERT_TRUE(index.IsKeyColumn(team_col));

  // Move row 0 onto row 4's team: if their cities disagree the pair now
  // violates C1 — the probe must see it after Rekey.
  table.Set(CellRef{0, team_col}, table.at(4, team_col));
  index.Rekey(0);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }

  // And back: the stale bucket entry must be gone.
  table.Set(CellRef{0, team_col}, Value("SomethingElse"));
  index.Rekey(0);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }
}

TEST(ConstraintRowIndexTest, NonKeyColumnWritesAreLive) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);  // !(Team == Team & City != City)
  ConstraintRowIndex index(&table, &c1);
  const std::size_t city_col = *table.schema().IndexOf("City");
  ASSERT_FALSE(index.IsKeyColumn(city_col));

  // Rewriting a City (the inequality side) changes violations without
  // any Rekey: the index reads the live table.
  table.Set(CellRef{4, city_col}, Value("Madrid"));
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }
}

TEST(ConstraintRowIndexTest, NullKeysNeverJoin) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);
  const std::size_t team_col = *table.schema().IndexOf("Team");
  table.Set(CellRef{2, team_col}, Value::Null());
  ConstraintRowIndex index(&table, &c1);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }
}

TEST(ConstraintRowIndexTest, FallsBackWithoutCrossTupleEquality) {
  const Table table = data::SoccerDirtyTable();
  // No cross-tuple equality predicate: probe must fall back to the scan
  // and still answer exactly.
  auto dc = ParseDc("!(t1.Place < t2.Place & t1.Year > t2.Year)",
                    table.schema(), "NoEq");
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  ConstraintRowIndex index(&table, &*dc);
  EXPECT_FALSE(index.uses_buckets());
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, *dc, row))
        << "row " << row;
  }
}

/// A random cell value over a small domain so buckets collide and
/// violations are common: three strings, two numerics (Value(1) and
/// Value(1.0) compare and hash equal), and a null one time in five.
Value RandomValue(Rng* rng) {
  switch (rng->UniformUint64(10)) {
    case 0:
    case 1:
      return Value::Null();
    case 2:
    case 3:
      return Value("a");
    case 4:
    case 5:
      return Value("b");
    case 6:
      return Value("c");
    case 7:
      return Value(1);
    case 8:
      return Value(1.0);
    default:
      return Value(2);
  }
}

Table RandomTable(Rng* rng, std::size_t rows) {
  Table table(Schema::AllStrings({"A", "B", "C", "D"}));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < 4; ++c) row.push_back(RandomValue(rng));
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

/// Ground truth for a what-if probe: a copy of the table with the write
/// applied, judged by the nested-loop scan and the full detector.
struct WhatIfTruth {
  bool violates = false;
  std::size_t count = 0;
};

WhatIfTruth SetThenScan(const Table& table, const DenialConstraint& dc,
                        std::size_t row, std::size_t col,
                        const Value& value) {
  Table written = table;
  written.Set(CellRef{row, col}, value);
  WhatIfTruth truth;
  truth.violates = RowViolates(written, dc, row);
  std::set<Violation> involving;
  for (const Violation& v : FindViolationsOf(written, dc, 0)) {
    if (v.row1 == row || v.row2 == row) involving.insert(v);
  }
  truth.count = involving.size();
  return truth;
}

struct ShapeCase {
  const char* text;
  bool histograms;  // expected what-if path
};

TEST(ConstraintRowIndexTest, WhatIfProbesMatchSetThenScan) {
  const ShapeCase cases[] = {
      // Single-column FD: the row always sits in its own bucket.
      {"!(t1.A == t2.A & t1.B != t2.B)", true},
      // C4-shaped: multi-column key, inequality on a third column.
      {"!(t1.A != t2.A & t1.B == t2.B & t1.C == t2.C)", true},
      // Asymmetric, X != Y and distinct key columns per side.
      {"!(t1.A == t2.B & t1.C != t2.D)", true},
      // Asymmetric with the residual columns inside the keys: a row is
      // in its own bucket exactly when A == B.
      {"!(t1.A == t2.B & t1.B != t2.A)", true},
      // Order comparison: must take the evaluate-over-bucket fallback.
      {"!(t1.A == t2.A & t1.B < t2.B)", false},
      // No cross-tuple equality: the full-scan fallback.
      {"!(t1.B != t2.C & t1.D == 'a')", false},
      // Unary.
      {"!(t1.A == t1.B & t1.C != 'b')", false},
  };
  for (const ShapeCase& shape : cases) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed);
      Table table = RandomTable(&rng, 6 + 2 * seed);
      auto dc = ParseDc(shape.text, table.schema(), "D");
      ASSERT_TRUE(dc.ok()) << shape.text << ": " << dc.status().ToString();
      ConstraintRowIndex index(&table, &*dc);
      EXPECT_EQ(index.uses_histograms(), shape.histograms) << shape.text;
      for (int step = 0; step < 400; ++step) {
        const std::size_t row = rng.UniformUint64(table.num_rows());
        const std::size_t col = rng.UniformUint64(table.num_columns());
        const Value value = RandomValue(&rng);
        if (step % 7 == 6) {
          // A real write, so histogram upkeep through Rekey is checked.
          table.Set(CellRef{row, col}, value);
          if (index.IsKeyColumn(col)) index.Rekey(row);
          for (std::size_t r = 0; r < table.num_rows(); ++r) {
            ASSERT_EQ(index.RowViolates(r), RowViolates(table, *dc, r))
                << shape.text << " seed " << seed << " step " << step;
          }
          continue;
        }
        const WhatIfTruth truth = SetThenScan(table, *dc, row, col, value);
        ASSERT_EQ(index.RowViolatesIf(row, col, value), truth.violates)
            << shape.text << " seed " << seed << " step " << step
            << " cell (" << row << ", " << col << ") := "
            << value.ToString();
        ASSERT_EQ(index.ViolationCountIf(row, col, value), truth.count)
            << shape.text << " seed " << seed << " step " << step
            << " cell (" << row << ", " << col << ") := "
            << value.ToString();
      }
    }
  }
}

TEST(ConstraintRowIndexTest, HistogramsAreBuiltOnFirstWhatIfProbe) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);  // !(Team == Team & City != City)
  ConstraintRowIndex index(&table, &c1);
  const std::size_t city_col = *table.schema().IndexOf("City");
  // Before any what-if probe the inequality column is read live...
  EXPECT_FALSE(index.IsKeyColumn(city_col));
  const bool violates = index.RowViolatesIf(0, city_col, Value("Nowhere"));
  EXPECT_EQ(violates, SetThenScan(table, c1, 0, city_col, Value("Nowhere"))
                          .violates);
  // ...after it, the histograms track it and writes need a Rekey.
  EXPECT_TRUE(index.IsKeyColumn(city_col));
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    table.Set(CellRef{row, city_col}, Value("Madrid"));
    index.Rekey(row);
  }
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_FALSE(index.RowViolatesIf(row, city_col, Value("Madrid")));
    EXPECT_EQ(index.ViolationCountIf(row, city_col, Value("Barcelona")),
              SetThenScan(table, c1, row, city_col, Value("Barcelona"))
                  .count);
  }
}

}  // namespace
}  // namespace trex::dc
