#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include "util/combinatorics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace folearn {
namespace {

TEST(ForEachTuple, EnumeratesAllTuplesInOrder) {
  std::vector<std::vector<int64_t>> tuples;
  ForEachTuple(3, 2, [&](const std::vector<int64_t>& t) {
    tuples.push_back(t);
    return true;
  });
  ASSERT_EQ(tuples.size(), 9u);
  EXPECT_EQ(tuples.front(), (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(tuples[1], (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(tuples.back(), (std::vector<int64_t>{2, 2}));
}

TEST(ForEachTuple, LengthZeroYieldsEmptyTuple) {
  int count = 0;
  ForEachTuple(5, 0, [&](const std::vector<int64_t>& t) {
    EXPECT_TRUE(t.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(ForEachTuple, EarlyStopReturnsFalse) {
  int count = 0;
  bool completed = ForEachTuple(10, 2, [&](const std::vector<int64_t>&) {
    return ++count < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 5);
}

TEST(ForEachSubset, CountsMatchBinomial) {
  for (int n = 0; n <= 7; ++n) {
    for (int k = 0; k <= n; ++k) {
      int64_t count = 0;
      ForEachSubset(n, k, [&](const std::vector<int64_t>& s) {
        EXPECT_EQ(static_cast<int>(s.size()), k);
        EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
        ++count;
        return true;
      });
      EXPECT_EQ(count, Binomial(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(ForEachSubsetUpTo, SmallerSizesFirst) {
  std::vector<size_t> sizes;
  ForEachSubsetUpTo(4, 0, 2, [&](const std::vector<int64_t>& s) {
    sizes.push_back(s.size());
    return true;
  });
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  EXPECT_EQ(sizes.size(), 1u + 4u + 6u);
}

TEST(Binomial, KnownValues) {
  EXPECT_EQ(Binomial(0, 0), 1);
  EXPECT_EQ(Binomial(5, 2), 10);
  EXPECT_EQ(Binomial(10, 5), 252);
  EXPECT_EQ(Binomial(52, 5), 2598960);
  EXPECT_EQ(Binomial(5, 7), 0);
}

TEST(SaturatingPow, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(SaturatingPow(2, 10), 1024);
  EXPECT_EQ(SaturatingPow(10, 0), 1);
  EXPECT_EQ(SaturatingPow(2, 63), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(SaturatingPow(1000000, 5), std::numeric_limits<int64_t>::max());
}

TEST(RamseyUpperBound, PigeonholeForSingletons) {
  // k=1: colours·(m−1)+1.
  EXPECT_EQ(RamseyUpperBound(1, 3, 4), 10);
}

TEST(RamseyUpperBound, TriangleBoundsAreClassical) {
  // R(3,3) = 6 ≤ our bound; 1-colour is trivial.
  EXPECT_EQ(RamseyUpperBound(2, 1, 3), 3);
  EXPECT_GE(RamseyUpperBound(2, 2, 3), 6);
  // 2-colour bound is the recurrence value 2·2+2 = 6 (tight!).
  EXPECT_EQ(RamseyUpperBound(2, 2, 3), 6);
  // 3 colours: R(3,3,3) = 17 ≤ bound.
  EXPECT_GE(RamseyUpperBound(2, 3, 3), 17);
}

TEST(RamseyUpperBound, MonotoneInColours) {
  int64_t previous = 0;
  for (int64_t colours = 1; colours <= 8; ++colours) {
    int64_t bound = RamseyUpperBound(2, colours, 3);
    EXPECT_GE(bound, previous);
    previous = bound;
  }
}

TEST(RamseyUpperBound, TrivialWhenSubsetFits) {
  EXPECT_EQ(RamseyUpperBound(2, 100, 2), 2);
  EXPECT_EQ(RamseyUpperBound(3, 5, 3), 3);
}

TEST(Rng, DeterministicAcrossSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(3);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Strings, SplitAndStrip) {
  std::vector<std::string> pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(Join(std::vector<std::string>{"x", "y"}, "+"), "x+y");
}

// The strict integer parsers behind every flag, request field and file
// format: the edge cases each front end used to answer differently.
TEST(Strings, StrictIntegerParserEdgeCases) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Row {
    const char* text;
    std::optional<int64_t> as_int64;
    std::optional<uint64_t> as_uint64;
  };
  const Row rows[] = {
      {"", std::nullopt, std::nullopt},
      {"-", std::nullopt, std::nullopt},
      {"+", std::nullopt, std::nullopt},
      {"+1", std::nullopt, std::nullopt},
      {" 1", std::nullopt, std::nullopt},
      {"1 ", std::nullopt, std::nullopt},
      {"\t1", std::nullopt, std::nullopt},
      {"1x", std::nullopt, std::nullopt},
      {"0x10", std::nullopt, std::nullopt},
      {"-0", std::nullopt, std::nullopt},
      {"0", 0, 0},
      {"007", 7, 7},
      {"-1", -1, std::nullopt},
      {"9223372036854775807", kMax, uint64_t{kMax}},
      {"9223372036854775808", std::nullopt, uint64_t{kMax} + 1},
      {"-9223372036854775808", kMin, std::nullopt},
      {"-9223372036854775809", std::nullopt, std::nullopt},
      {"18446744073709551615", std::nullopt,
       std::numeric_limits<uint64_t>::max()},
      {"18446744073709551616", std::nullopt, std::nullopt},
      {"100000000000000000000", std::nullopt, std::nullopt},  // 21 digits
      {"000000000000000000001", std::nullopt, std::nullopt},  // 21 digits
  };
  for (const Row& row : rows) {
    int64_t signed_value = 42;
    EXPECT_EQ(ParseInt64(row.text, &signed_value), row.as_int64.has_value())
        << "'" << row.text << "'";
    EXPECT_EQ(signed_value, row.as_int64.value_or(42)) << row.text;
    uint64_t unsigned_value = 42;
    EXPECT_EQ(ParseUint64(row.text, &unsigned_value),
              row.as_uint64.has_value())
        << "'" << row.text << "'";
    EXPECT_EQ(unsigned_value, row.as_uint64.value_or(42)) << row.text;
  }
}

TEST(Strings, HexRoundTripsAndIsFixedWidth) {
  for (uint64_t value : {uint64_t{0}, uint64_t{0xdeadbeef},
                         std::numeric_limits<uint64_t>::max()}) {
    const std::string hex = FormatHexUint64(value);
    EXPECT_EQ(hex.size(), 16u);
    uint64_t parsed = 0;
    ASSERT_TRUE(ParseHexUint64(hex, &parsed)) << hex;
    EXPECT_EQ(parsed, value);
  }
  uint64_t untouched = 7;
  for (const char* bad : {"", "ff", "00000000DEADBEEF", "00000000deadbeeg",
                          "000000000000000000", " 00000000deadbeef"}) {
    EXPECT_FALSE(ParseHexUint64(bad, &untouched)) << bad;
  }
  EXPECT_EQ(untouched, 7u);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "100"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 100   |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2);
}

TEST(FormatDouble, RespectsDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

}  // namespace
}  // namespace folearn
