#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "util/bitvec.hpp"
#include "util/linear_fit.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rap::util {
namespace {

// ---------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) same += (a() == b());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(13), 13u);
    }
}

TEST(Rng, BelowCoversAllResidues) {
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds) {
    Rng rng(11);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformWithinUnitInterval) {
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
    Rng rng(9);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability) {
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i) same += (parent() == child());
    EXPECT_LT(same, 3);
}

// ------------------------------------------------------------- BitVec --

TEST(BitVec, StartsAllZero) {
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.count(), 0u);
}

TEST(BitVec, SetGetAcrossWordBoundary) {
    BitVec v(130);
    v.set(0, true);
    v.set(63, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(63));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.count(), 4u);
    EXPECT_EQ(v.ones(), (std::vector<std::size_t>{0, 63, 64, 129}));
}

TEST(BitVec, FlipTogglesBit) {
    BitVec v(10);
    v.flip(3);
    EXPECT_TRUE(v.get(3));
    v.flip(3);
    EXPECT_FALSE(v.get(3));
}

TEST(BitVec, ClearResetsKeepingSize) {
    BitVec v(70);
    v.set(69, true);
    v.clear();
    EXPECT_EQ(v.size(), 70u);
    EXPECT_TRUE(v.none());
}

TEST(BitVec, EqualityAndOrdering) {
    BitVec a(8), b(8);
    EXPECT_EQ(a, b);
    a.set(2, true);
    EXPECT_NE(a, b);
    EXPECT_TRUE(b < a || a < b);
}

TEST(BitVec, HashDistinguishesNearbyStates) {
    std::unordered_set<std::size_t> hashes;
    for (std::size_t i = 0; i < 64; ++i) {
        BitVec v(64);
        v.set(i, true);
        hashes.insert(v.hash());
    }
    EXPECT_EQ(hashes.size(), 64u);
}

TEST(BitVec, ToStringRendersIndexZeroFirst) {
    BitVec v(4);
    v.set(0, true);
    v.set(2, true);
    EXPECT_EQ(v.to_string(), "1010");
}

// ------------------------------------------------------------ strings --

TEST(Strings, FormatBasic) {
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(Strings, JoinAndSplitRoundTrip) {
    const std::vector<std::string> items = {"a", "b", "c"};
    EXPECT_EQ(join(items, ","), "a,b,c");
    EXPECT_EQ(split("a,b,c", ','), items);
    EXPECT_EQ(split(",x,", ','),
              (std::vector<std::string>{"", "x", ""}));
}

TEST(Strings, TrimRemovesWhitespaceOnly) {
    EXPECT_EQ(trim("  a b \t\n"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, IdentifierSanitises) {
    EXPECT_EQ(identifier("a-b.c"), "a_b_c");
    EXPECT_EQ(identifier("2x"), "n2x");
    EXPECT_EQ(identifier(""), "n");
}

// -------------------------------------------------------------- Table --

TEST(Table, AsciiAlignsColumns) {
    Table t({"name", "v"});
    t.add_row({"long-name", "1"});
    t.add_row({"x", "22"});
    const std::string ascii = t.to_ascii();
    EXPECT_NE(ascii.find("name"), std::string::npos);
    EXPECT_NE(ascii.find("long-name  1"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCells) {
    Table t({"a", "b"});
    t.add_row({"x,y", "he said \"hi\""});
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

// ---------------------------------------------------------- LinearFit --

TEST(LinearFit, ExactLine) {
    const auto fit = fit_line({1, 2, 3, 4}, {3, 5, 7, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(LinearFit, NoisyLineStillHighR2) {
    std::vector<double> xs, ys;
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        xs.push_back(i);
        ys.push_back(4.0 * i + 10 + (rng.uniform() - 0.5));
    }
    const auto fit = fit_line(xs, ys);
    EXPECT_NEAR(fit.slope, 4.0, 0.05);
    EXPECT_GT(fit.r_squared, 0.999);
}

TEST(LinearFit, DegenerateInputsGiveZeroFit) {
    EXPECT_EQ(fit_line({1}, {2}).points, 0u);
    EXPECT_EQ(fit_line({1, 1}, {2, 3}).points, 0u);
    EXPECT_EQ(fit_line({1, 2}, {2}).points, 0u);
}

TEST(LinearFit, ConstantYHasUnitR2) {
    const auto fit = fit_line({1, 2, 3}, {5, 5, 5});
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

}  // namespace
}  // namespace rap::util
