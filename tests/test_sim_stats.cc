/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

using namespace holdcsim;

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.sample(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, ResetClears)
{
    Accumulator acc;
    acc.sample(5.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    acc.sample(1.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 1.0);
}

// Extrema must be seeded from the first sample, not from an implicit
// zero: a run of all-negative (or all-positive) samples would
// otherwise report a phantom min/max of 0.

TEST(Accumulator, NegativeFirstSampleSeedsMin)
{
    Accumulator acc;
    acc.sample(-3.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
    EXPECT_DOUBLE_EQ(acc.max(), -3.0);
    acc.sample(-1.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
    EXPECT_DOUBLE_EQ(acc.max(), -1.0);
}

TEST(Accumulator, AllNegativeSamplesKeepNegativeMax)
{
    Accumulator acc;
    for (double v : {-5.0, -2.5, -9.0})
        acc.sample(v);
    EXPECT_DOUBLE_EQ(acc.min(), -9.0);
    EXPECT_DOUBLE_EQ(acc.max(), -2.5);
}

TEST(Accumulator, AllPositiveSamplesKeepPositiveMin)
{
    Accumulator acc;
    for (double v : {4.0, 2.0, 8.0})
        acc.sample(v);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 8.0);
}

TEST(Accumulator, EmptyExtremaAreZero)
{
    Accumulator acc;
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(Accumulator, ResetReseedsExtrema)
{
    Accumulator acc;
    acc.sample(100.0);
    acc.reset();
    acc.sample(-1.0);
    EXPECT_DOUBLE_EQ(acc.min(), -1.0);
    EXPECT_DOUBLE_EQ(acc.max(), -1.0);
}

TEST(Percentile, QuantilesOfKnownSequence)
{
    Percentile p;
    for (int i = 1; i <= 100; ++i)
        p.sample(i);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
    EXPECT_NEAR(p.p50(), 50.5, 1e-9);
    EXPECT_NEAR(p.p90(), 90.1, 1e-9);
    EXPECT_NEAR(p.p99(), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(Percentile, UnsortedInputIsSorted)
{
    Percentile p;
    for (double v : {5.0, 1.0, 4.0, 2.0, 3.0})
        p.sample(v);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(p.p50(), 3.0);
}

TEST(Percentile, CdfAt)
{
    Percentile p;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        p.sample(v);
    EXPECT_DOUBLE_EQ(p.cdfAt(0.5), 0.0);
    EXPECT_DOUBLE_EQ(p.cdfAt(2.0), 0.5);
    EXPECT_DOUBLE_EQ(p.cdfAt(2.5), 0.5);
    EXPECT_DOUBLE_EQ(p.cdfAt(4.0), 1.0);
}

TEST(Percentile, SamplingAfterQuantileStillWorks)
{
    Percentile p;
    p.sample(10.0);
    p.sample(20.0);
    EXPECT_DOUBLE_EQ(p.p50(), 15.0);
    p.sample(0.0); // forces a re-sort on next query
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 0.0);
}

TEST(StateResidency, FractionsAndTransitions)
{
    enum { idle, active, asleep };
    StateResidency sr;
    sr.start(0);
    sr.accrue(idle, 10 * sec);
    sr.accrue(active, 30 * sec);
    sr.accrue(idle, 40 * sec);
    sr.accrue(asleep, 100 * sec);
    EXPECT_EQ(sr.totalTime(), 100 * sec);
    EXPECT_DOUBLE_EQ(sr.fraction(idle), 0.2);
    EXPECT_DOUBLE_EQ(sr.fraction(active), 0.2);
    EXPECT_DOUBLE_EQ(sr.fraction(asleep), 0.6);
    // start() zeroes the books and restarts the clock.
    sr.start(120 * sec);
    sr.accrue(active, 125 * sec);
    EXPECT_EQ(sr.totalTime(), 5 * sec);
    EXPECT_EQ(sr.residency(active), 5 * sec);
    EXPECT_EQ(sr.residency(asleep), 0u);
}

TEST(StateResidency, UnseenStateIsZero)
{
    StateResidency sr;
    sr.start(0);
    sr.accrue(2, 10);
    // Never-entered states, inside and outside [0, maxStates).
    for (int state : {0, 1, 3, StateResidency::maxStates - 1, -1,
                      StateResidency::maxStates, 99}) {
        EXPECT_EQ(sr.residency(state), 0u) << state;
        EXPECT_DOUBLE_EQ(sr.fraction(state), 0.0) << state;
    }
    EXPECT_EQ(sr.residency(2), 10u);
}

TEST(StateResidencyDeathTest, EnteringOutOfRangeStatePanics)
{
    StateResidency sr;
    EXPECT_DEATH(sr.accrue(StateResidency::maxStates, 0), "outside");
    EXPECT_DEATH(sr.accrue(-1, 0), "outside");
    sr.start(10);
    EXPECT_DEATH(sr.accrue(0, 9), "backwards");
}

TEST(StateResidency, ReenteringSameStateAccumulates)
{
    StateResidency sr;
    sr.start(0);
    sr.accrue(1, 10);
    sr.accrue(1, 30);
    EXPECT_EQ(sr.residency(1), 30u);
}

TEST(StatGroup, DumpFormatsLines)
{
    StatGroup g("server0");
    g.add("energy_j", 12.5);
    g.add("jobs", std::uint64_t{42});
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "server0.energy_j 12.5\nserver0.jobs 42\n");
}

// StatGroup formats values itself; the dump must stay byte-identical
// to what a default-flagged ostream prints for the same value.
TEST(StatGroup, FormatsLikeOstream)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e-5,
        9.9999995e-5, 123456.0, 1234567.0, 0.1 + 0.2, 1e16,
        std::numeric_limits<double>::max(), inf, -inf,
        std::numeric_limits<double>::quiet_NaN(), -1.5, 12.5, 2.0 / 3.0};
    StatGroup g("g");
    std::ostringstream want;
    for (double v : values) {
        g.add("d", v);
        want << "g.d " << v << '\n';
    }
    const std::uint64_t ints[] = {
        0, 42, std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t v : ints) {
        g.add("u", v);
        want << "g.u " << v << '\n';
    }
    std::ostringstream got;
    g.dump(got);
    EXPECT_EQ(got.str(), want.str());
    EXPECT_NE(got.str().find("g.d -0\n"), std::string::npos);
    EXPECT_NE(got.str().find("g.d 1e+16\n"), std::string::npos);
    EXPECT_NE(got.str().find("g.u 18446744073709551615\n"),
              std::string::npos);
}

// Rows written through one reused group print what `ostream <<` prints
// whatever value each column's memo holds from the row before: runs
// of one value, 0 and -0 (equal, but different bits and text), NaNs,
// and neighbours one ulp apart. The rows pass 64 KiB, so the group
// also writes part of them before the final flush.
TEST(StatGroup, RowsFormatLikeOstream)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double values[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e-5,
        9.9999995e-5, 123456.0, 1234567.0, 0.1 + 0.2, 1e16,
        std::numeric_limits<double>::max(), inf, -inf, nan, -1.5, 12.5,
        2.0 / 3.0};
    std::vector<double> column;
    for (double v : values)
        column.insert(column.end(), 3, v);
    for (double v : {0.0, -0.0, 0.0, -0.0, -0.0, 0.0})
        column.push_back(v);
    for (double v : {nan, nan, 1.0, nan, -nan, -nan})
        column.push_back(v);
    for (double v : values) {
        column.push_back(v);
        column.push_back(std::nextafter(v, inf));
        column.push_back(v);
        column.push_back(std::nextafter(v, -inf));
    }

    StatGroup rows("");
    std::ostringstream got;
    std::ostringstream want;
    std::uint64_t id = 0;
    for (int pass = 0; pass < 12; ++pass) {
        for (std::size_t i = 0; i < column.size(); ++i, ++id) {
            const double a = column[i];
            const double b = column[column.size() - 1 - i];
            rows.row(got, "server", id);
            rows.add("a", a);
            rows.add("tasks", id);
            rows.add("b", b);
            want << "server" << id << ".a " << a << '\n'
                 << "server" << id << ".tasks " << id << '\n'
                 << "server" << id << ".b " << b << '\n';
        }
    }
    // Wider than the memo table: the last columns share one memo.
    rows.row(got, "switch", 7);
    for (int c = 0; c < 24; ++c) {
        const double v = c % 3 == 0 ? 0.0 : c % 3 == 1 ? -0.0 : c * 0.5;
        rows.add("c", v);
        want << "switch7.c " << v << '\n';
    }
    EXPECT_GT(want.str().size(), 64u * 1024);
    EXPECT_GE(got.str().size(), 64u * 1024);
    EXPECT_LT(got.str().size(), want.str().size());
    rows.flush(got);
    EXPECT_EQ(got.str(), want.str());
    // The row after the first 0.0 of the 0 / -0 case prints -0.
    const std::string neg_zero =
        "\nserver" + std::to_string(3 * std::size(values) + 1) + ".a -0\n";
    EXPECT_NE(got.str().find(neg_zero), std::string::npos) << neg_zero;
}
