/**
 * @file
 * Statistical and determinism tests for the Rng streams.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.hh"

using namespace holdcsim;

TEST(Rng, DeterministicForSameSeedAndStream)
{
    Rng a(42, 7), b(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Rng a(42, 0), b(42, 1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LE(same, 1);
}

TEST(Rng, NamedStreamsReproducible)
{
    Rng a(9, "server.3"), b(9, "server.3"), c(9, "server.4");
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Fnv1a64, MatchesReferenceVectors)
{
    static_assert(fnv1a64("") == 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
    // Named streams are the numeric stream of the name's hash.
    Rng named(9, "server.3"), numbered(9, fnv1a64("server.3"));
    EXPECT_EQ(named.next(), numbered.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(2);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeUniformly)
{
    Rng rng(3);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(0, 9)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, ExponentialMeanAndVariance)
{
    Rng rng(5);
    const double mean = 3.5;
    const int n = 200000;
    double sum = 0, sumsq = 0;
    for (int i = 0; i < n; ++i) {
        double v = rng.exponential(mean);
        EXPECT_GT(v, 0.0);
        sum += v;
        sumsq += v * v;
    }
    double m = sum / n;
    double var = sumsq / n - m * m;
    EXPECT_NEAR(m, mean, 0.05);
    // Exponential variance = mean^2.
    EXPECT_NEAR(var, mean * mean, mean * mean * 0.05);
}

TEST(Rng, NormalMoments)
{
    Rng rng(6);
    const int n = 200000;
    double sum = 0, sumsq = 0;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(10.0, 2.0);
        sum += v;
        sumsq += v * v;
    }
    double m = sum / n;
    double var = sumsq / n - m * m;
    EXPECT_NEAR(m, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        double v = rng.boundedPareto(1.1, 1.0, 1000.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 1000.0);
    }
}

TEST(Rng, BoundedParetoIsHeavyTailed)
{
    // With alpha just above 1 most mass is near the low bound but the
    // tail reaches far: the max of many draws should dwarf the median.
    Rng rng(8);
    std::vector<double> v;
    for (int i = 0; i < 50000; ++i)
        v.push_back(rng.boundedPareto(1.1, 1.0, 1000.0));
    std::sort(v.begin(), v.end());
    double median = v[v.size() / 2];
    double max = v.back();
    EXPECT_LT(median, 3.0);
    EXPECT_GT(max, 100.0);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(10);
    std::vector<double> w{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedIndexSkipsZeroWeights)
{
    Rng rng(11);
    std::vector<double> w{0.0, 1.0, 0.0};
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(rng.weightedIndex(w), 1u);
}

TEST(Rng, WeightedIndexNeverReturnsZeroWeightTail)
{
    // Accumulation error can leave target >= acc at the end of the
    // scan; the fallback must land on the last positive weight, not
    // on the impossible zero-weight tail.
    std::vector<double> w{0.1, 0.7, 0.2, 0.0, 0.0};
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        Rng rng(seed, "tail");
        for (int i = 0; i < 10000; ++i)
            EXPECT_LE(rng.weightedIndex(w), 2u);
    }
    // Tiny leading weight, zero tail: same guarantee under heavy
    // cancellation.
    std::vector<double> v{1e-300, 1.0, 0.0};
    Rng rng(3, "tail2");
    for (int i = 0; i < 10000; ++i)
        EXPECT_LE(rng.weightedIndex(v), 1u);
}

TEST(Rng, UniformIntAcceptsEveryDrawAtPowerOfTwoSpans)
{
    // When span divides 2^64 the raw stream needs no rejection at
    // all: uniformInt must consume exactly one draw and reduce it
    // modulo span. The old bound rejected the top `span` values.
    const std::uint64_t spans[] = {1ULL << 1, 1ULL << 16, 1ULL << 32,
                                   1ULL << 63};
    for (std::uint64_t span : spans) {
        Rng a(77, "pow2"), b(77, "pow2");
        for (int i = 0; i < 1000; ++i) {
            std::uint64_t got = a.uniformInt(0, span - 1);
            EXPECT_EQ(got, b.next() % span);
        }
    }
}

TEST(Rng, UniformIntFullRangePassesThrough)
{
    Rng a(5, "full"), b(5, "full");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, ~std::uint64_t{0}), b.next());
}

TEST(Rng, UniformIntStaysInBoundsOddSpan)
{
    Rng rng(6, "odd");
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.uniformInt(10, 16); // span 7
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 16u);
    }
}

TEST(Rng, WeibullMeanMatchesShapeAndScale)
{
    // E[X] = scale * Gamma(1 + 1/shape).
    Rng rng(9, "weibull");
    const double shape = 1.5, scale = 2.0;
    const int n = 40000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        double x = rng.weibull(shape, scale);
        ASSERT_GT(x, 0.0);
        sum += x;
    }
    double expected = scale * std::tgamma(1.0 + 1.0 / shape);
    EXPECT_NEAR(sum / n, expected, 0.05 * expected);
}

TEST(Rng, WeibullShapeOneIsExponential)
{
    // shape = 1 degenerates to exponential with mean = scale.
    Rng rng(9, "weibull.exp");
    const int n = 40000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.weibull(1.0, 3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, WeibullDeterministicPerStream)
{
    Rng a(11, "w"), b(11, "w");
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(a.weibull(1.5, 2.0), b.weibull(1.5, 2.0));
}
