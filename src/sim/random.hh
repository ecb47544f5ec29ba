/**
 * @file
 * Deterministic random-number streams.
 *
 * Every stochastic model component owns its own Rng, seeded from a
 * (global seed, stream id) pair via splitmix64, so adding or removing
 * one component never perturbs the draws seen by another. The core
 * generator is xoshiro256++ (fast, 2^256-1 period, well tested).
 */

#ifndef HOLDCSIM_SIM_RANDOM_HH
#define HOLDCSIM_SIM_RANDOM_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace holdcsim {

/**
 * 64-bit FNV-1a of @p text. Named Rng streams, fault-schedule ids and
 * campaign-journal keys all derive from it, so its values are part of
 * every seeded run and every journal on disk.
 */
constexpr std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // offset basis
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL; // FNV prime
    }
    return h;
}

/** A seeded random stream with the distributions the models need. */
class Rng
{
  public:
    /** Seed from a global seed and a per-component stream id. */
    explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

    /** Seed a stream from a global seed and a component name. */
    Rng(std::uint64_t seed, const std::string &stream_name);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Exponential variate with the given mean. @pre mean > 0. */
    double exponential(double mean);

    /** Standard-normal variate (Box-Muller with caching). */
    double normal();

    /** Normal variate with @p mean and @p stddev. */
    double normal(double mean, double stddev);

    /**
     * Bounded-Pareto variate over [lo, hi] with shape @p alpha --
     * the classic heavy-tailed web service-time model.
     * @pre 0 < lo < hi, alpha > 0.
     */
    double boundedPareto(double alpha, double lo, double hi);

    /**
     * Weibull variate with @p shape k and @p scale lambda -- the
     * classic hardware-lifetime model (k < 1: infant mortality,
     * k > 1: wear-out). Mean is scale * Gamma(1 + 1/shape).
     * @pre shape > 0, scale > 0.
     */
    double weibull(double shape, double scale);

    /** Bernoulli trial with probability @p p of returning true. */
    bool bernoulli(double p);

    /**
     * Draw an index from a discrete distribution given by (possibly
     * unnormalized) non-negative @p weights. @pre at least one weight
     * is positive.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

  private:
    std::uint64_t _state[4];
    bool _haveSpare = false;
    double _spare = 0.0;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_RANDOM_HH
