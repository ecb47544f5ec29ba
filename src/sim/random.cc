#include "random.hh"

#include <cmath>

#include "logging.hh"

namespace holdcsim {

namespace {

/** splitmix64 step: seeds the xoshiro state from any 64-bit value. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // Mix seed and stream so that streams 0,1,2,... of the same seed
    // are statistically independent.
    std::uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL + 1);
    for (auto &word : _state)
        word = splitmix64(x);
}

Rng::Rng(std::uint64_t seed, const std::string &stream_name)
    : Rng(seed, fnv1a64(stream_name))
{}

std::uint64_t
Rng::next()
{
    // xoshiro256++
    const std::uint64_t result = rotl(_state[0] + _state[3], 23) + _state[0];
    const std::uint64_t t = _state[1] << 17;
    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl(_state[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        HOLDCSIM_PANIC("uniformInt with lo > hi");
    std::uint64_t span = hi - lo + 1;
    if (span == 0)  // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias: reject the low
    // 2^64 mod span values so exactly floor(2^64 / span) * span
    // values survive. min is 0 when span divides 2^64 (power-of-two
    // spans), in which case every draw is accepted.
    std::uint64_t min = -span % span;
    std::uint64_t v;
    do {
        v = next();
    } while (v < min);
    return lo + v % span;
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        HOLDCSIM_PANIC("exponential with non-positive mean ", mean);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (_haveSpare) {
        _haveSpare = false;
        return _spare;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    _spare = r * std::sin(theta);
    _haveSpare = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::boundedPareto(double alpha, double lo, double hi)
{
    if (!(lo > 0.0) || !(hi > lo) || !(alpha > 0.0))
        HOLDCSIM_PANIC("boundedPareto with invalid parameters");
    double u = uniform();
    double la = std::pow(lo, alpha);
    double ha = std::pow(hi, alpha);
    // Inverse CDF of the bounded Pareto distribution.
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

double
Rng::weibull(double shape, double scale)
{
    if (!(shape > 0.0) || !(scale > 0.0))
        HOLDCSIM_PANIC("weibull with non-positive parameters");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    // Inverse CDF: scale * (-ln U)^(1/shape).
    return scale * std::pow(-std::log(u), 1.0 / shape);
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            HOLDCSIM_PANIC("weightedIndex with negative weight");
        total += w;
    }
    if (total <= 0.0)
        HOLDCSIM_PANIC("weightedIndex with no positive weight");
    double target = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (target < acc)
            return i;
    }
    // Floating-point accumulation can leave target >= acc after the
    // loop; never land on a zero-weight trailing index then.
    std::size_t i = weights.size();
    while (i-- > 0) {
        if (weights[i] > 0.0)
            return i;
    }
    return 0; // unreachable: some weight is positive
}

} // namespace holdcsim
