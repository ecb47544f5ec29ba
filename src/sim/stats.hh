/**
 * @file
 * Statistics primitives used throughout the simulator.
 *
 * All statistics are plain value types owned by the component they
 * describe; StatGroup offers a lightweight registry for pretty
 * dumping. StateResidency is fed explicit ticks rather than reading a
 * global clock, keeping it testable in isolation.
 */

#ifndef HOLDCSIM_SIM_STATS_HH
#define HOLDCSIM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "types.hh"

namespace holdcsim {

/** Streaming mean / variance / extrema over sample values. */
class Accumulator
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const;
    /** Population variance. */
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    void reset();

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0; // Welford accumulator
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Exact percentile tracker: stores every sample, sorts on demand.
 * Suited to job-latency distributions at case-study scale (up to a
 * few million samples).
 */
class Percentile
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _samples.size(); }
    double mean() const;
    /** Value at quantile @p q in [0, 1] (linear interpolation). */
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    /** Empirical CDF evaluated at @p x: P[sample <= x]. */
    double cdfAt(double x) const;
    /** All samples, sorted ascending. */
    const std::vector<double> &sorted() const;
    void reset();

  private:
    mutable std::vector<double> _samples;
    mutable bool _sorted = true;
    double _sum = 0.0;
};

/**
 * Tracks how long a component resides in each of a set of discrete
 * states, keyed by small integer state ids in [0, States).
 *
 * Every state enum in the simulator is small and dense (ServerState,
 * the largest, has 6 states; CoreCState 5, PortState 3, ...), so the
 * books are an inline array sized to it: a book costs 8 + 8 * (1 +
 * States) bytes with zero heap allocations, which matters when a
 * 100k-server plant carries one per core, port and card. Components
 * with up to six states share StateResidency; the core slot sizes its
 * book to the five C-states. Each user static_asserts that its states
 * fit.
 */
template <int States>
class StateBook
{
  public:
    static_assert(0 < States && States <= 127);
    static constexpr int maxStates = States;

    /**
     * Record a transition into @p state at tick @p now.
     * Panics unless 0 <= @p state < maxStates.
     */
    void enter(int state, Tick now);

    /** Close the books at tick @p now before reading residencies. */
    void finish(Tick now);

    /** Total ticks spent in @p state so far (0 if never entered). */
    Tick residency(int state) const;

    /** Fraction of observed time spent in @p state, in [0, 1]. */
    double fraction(int state) const;

    /** Total observed time: the per-state totals summed. */
    Tick totalTime() const;

    /** The state last entered, or -1 before the first enter(). */
    int currentState() const { return _current; }
    void reset() { *this = StateBook{}; }

  private:
    std::int8_t _current = -1;
    Tick _lastTick = 0;
    std::array<Tick, States> _residency{};

    void accrueCurrent(Tick delta);
};

extern template class StateBook<5>;
extern template class StateBook<6>;

/** The residency book of components with up to six states. */
using StateResidency = StateBook<6>;
static_assert(sizeof(StateResidency) <= 64);

/**
 * Named registry of scalar statistics for human-readable dumps.
 * Components register name/value pairs at dump time; this avoids any
 * static registration order problems. Each add() appends a finished
 * "group.key value\n" line to one buffer (numbers formatted exactly
 * as a default-flagged ostream prints them), so dump() is one write.
 * A dump's server and switch rows share one group through row() and
 * flush(); the k-th double since row() reuses the previous row's
 * text when its bits match, so idle servers format each value once.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _prefix(name + '.') {}

    void add(std::string_view key, double value);
    void add(std::string_view key, std::uint64_t value);

    /** Pretty-print "group.key value" lines. */
    void dump(std::ostream &os) const;

    /** Rename the group "<name><id>" for the next row; the lines so
     *  far go to @p os once they pass 64 KiB. */
    void row(std::ostream &os, std::string_view name, std::uint64_t id);
    /** row() that keeps every line until flush(). */
    void row(std::string_view name, std::uint64_t id);
    /** Write the lines to @p os and clear them, keeping the buffer. */
    void flush(std::ostream &os);

  private:
    struct Memo {
        std::uint64_t bits = 0; // +0.0, whose text is "0"
        std::uint8_t size = 1;
        char text[23] = "0";
    };

    std::string _prefix;
    std::string _lines;
    std::array<Memo, 16> _memo{};
    std::size_t _column = 0;

    void addLine(std::string_view key, std::string_view value);
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_STATS_HH
