/**
 * @file
 * Parameter-sweep expansion: turn "[sweep]" config sections (or
 * --sweep key=a,b,c flags) into the cross-product of experiment
 * points, each a list of config-key assignments applied on top of a
 * base configuration.
 *
 * Example INI:
 *
 *   [sweep]
 *   server.tau_ms = 250, 500, 1000
 *   datacenter.servers = 50, 100
 *
 * expands to 6 points; point order is the odometer order of the keys
 * as declared (last key varies fastest), so runs are reproducible
 * and resumable by index.
 */

#ifndef HOLDCSIM_EXP_SWEEP_HH
#define HOLDCSIM_EXP_SWEEP_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"

namespace holdcsim {

/** One point of a sweep: the key=value assignments to apply. */
struct SweepPoint {
    std::vector<std::pair<std::string, std::string>> assignments;

    /** "key=v key=v" label (empty string for the empty sweep). */
    std::string label() const;
};

/** Cross-product expansion of per-key value lists. */
class SweepSpec
{
  public:
    /** Append a swept key with its list of values. @pre !values.empty() */
    void add(std::string key, std::vector<std::string> values);

    /**
     * Append a key from a "key=a,b,c" flag string and return the key.
     * Throws FatalError on a malformed flag (no '=', empty key or
     * empty value list).
     */
    std::string addFlag(const std::string &flag);

    /** Collect every "[sweep]" section key of @p cfg, in key order. */
    static SweepSpec fromConfig(const Config &cfg);

    /** Number of swept keys. */
    std::size_t numKeys() const { return _keys.size(); }

    /** Number of points (cross-product size; 1 for the empty sweep). */
    std::size_t numPoints() const;

    /** Assignments of point @p i. @pre i < numPoints(). */
    SweepPoint point(std::size_t i) const;

    /** Apply point @p i's assignments onto @p cfg. */
    void apply(Config &cfg, std::size_t i) const;

  private:
    std::vector<std::string> _keys;
    std::vector<std::vector<std::string>> _values;
};

/** Split @p text on commas, trimming surrounding whitespace. */
std::vector<std::string> splitList(const std::string &text);

} // namespace holdcsim

#endif // HOLDCSIM_EXP_SWEEP_HH
