/**
 * @file
 * Fault models: when do components break and how long do repairs
 * take.
 *
 * A FaultModel answers one question -- given a component and the time
 * its last repair finished, when does it next go down and when does
 * it come back. Two implementations cover the usual studies:
 * ScriptedFaultModel replays an explicit schedule (a specific
 * incident, a published failure trace, or an explored schedule), and
 * StochasticFaultModel draws times-to-failure from exponential or
 * Weibull distributions with per-component seeded streams, so runs
 * are reproducible and adding a component never perturbs another's
 * draws.
 */

#ifndef HOLDCSIM_FAULT_FAULT_MODEL_HH
#define HOLDCSIM_FAULT_FAULT_MODEL_HH

#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace holdcsim {

/** What kind of component a fault strikes. */
enum class FaultKind {
    /** A whole server crashes. */
    server,
    /** A whole switch dies (every port dark). */
    swtch,
    /** One link is severed. */
    link,
    /** One switch line card dies (its ports' links go down). */
    linecard,
};

std::string toString(FaultKind kind);

/** Identifies one faultable component. */
struct FaultTarget {
    FaultKind kind = FaultKind::server;
    /** Server ordinal, switch ordinal, or link id. */
    std::size_t index = 0;
    /** Line card ordinal within the switch (linecard faults only). */
    unsigned sub = 0;

    bool
    operator<(const FaultTarget &o) const
    {
        return std::tie(kind, index, sub) <
               std::tie(o.kind, o.index, o.sub);
    }
};

std::string toString(const FaultTarget &target);

/** One crash/repair episode. */
struct FaultRecord {
    /** When the component goes down. */
    Tick downAt = 0;
    /** When the repair completes. */
    Tick upAt = 0;
};

/** One explicit episode bound to its target (schedules, exports). */
struct ScheduledFault {
    FaultTarget target;
    FaultRecord record;

    bool
    operator==(const ScheduledFault &o) const
    {
        return !(target < o.target) && !(o.target < target) &&
               record.downAt == o.record.downAt &&
               record.upAt == o.record.upAt;
    }
};

/**
 * The fault-trace format, one episode per line:
 *   <kind> <index> <down_s> <up_s>        for server/switch/link
 *   linecard <switch> <card> <down_s> <up_s>
 * with times in seconds from simulation start; '#' starts a comment.
 * formatFaultTraceLine prints nanosecond precision, so a written trace
 * reads back tick-exact.
 */
std::string formatFaultTraceLine(const ScheduledFault &fault);

/**
 * Parse one fault-trace line into @p out. Returns false for blank or
 * comment-only lines; fatals (prefixing @p where, e.g. "file:12") on
 * malformed ones.
 */
bool parseFaultTraceLine(const std::string &line,
                         const std::string &where, ScheduledFault &out);

/**
 * Every episode of the fault trace in @p in, in file order (@p where
 * prefixes diagnostics with the line number).
 */
std::vector<ScheduledFault> readFaultTrace(std::istream &in,
                                           const std::string &where);
/** The fault trace in file @p path; fatal if it cannot be opened. */
std::vector<ScheduledFault> readFaultTrace(const std::string &path);

/**
 * Write @p faults as a fault trace, in the given order, after
 * @p header_lines, one "# "-prefixed comment each.
 */
void writeFaultTrace(std::ostream &os,
                     const std::vector<ScheduledFault> &faults,
                     const std::vector<std::string> &header_lines);

/** When does a component next fail, and for how long. */
class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    /**
     * The next fault for @p target, given that it has been healthy
     * since @p now. Returns std::nullopt when @p target never fails
     * again. downAt must be >= @p now and upAt > downAt.
     */
    virtual std::optional<FaultRecord>
    nextFault(const FaultTarget &target, Tick now) = 0;
};

/**
 * Replays an explicit fault schedule exactly as written: a fault trace
 * (readFaultTrace), an explorer schedule (src/mc) or a realized
 * schedule a FaultManager exported. Each target's episodes are played
 * in time order. An empty episode, two overlapping episodes of one
 * target, or an episode its target asks for only after the episode's
 * downAt is fatal: a schedule that cannot replay as written is an
 * error, never resynchronized.
 */
class ScriptedFaultModel : public FaultModel
{
  public:
    explicit ScriptedFaultModel(std::vector<ScheduledFault> faults);

    std::optional<FaultRecord> nextFault(const FaultTarget &target,
                                         Tick now) override;

  private:
    std::map<FaultTarget, std::deque<FaultRecord>> _episodes;
};

/** Draws failure/repair times from lifetime distributions. */
class StochasticFaultModel : public FaultModel
{
  public:
    /** Time-to-failure distribution family. */
    enum class Distribution {
        /** Memoryless (constant hazard rate). */
        exponential,
        /** Weibull: shape < 1 infant mortality, > 1 wear-out. */
        weibull,
    };

    /**
     * @param seed          global seed; each component derives its
     *                      own named stream from it
     * @param mttf          mean time to failure
     * @param mttr          mean time to repair (exponential)
     * @param dist          time-to-failure distribution
     * @param weibull_shape shape parameter when dist is weibull
     */
    StochasticFaultModel(std::uint64_t seed, Tick mttf, Tick mttr,
                         Distribution dist = Distribution::exponential,
                         double weibull_shape = 1.5);

    std::optional<FaultRecord> nextFault(const FaultTarget &target,
                                         Tick now) override;

  private:
    Rng &rngFor(const FaultTarget &target);

    std::uint64_t _seed;
    Tick _mttf;
    Tick _mttr;
    Distribution _dist;
    double _weibullShape;
    /** Weibull scale chosen so the mean equals the configured MTTF. */
    double _weibullScale;
    std::map<FaultTarget, Rng> _rngs;
};

} // namespace holdcsim

#endif // HOLDCSIM_FAULT_FAULT_MODEL_HH
