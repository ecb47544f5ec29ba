/**
 * @file
 * The fault-schedule explorer: model checking over fault timings.
 *
 * exploreFaultSchedules() enumerates a strategy tier's schedules
 * (src/mc/strategy.hh), runs each one through a fully deterministic
 * DataCenter with the InvariantAuditor always on as the oracle, and
 * classifies every run: pass, invariant violation / simulator abort,
 * hang (simulated-event budget tripped -- livelock), or model error.
 * The campaign rides the CampaignRunner, so
 * exploration is parallel across schedules, journaled, and resumable
 * -- an interrupted exploration picks up at the first unexplored
 * schedule, keyed by the schedule set's canonical hashes.
 *
 * On the first failure (in deterministic grid order, independent of
 * worker count), the failing schedule is delta-debugged
 * (src/mc/shrink.hh) against the same-failure-signature oracle down
 * to a 1-minimal reproducer, written as a fault trace (readFaultTrace
 * loads it) whose header carries the verdict and the exact replay command.
 */

#ifndef HOLDCSIM_MC_EXPLORER_HH
#define HOLDCSIM_MC_EXPLORER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "exp/campaign.hh"
#include "fault_schedule.hh"
#include "sim/config.hh"

namespace holdcsim::mc {

/** What one schedule did to the plant. */
struct OracleOutcome {
    enum class Kind {
        /** Ran to completion, every audit green. */
        pass,
        /** InvariantAuditor violation or simulator abort. */
        violation,
        /** Simulated-event budget tripped: livelock. */
        hang,
        /** The model failed outside the simulator (FatalError). */
        error,
    };
    Kind kind = Kind::pass;
    /** The abort/violation/interrupt message (empty for pass). */
    std::string what;

    bool failed() const { return kind != Kind::pass; }
};

const char *toString(OracleOutcome::Kind kind);

/**
 * Stable identity of a failure: the kind plus the violated
 * invariant's name (counters and tick values stripped), so shrinking
 * keeps only subsets that reproduce the *same* failure, not any
 * failure.
 */
std::string failureSignature(const OracleOutcome &outcome);

/**
 * Run @p schedule through the plant described by @p cfg under
 * @p seed: audit always on and fatal, the schedule injected through
 * a ScriptedFaultModel, the simulated-event budget from [mc]
 * event_budget as the hang oracle. @p limits carries campaign
 * cancellation; a genuine external cancel rethrows SimInterrupted,
 * every deterministic failure is returned as an outcome.
 */
OracleOutcome runScheduleOracle(const Config &cfg,
                                const FaultSchedule &schedule,
                                std::uint64_t seed,
                                const ReplicaLimits &limits = {});

/** Exploration knobs beyond the config's [mc] section. */
struct ExplorerOptions {
    /** Parallel oracle workers. */
    unsigned jobs = 1;
    /** Campaign journal path ("" = no persistence). */
    std::string journalPath;
    /** Skip schedules the journal already has. */
    bool resume = false;
    /** Where to write the shrunk reproducer ("" = don't write). */
    std::string reproPath;
    /** Config file name, embedded in the replay command hint. */
    std::string configPath = "<config.ini>";
    /** Progress/verdict stream (nullptr = silent). */
    std::ostream *log = nullptr;
};

/** What an exploration found. */
struct ExplorerReport {
    /** Schedules the strategy generated (post dedup/budget). */
    std::size_t schedules = 0;
    /** Oracle runs executed / skipped via journal resume. */
    std::size_t executed = 0;
    std::size_t skipped = 0;
    /** Failing schedules among all explored. */
    std::size_t failures = 0;
    /** A failure was found (fields below are then valid). */
    bool found = false;
    /** First failing schedule in grid order. */
    FaultSchedule failing;
    /** Its 1-minimal shrink. */
    FaultSchedule minimal;
    /** The minimal schedule's outcome (same signature as failing). */
    OracleOutcome outcome;
    /** Oracle runs the shrink spent. */
    std::size_t shrinkRuns = 0;
    /** Exact CLI to replay the minimal reproducer. */
    std::string replayCommand;
    /** Where the reproducer was written ("" if not requested). */
    std::string reproPath;
};

/**
 * Explore the fault-schedule space of @p cfg (its [mc] section picks
 * strategy, horizon, budgets) and shrink the first failure found.
 */
ExplorerReport exploreFaultSchedules(const Config &cfg,
                                     const ExplorerOptions &opts);

} // namespace holdcsim::mc

#endif // HOLDCSIM_MC_EXPLORER_HH
