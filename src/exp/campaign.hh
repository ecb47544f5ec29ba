/**
 * @file
 * The grid runner: crash-tolerant campaign execution.
 *
 * A CampaignRunner runs the (sweep point x replica) grid of
 * independent simulations on parallelFor, shared-nothing -- each run
 * builds its own Simulator, config and stats inside the run callback
 * -- with deterministic per-replica seeding, so an N-way parallel
 * run is stat-for-stat identical to the sequential one. The runner
 * does not know what a DataCenter is: the callback receives (point,
 * replica, seed, limits) and returns named metric values.
 *
 * Around that grid it adds the machinery long campaigns need to
 * survive real machines: an append-only journal of completed cells
 * (resume skips them), a per-replica watchdog (wall-clock deadline
 * plus simulated-event budget) that cancels hung replicas through
 * the simulator's cooperative interrupt flag, retry with exponential
 * backoff via fault::RetryPolicy, quarantine of cells that keep
 * failing (the campaign completes without them instead of aborting),
 * and SIGINT/SIGTERM handling that stops launching new cells,
 * cancels running ones and leaves the journal flushed so the next
 * --resume picks up exactly where the signal landed.
 *
 * Determinism contract: a cell's seed depends only on (base seed,
 * replica), never on execution order, retries or worker count -- so
 * an interrupted-and-resumed campaign aggregates to a byte-identical
 * CSV versus an uninterrupted one.
 */

#ifndef HOLDCSIM_EXP_CAMPAIGN_HH
#define HOLDCSIM_EXP_CAMPAIGN_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aggregate.hh"
#include "fault/retry_policy.hh"
#include "journal.hh"

namespace holdcsim {

/**
 * Deterministic seed of replica @p replica of a base-seeded
 * campaign. Replica 0 keeps the base seed (a 1-replica campaign
 * reproduces the plain run exactly); higher replicas get a
 * splitmix64-mixed stream so replica seeds never collide or
 * correlate. A function of (base, replica) only -- never of worker
 * count or execution order.
 */
std::uint64_t replicaSeed(std::uint64_t base, std::uint64_t replica);

/** Fill @p table from @p records (all rows, in grid order). */
void tabulate(const std::vector<ReplicaRecord> &records,
              ResultTable &table);

/**
 * Cancellation wiring a campaign hands to each replica run. The run
 * callback installs these on its Simulator (setInterruptFlag /
 * setEventBudget) so the watchdog can cancel it cooperatively.
 */
struct ReplicaLimits {
    /** Set when the watchdog or a signal cancels this replica. */
    const std::atomic<bool> *cancel = nullptr;
    /** Simulated-event budget (0 = unlimited). */
    std::uint64_t maxEvents = 0;
};

/** Campaign execution knobs. */
struct CampaignOptions {
    /**
     * Worker threads (1 = inline sequential reference execution,
     * 0 = one per hardware thread).
     */
    unsigned jobs = 1;
    /** Replications per sweep point. */
    std::size_t replicas = 1;
    /** Root seed; replica r runs with replicaSeed(baseSeed, r). */
    std::uint64_t baseSeed = 1;
    /** Journal file ("" = no persistence; quarantine still works). */
    std::string journalPath;
    /** Replay the journal and skip already-completed cells. */
    bool resume = false;
    /** Wall-clock deadline per replica attempt (0 = no watchdog). */
    double watchdogSec = 0.0;
    /** Simulated-event budget per replica attempt (0 = unlimited). */
    std::uint64_t maxEvents = 0;
    /**
     * Attempts per cell and backoff between them. maxAttempts counts
     * total tries; backoff ticks are slept as host nanoseconds.
     */
    RetryPolicy retry;
};

/** What a campaign run accomplished. */
struct CampaignResult {
    /** Completed cells (journaled + fresh), in grid order. */
    std::vector<ReplicaRecord> records;
    /** Cells given up on after maxAttempts failures. */
    std::vector<QuarantineRecord> quarantined;
    /** Cells executed by this invocation. */
    std::size_t executed = 0;
    /** Cells skipped because the journal already had them. */
    std::size_t skipped = 0;
    /** Failed attempts that were retried. */
    std::uint64_t retries = 0;
    /** Attempts cancelled by the wall-clock watchdog. */
    std::uint64_t watchdogCancels = 0;
    /** A SIGINT/SIGTERM (or requestInterrupt) cut the campaign
     *  short; unfinished cells are absent and resumable. */
    bool interrupted = false;
};

/** Journal + watchdog + quarantine harness around a sweep grid. */
class CampaignRunner
{
  public:
    /**
     * One replica run. Must build all state locally (it is called
     * concurrently), honor @p limits by installing them on its
     * Simulator, and may throw: SimInterrupted marks a cancelled
     * attempt, anything else a failed one -- both are retried, then
     * quarantined.
     */
    using RunFn = std::function<MetricRow(
        std::size_t point, std::size_t replica, std::uint64_t seed,
        const ReplicaLimits &limits)>;

    explicit CampaignRunner(CampaignOptions opts);

    /**
     * Run the campaign over @p points sweep points. @p config_text
     * is the canonical campaign description (config + sweep spec);
     * together with the grid shape and base seed it keys the journal,
     * so a journal from a different campaign is never replayed.
     */
    CampaignResult run(std::size_t points,
                       const std::string &config_text, const RunFn &fn);

    /**
     * Install SIGINT/SIGTERM handlers that raise the campaign
     * interrupt flag (async-signal-safe: the handler only stores to
     * an atomic). Running cells are cancelled cooperatively, the
     * journal is left flushed, and run() returns with interrupted
     * set.
     */
    static void installSignalHandlers();

    /** Raise the interrupt flag directly (tests, embedding code). */
    static void requestInterrupt();

    /** Whether the interrupt flag is raised. */
    static bool interruptRequested();

    /** Lower the interrupt flag (between test campaigns). */
    static void clearInterrupt();

  private:
    CampaignOptions _opts;
};

} // namespace holdcsim

#endif // HOLDCSIM_EXP_CAMPAIGN_HH
