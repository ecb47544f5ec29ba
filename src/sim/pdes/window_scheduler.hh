/**
 * @file
 * Conservative (null-message-free) parallel run loop.
 *
 * The WindowScheduler advances N partitions in lock-stepped time
 * windows of width `lookahead`, the minimum latency of any
 * cross-partition link. Within a window [floor, floor + lookahead)
 * every partition executes its local events concurrently on its
 * own worker thread; an interaction that crosses a partition
 * boundary cannot take effect earlier than `lookahead` in the future,
 * so it is recorded as a timestamped outbox message instead of a
 * direct call. At the window barrier a single thread drains every
 * outbox in a deterministic (when, sentAt, src, seq) merge order,
 * injects the messages into their destination queues at
 * Event::mailboxPriority, recomputes the global minimum next event
 * tick (fast-forwarding over idle gaps) and opens the next window.
 * No null messages, no rollback: the window bound itself is the
 * conservative guarantee.
 */

#ifndef HOLDCSIM_SIM_PDES_WINDOW_SCHEDULER_HH
#define HOLDCSIM_SIM_PDES_WINDOW_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "sim/types.hh"

#include "partition.hh"

namespace holdcsim::pdes {

/** Barrier-window scheduler driving N partitions in parallel. */
class WindowScheduler
{
  public:
    /** Window-protocol counters and per-worker timing (telemetry;
     *  the timing fields are wall-clock and must stay out of
     *  determinism-checked statistics dumps). */
    struct Stats {
        Tick lookahead = 0;
        /** Barrier phases executed (multi-worker runs only). */
        std::uint64_t windows = 0;
        /** Cross-partition messages delivered. */
        std::uint64_t messages = 0;
        /** Windows whose floor jumped past the previous bound. */
        std::uint64_t fastForwards = 0;
        /** Simulated events, summed over partitions. */
        std::uint64_t eventsProcessed = 0;
        /** Wall seconds each worker spent inside runBefore(). */
        std::vector<double> workerBusySeconds;
        /** Wall seconds each worker spent blocked at the barrier. */
        std::vector<double> workerBlockedSeconds;

        /** Fraction of total worker wall time spent blocked. */
        double blockedFraction() const;
    };

    /**
     * @param partitions one entry per worker; not owned, must stay
     *                   alive for the run. Partition i runs on
     *                   worker thread i.
     * @param lookahead  window width; every Partition::post() latency
     *                   must be >= this or the run aborts at the
     *                   drain.
     */
    WindowScheduler(std::vector<Partition *> partitions, Tick lookahead);

    /**
     * Forward a cooperative interrupt flag to every partition's
     * simulator (same contract as Simulator::setInterruptFlag). A
     * tripped flag surfaces as SimInterrupted from run().
     */
    void setInterruptFlag(const std::atomic<bool> *flag);

    /**
     * Hook invoked single-threaded at every window barrier, before
     * the mailbox drain, with the floor of the window that just
     * executed -- the InvariantAuditor's cross-partition checks run
     * here. A throw (SimAbortError) stops the run and is rethrown
     * from run(). Multi-worker runs only.
     */
    void setBoundaryHook(std::function<void(Tick floor)> hook);

    /**
     * Run every partition to completion (no foreground events left
     * anywhere, all outboxes empty, each partition's deferred timers
     * run out as Simulator::run() runs them). With one partition this is
     * exactly Simulator::run() -- no threads, no windows -- so
     * `pods:1` matches the sequential kernel event for event. The
     * first exception raised in a partition (lowest partition index
     * wins, deterministically) or at a barrier is rethrown here.
     *
     * @return the maximum final tick over partitions.
     */
    Tick run();

    const Stats &stats() const { return _stats; }

  private:
    void runSingle();
    void runParallel();
    /** Worker w's phase loop (body of its thread). */
    template <typename Barrier> void workerLoop(std::size_t w, Barrier &sync);
    /** Barrier completion: audit, drain, plan the next window. */
    void drainAndPlan() noexcept;
    /** Rethrow the run's first failure, if any. */
    void propagateErrors();

    std::vector<Partition *> _parts;
    Tick _lookahead;
    std::function<void(Tick)> _boundaryHook;
    const std::atomic<bool> *_interrupt = nullptr;

    // Window state: written only single-threaded (setup or barrier
    // completion while every worker is blocked), read by workers
    // between barriers -- the barrier orders the accesses.
    Tick _floor = 0;
    Tick _bound = 0;
    bool _done = false;
    std::vector<std::exception_ptr> _errors;
    std::exception_ptr _barrierError;

    Stats _stats;
};

} // namespace holdcsim::pdes

#endif // HOLDCSIM_SIM_PDES_WINDOW_SCHEDULER_HH
