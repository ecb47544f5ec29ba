/**
 * @file
 * Fault injection and availability accounting.
 *
 * The FaultManager owns a FaultModel and drives its episodes into
 * the simulated plant: it crashes and repairs servers, switches,
 * line cards and links at the model's times, routes the damage to
 * the right subsystem (killed tasks to the global scheduler for
 * retry, severed flows and stale routes to the network), and keeps
 * per-component up/down residencies from which availability and
 * downtime statistics are derived.
 *
 * Injection events are background events: a fault schedule extending
 * past the end of the workload never keeps the simulation alive.
 */

#ifndef HOLDCSIM_FAULT_FAULT_MANAGER_HH
#define HOLDCSIM_FAULT_FAULT_MANAGER_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "fault_model.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

class Server;
class Network;
class GlobalScheduler;

/** Which component classes the manager injects faults into. */
struct FaultManagerConfig {
    bool faultServers = true;
    bool faultSwitches = false;
    bool faultLinecards = false;
    bool faultLinks = false;
};

/** Drives a FaultModel's episodes into servers and the fabric. */
class FaultManager
{
  public:
    /** Up/down bookkeeping for one faultable component. */
    struct ComponentStats {
        FaultTarget target;
        /** Crashes injected so far. */
        std::uint64_t faults = 0;
        /** Residency over {0 = up, 1 = down}. */
        StateResidency residency;
        bool down = false;
    };

    /**
     * @param sim     engine
     * @param model   fault schedule source (owned)
     * @param servers server fleet (server i must have id i); not
     *                copied, so it must outlive the manager
     * @param net     fabric, may be null (server faults only)
     * @param sched   scheduler notified of kills, may be null
     * @param config  which component classes to fault
     *
     * Enumerates the faultable components per @p config and
     * schedules each one's first episode immediately.
     */
    FaultManager(Simulator &sim, std::unique_ptr<FaultModel> model,
                 std::span<Server *const> servers, Network *net,
                 GlobalScheduler *sched,
                 const FaultManagerConfig &config = {});

    ~FaultManager();
    FaultManager(const FaultManager &) = delete;
    FaultManager &operator=(const FaultManager &) = delete;

    /**
     * Observer of server up/down edges (beyond the scheduler, which
     * is always notified): invoked with the server index and whether
     * it just went down. The orchestration layer uses this to
     * reschedule containers off crashed hosts. Called after the
     * server and scheduler have processed the edge.
     */
    using ServerEventFn = std::function<void(std::size_t, bool down)>;
    void setServerEventHook(ServerEventFn fn)
    {
        _serverEvent = std::move(fn);
    }

    /** @name Realized schedule (repro export, post-mortems) */
    ///@{
    /**
     * Every episode injected so far, in firing order, at its actual
     * fire ticks; record.upAt is maxTick while the component is still
     * down.
     */
    const std::vector<ScheduledFault> &episodeLog() const
    {
        return _episodeLog;
    }

    /**
     * Write episodeLog() as a fault trace (writeFaultTrace) that
     * fault.fault_trace or --replay-schedule replays, so any run --
     * stochastic included -- replays deterministically without its
     * original seed. Episodes still open are closed one tick past the
     * current clock.
     */
    void writeScheduleTrace(std::ostream &os) const;
    ///@}

    /** @name Introspection and statistics */
    ///@{
    std::size_t numTargets() const { return _targets.size(); }
    /** Total crash episodes injected so far. */
    std::uint64_t faultsInjected() const { return _faultsInjected; }
    /** Components currently down. */
    std::size_t currentlyDown() const { return _currentlyDown; }

    /** Per-component books (index < numTargets()). */
    const ComponentStats &componentStats(std::size_t i) const
    {
        return _targets.at(i)->stats;
    }

    /**
     * Fraction of measured time component @p i was up. Call
     * finishStats() first for books closed at the current tick.
     */
    double availability(std::size_t i) const;

    /** Mean availability over every managed component. */
    double fleetAvailability() const;

    /** Total down time summed over every component. */
    Tick totalDowntime() const;

    /** Close every residency at the current tick. */
    void finishStats();
    /** Zero residencies and counters (end of warmup). */
    void resetStats();
    ///@}

  private:
    struct TargetState {
        ComponentStats stats;
        /** The episode currently being played (down or pending). */
        FaultRecord pending;
        /** Fires at pending.downAt, then at pending.upAt. */
        EventFunctionWrapper event;
        /** Timeline track, resolved on this target's first fault. */
        TraceTrackId traceTrack = noTraceTrack;
        /** Episode-log slot of the open episode (npos when up). */
        std::size_t openEpisode = static_cast<std::size_t>(-1);

        TargetState(FaultManager &mgr, const FaultTarget &t);
    };

    /** Ask the model for the episode after @p from and arm it. */
    void armNext(TargetState &ts, Tick from);
    /** The armed event fired: crash or repair the component. */
    void onEvent(TargetState &ts);
    void applyDown(TargetState &ts);
    void applyUp(TargetState &ts);
    /** Record @p ts's up/down edge on its fault timeline track. */
    void traceEdge(TargetState &ts, bool down);
    /** Abort-dump contributor: schedule so far + components down. */
    void dumpAbortContext(std::ostream &os) const;

    Simulator &_sim;
    std::unique_ptr<FaultModel> _model;
    std::span<Server *const> _servers;
    Network *_net;
    GlobalScheduler *_sched;

    ServerEventFn _serverEvent;
    std::vector<std::unique_ptr<TargetState>> _targets;
    std::vector<ScheduledFault> _episodeLog;
    std::uint64_t _faultsInjected = 0;
    std::size_t _currentlyDown = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_FAULT_FAULT_MANAGER_HH
