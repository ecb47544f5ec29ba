/**
 * @file
 * Full server model (paper sections III-A and III-F).
 *
 * A Server is a multi-core machine with a local task queue, a DRAM
 * component, platform hardware (PSU, fans, disks), an ACPI system
 * sleep state machine (S0/S3/S5), and a hierarchical power model:
 * per-core C-states, a derived package C-state, DRAM power modes and
 * platform power. Tasks submitted while the server sleeps are
 * buffered and trigger an S3 wake that costs the profile's wake
 * latency at high power -- the effect at the heart of the delay-timer
 * case studies.
 *
 * Power policy is pluggable: a ServerPowerController is notified on
 * busy/idle transitions and drives sleep()/wakeUp(), or arms the
 * server's sleep timer (a delay timer) with armSleepTimer().
 *
 * An idle server schedules nothing: its core C-state ladder and its
 * sleep timer are kept in closed form by its CorePool (see core.hh)
 * and replayed, at their own ticks, before anything reads or changes
 * the server -- every public member that depends on them settles
 * first. Reads are logically const: they compute the state the server
 * already has at curTick().
 */

#ifndef HOLDCSIM_SERVER_SERVER_HH
#define HOLDCSIM_SERVER_SERVER_HH

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core.hh"
#include "local_scheduler.hh"
#include "power_profile.hh"
#include "power_state.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "task.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

class Server;

/**
 * Power-management policy hook. The server calls becameBusy() when
 * work arrives and becameIdle() when its last task completes; the
 * controller reacts by calling Server::sleep()/wakeUp(), or by arming
 * the server's sleep timer.
 */
class ServerPowerController
{
  public:
    virtual ~ServerPowerController() = default;

    /** Called once when installed on @p server. */
    virtual void attach(Server &server) { (void)server; }

    /** The server has work again (task submitted or started). */
    virtual void becameBusy(Server &server) = 0;

    /** The server just ran out of work (no queued or running task). */
    virtual void becameIdle(Server &server) = 0;
};

/** Static configuration for one server. */
struct ServerConfig {
    /** Identifier used in callbacks and stats. */
    unsigned id = 0;
    /** Number of cores. */
    unsigned nCores = 4;
    /**
     * Per-core base frequencies (GHz) for heterogeneous processors;
     * empty means every core runs at the profile's P0 frequency.
     */
    std::vector<double> coreFreqGhz;
    /** Local queue structure. */
    LocalQueueMode queueMode = LocalQueueMode::unified;
    /** Core-pick policy for per-core queues. */
    CorePickPolicy corePick = CorePickPolicy::roundRobin;
    /** Whether the package may enter PC6. */
    bool allowPkgC6 = true;
    /** Task types this server serves; empty = all types. */
    std::set<int> taskTypes;
};

/** Per-component energy totals (paper Figure 9 breakdown). */
struct EnergyBreakdown {
    Joules cpu = 0.0;      ///< cores + package/uncore
    Joules dram = 0.0;     ///< memory
    Joules platform = 0.0; ///< PSU, fans, disk, NIC

    Joules total() const { return cpu + dram + platform; }
};

/** A complete simulated server. */
class Server : private CoreHost
{
  public:
    /** Completion callback: (server, finished task). */
    using TaskDoneFn = std::function<void(Server &, const TaskRef &)>;

    /**
     * Build a server that keeps its own copy of @p profile, so a
     * caller may pass a temporary.
     */
    Server(Simulator &sim, const ServerConfig &config,
           const ServerPowerProfile &profile);

    /**
     * Build a server that shares the immutable @p profile: a plant
     * of identical servers holds one profile, not one per server.
     */
    Server(Simulator &sim, const ServerConfig &config,
           std::shared_ptr<const ServerPowerProfile> profile);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Deschedules any pending wake event. */
    ~Server();

    unsigned id() const { return _id; }
    unsigned numCores() const { return _corePool.size(); }
    /** Whether the cores' busy state exists (a task has started). */
    bool busyStateBuilt() const { return _corePool.busyStateBuilt(); }
    /** View of core @p i; panics unless i < numCores(). */
    Core core(unsigned i);

    /** Install the power-management policy (may be null). */
    void setController(std::unique_ptr<ServerPowerController> ctrl);
    ServerPowerController *controller() { return _controller.get(); }

    /** Set the task-completion callback. */
    void setTaskDoneCallback(TaskDoneFn fn) { _taskDone = std::move(fn); }

    /** Whether this server is configured to serve @p type tasks. */
    bool servesType(int type) const;

    /**
     * Submit a task. If the server sleeps, the task is buffered and
     * a wake transition starts; otherwise it is queued/dispatched
     * according to the local scheduler.
     */
    void submit(const TaskRef &task);

    /** @name Load introspection (global scheduler / policies) */
    ///@{
    /** Buffered tasks not yet running. */
    std::size_t pendingTasks() const { return _local.pending(); }
    /** Tasks currently executing on cores. */
    std::size_t runningTasks() const { return _running; }
    /** pending + running: the "pending jobs per server" load metric. */
    std::size_t load() const { return pendingTasks() + _running; }
    /** In S0, not waking, with no work at all. */
    bool
    isIdle() const
    {
        settle();
        return idleNow();
    }
    /** In S3/S5 (not waking). */
    bool
    isAsleep() const
    {
        settle();
        return _sstate != SState::s0 && !_waking;
    }
    bool isWaking() const { return _waking; }
    ///@}

    /** @name Power control (used by controllers and global policies) */
    ///@{
    /**
     * Enter system sleep state @p target (S3 or S5). Ignored (returns
     * false) when tasks are running or queued, or when already
     * asleep/waking.
     */
    bool sleep(SState target = SState::s3);

    /** Begin waking from S3/S5 if asleep; no-op otherwise. */
    void wakeUp();

    /**
     * Arm the sleep timer: @p delay (finite) after now the server
     * tries sleep(@p target), which does nothing unless it is then
     * idle. Replaces a pending timer. Nothing is scheduled: the
     * timer fires, at its tick, when the server is next read.
     */
    void armSleepTimer(Tick delay, SState target);
    /** Disarm the sleep timer, if armed. */
    void cancelSleepTimer();

    /** Disallow/allow package C6 at runtime (WASP pools). */
    void setAllowPkgC6(bool allow);
    ///@}

    /** @name Fault injection (driven by the fault subsystem) */
    ///@{
    /**
     * Crash the machine. Every in-flight task is aborted (its partial
     * energy counted as wasted) and every buffered task discarded;
     * the killed tasks are returned so the global scheduler can retry
     * them elsewhere. Until repair() the server draws no power,
     * refuses submissions and reports ServerState::failed.
     * @pre !failed()
     */
    std::vector<TaskRef> fail();

    /**
     * Bring the machine back after a crash. The server reboots into
     * S0 idle with empty queues; any boot latency is assumed to be
     * part of the repair interval the fault model chose.
     * @pre failed()
     */
    void repair();

    /** Whether the machine is currently crashed. */
    bool failed() const { return _failed; }

    /**
     * Cancel one task, wherever it currently is (buffered or
     * executing). Used when a job fails and its siblings must not
     * keep burning cycles. Returns whether the task was found.
     */
    bool cancelTask(JobId job, TaskId task);
    ///@}

    /** Observable state per the paper's Figure 8 categories. */
    ServerState
    observableState() const
    {
        settle();
        return stateNow();
    }

    SState
    sstate() const
    {
        settle();
        return _sstate;
    }
    PkgCState
    pkgState() const
    {
        settle();
        return _pkgState;
    }

    /** @name Power and energy */
    ///@{
    /** Instantaneous total power draw. */
    Watts power() const;
    /** Component energies accrued so far (call accrue() first for
     *  up-to-the-tick figures). */
    const EnergyBreakdown &
    energy() const
    {
        settle();
        return _energy;
    }
    /** Integrate energy up to the current simulated time. */
    void accrue();
    ///@}

    /** @name Statistics */
    ///@{
    const StateResidency &
    residency() const
    {
        settle();
        return _residency;
    }
    std::uint64_t tasksCompleted() const { return _tasksCompleted; }
    std::uint64_t wakeTransitions() const { return _wakeTransitions; }
    std::uint64_t
    sleepTransitions() const
    {
        settle();
        return _sleepTransitions;
    }
    /** Number of crashes injected into this server. */
    std::uint64_t failures() const { return _failures; }
    /** Tasks aborted mid-execution by crashes or cancellation. */
    std::uint64_t tasksKilled() const { return _tasksKilled; }
    /** Energy burned on executions that were later discarded. */
    Joules wastedJoules() const { return _wastedJoules; }
    /** Accrue energy and close residency books at the current tick. */
    void finishStats();
    /** Zero energies, residencies and counters (end of warmup). */
    void resetStats();
    ///@}

    Simulator &simulator() { return _sim; }
    const ServerPowerProfile &profile() const { return *_profile; }

  private:
    /** @name CoreHost interface (driven by the core pool) */
    ///@{
    void coreAccrue(Tick at) override { accrueTo(at); }
    void
    coreStateChanged(Tick at) override
    {
        recomputePkgState(at);
        updateResidency(at);
    }
    void
    coreTaskDone(unsigned core, const TaskRef &task) override
    {
        (void)core;
        taskFinished(task);
    }
    /** The sleep timer ran out at @p at. */
    void
    hostTimerExpired(Tick at) override
    {
        sleepAt(_sleepTarget, at);
    }
    bool hostTimerStopsCores() const override { return idleNow(); }
    ///@}

    /** Replay the idle transitions due by now (see the file comment). */
    void settle() const { _corePool.settle(); }
    /** isIdle() without settling: what sleep() requires. */
    bool
    idleNow() const
    {
        return !_failed && _sstate == SState::s0 && !_waking &&
               load() == 0;
    }
    /** observableState() without settling. */
    ServerState stateNow() const;
    /** sleep(), taking effect at tick @p at (<= now). */
    bool sleepAt(SState target, Tick at);
    /** Integrate energy up to tick @p at. */
    void accrueTo(Tick at);
    /** Give every free core work while any is available. */
    void dispatch();
    /** Core @p core_id finished @p task. */
    void taskFinished(const TaskRef &task);
    /** Recompute the package C-state from core states at @p at. */
    void recomputePkgState(Tick at);
    /** Update the observable-state residency tracker at @p at. */
    void updateResidency(Tick at);
    /** Emit the observable state at @p at to the timeline tracer. */
    void traceState(Tick at);
    /** Component powers at this instant. */
    struct ComponentPower {
        Watts cpu, dram, platform;
    };
    ComponentPower componentPower() const;

    Simulator &_sim;
    /** Shared and immutable; cores reference it. */
    std::shared_ptr<const ServerPowerProfile> _profile;
    /** ServerConfig::taskTypes, sorted; empty = all types. */
    std::vector<int> _taskTypes;

    /** Per-core state, one slot per core, and the sleep timer (see
     *  core.hh). Mutable: const reads settle it. */
    mutable CorePool _corePool;
    LocalScheduler _local;
    std::unique_ptr<ServerPowerController> _controller;
    TaskDoneFn _taskDone;

    SState _sstate = SState::s0;
    /** What the sleep timer suspends to. */
    SState _sleepTarget = SState::s3;
    bool _waking = false;
    bool _failed = false;
    /** Whether the package may enter PC6 (runtime-tunable). */
    bool _allowPkgC6;
    PkgCState _pkgState = PkgCState::pc0;
    unsigned _id;
    EventFunctionWrapper _wakeDoneEvent;

    std::size_t _running = 0;
    bool _inDispatch = false;

    Tick _lastAccrue = 0;
    EnergyBreakdown _energy;
    StateResidency _residency;
    std::uint64_t _tasksCompleted = 0;
    std::uint64_t _wakeTransitions = 0;
    std::uint64_t _sleepTransitions = 0;
    std::uint64_t _failures = 0;
    std::uint64_t _tasksKilled = 0;
    Joules _wastedJoules = 0.0;

    /** Cached timeline track (resolved on first traced transition). */
    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_SERVER_HH
