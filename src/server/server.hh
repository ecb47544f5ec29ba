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
 * Local power policy (paper sections III-F, IV-B and IV-C) is built
 * in. By default an idle server stays in S0 -- the "Active-Idle"
 * baseline, whose cores still use C-states and whose package reaches
 * PC6 through the core idle governor. setDelayTimer(tau) gives it the
 * single delay timer of case study IV-B: tau after it falls idle it
 * suspends (default S3), new work cancels the countdown, and work
 * arriving during sleep triggers the wake path; tau = 0 is the
 * aggressive on-off policy. The WASP sleep pools of case study IV-C
 * are sched/adaptive_policy retuning tau at runtime; global policies
 * may also call sleep()/wakeUp() directly.
 *
 * An idle server schedules nothing: its core C-state ladder and its
 * delay timer are kept in closed form by its CorePool (see core.hh)
 * and replayed, at their own ticks, before anything reads or changes
 * the server -- every public member that depends on them settles
 * first. Reads are logically const: they compute the state the server
 * already has at curTick(). The server keeps only tau and the sleep
 * target; the countdown is the pool's host timer.
 *
 * Footprint: a 4-core server is one 344-byte Server (the pool and the
 * local scheduler inline) plus its 288-byte block of core slots; it
 * shares its profile and its task sink with the fleet, and builds its
 * cores' busy state only on its first task. What only typed, faulted
 * or cancelling servers touch (task types, crash and kill counters)
 * sits in a block built on first use. A 100k-server plant is mostly
 * these two blocks, so AllocBudget bounds them.
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
 * Where servers hand their finished tasks. One sink serves a whole
 * fleet (GlobalScheduler is one), so a server holds a pointer to it
 * rather than a callback of its own.
 */
class TaskSink
{
  public:
    virtual ~TaskSink() = default;

    /** @p server finished @p task; may submit follow-up work. */
    virtual void taskDone(Server &server, const TaskRef &task) = 0;
};

/** A TaskSink that forwards to a callable (tests, small programs). */
class TaskDoneFn final : public TaskSink
{
  public:
    explicit TaskDoneFn(std::function<void(Server &, const TaskRef &)> fn)
        : _fn(std::move(fn))
    {}

    void taskDone(Server &server, const TaskRef &task) override
    {
        _fn(server, task);
    }

  private:
    std::function<void(Server &, const TaskRef &)> _fn;
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
    /**
     * Build a server that keeps its own copy of @p profile, so a
     * caller may pass a temporary.
     */
    Server(Simulator &sim, const ServerConfig &config,
           const ServerPowerProfile &profile);

    /**
     * Build a server that shares the immutable @p profile: a plant
     * of identical servers holds one profile, not one per server.
     * @p placement, when given, is where a fleet puts its cores (see
     * CorePlacement); by default the server allocates them.
     */
    Server(Simulator &sim, const ServerConfig &config,
           std::shared_ptr<const ServerPowerProfile> profile,
           const CorePlacement *placement = nullptr);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Deschedules any pending wake event. */
    ~Server() override;

    unsigned id() const { return _id; }
    unsigned numCores() const { return _corePool.size(); }
    /** Whether the cores' busy block is held (a core runs a task). */
    bool holdsBusyBlock() const { return _corePool.holdsBusyBlock(); }
    /** View of core @p i; panics unless i < numCores(). */
    Core core(unsigned i);

    /**
     * Where finished tasks go (null: nowhere). Not owned: the sink
     * must outlive the server's last completion.
     */
    void setTaskSink(TaskSink *sink) { _taskSink = sink; }

    /** Whether this server is configured to serve @p type tasks. */
    bool servesType(int type) const;
    /** Whether it serves only its ServerConfig::taskTypes. */
    bool typed() const { return _extras && !_extras->taskTypes.empty(); }

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
     * Run a delay timer: whenever the server falls idle it suspends
     * to @p target (S3 or S5) @p tau later, unless work arrives
     * first. Takes effect immediately: on an idle server the
     * countdown restarts from now. tau = maxTick (the default) turns
     * the timer off: the server then never self-suspends. Nothing is
     * scheduled: the timer fires, at its tick, when the server is
     * next read.
     */
    void setDelayTimer(Tick tau, SState target = SState::s3);

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
    std::uint64_t failures() const { return _extras ? _extras->failures : 0; }
    /** Tasks aborted mid-execution by crashes or cancellation. */
    std::uint64_t
    tasksKilled() const
    {
        return _extras ? _extras->tasksKilled : 0;
    }
    /** Energy burned on executions that were later discarded. */
    Joules
    wastedJoules() const
    {
        return _extras ? _extras->wastedJoules : 0.0;
    }
    /** Accrue energy and close residency books at the current tick. */
    void finishStats();
    /** Zero energies, residencies and counters (end of warmup). */
    void resetStats();
    ///@}

    Simulator &simulator() const { return _corePool.sim(); }
    const ServerPowerProfile &profile() const
    {
        return _corePool.profile();
    }

  private:
    /** The end of a wake transition: the server, no std::function. */
    struct WakeEvent final : Event {
        explicit WakeEvent(Server &s)
            : Event("server.wakeDone", Event::powerPriority), server(s)
        {}
        void process() override { server.wakeDone(); }
        Server &server;
    };

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
    /** The delay timer ran out at @p at. */
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
    /** The server ran out of work: start the delay timer, if on. */
    void becameIdle();
    /** The wake transition is over: back in S0, run what waits. */
    void wakeDone();
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
    /** Count @p aborted as a killed task and its energy as wasted. */
    void countKilled(const Core::AbortResult &aborted);

    /** What an untyped, fault-free server never touches. */
    struct Extras {
        /** ServerConfig::taskTypes, sorted; empty = all types. */
        std::vector<int> taskTypes;
        std::uint64_t failures = 0;
        std::uint64_t tasksKilled = 0;
        Joules wastedJoules = 0.0;
    };
    /** _extras, built on first use. */
    Extras &extras();

    /** Per-core state, one slot per core, the shared profile, the
     *  simulator and the delay timer's countdown (see core.hh).
     *  Mutable: const reads settle it. */
    mutable CorePool _corePool;
    LocalScheduler _local;
    /** Task types and fault counters; null until first needed. */
    std::unique_ptr<Extras> _extras;
    TaskSink *_taskSink = nullptr;
    /** The delay timer's tau; maxTick when off. */
    Tick _tau = maxTick;

    Tick _lastAccrue = 0;
    EnergyBreakdown _energy;
    StateResidency _residency;
    std::uint64_t _tasksCompleted = 0;
    std::uint64_t _wakeTransitions = 0;
    std::uint64_t _sleepTransitions = 0;
    WakeEvent _wakeDoneEvent;

    unsigned _id;
    /** Tasks executing on cores (at most numCores()). */
    unsigned _running = 0;
    /** Cached timeline track (resolved on first traced transition). */
    TraceTrackId _traceTrack = noTraceTrack;
    SState _sstate = SState::s0;
    /** What the delay timer suspends to. */
    SState _sleepTarget = SState::s3;
    PkgCState _pkgState = PkgCState::pc0;
    bool _waking = false;
    bool _failed = false;
    /** Whether the package may enter PC6 (runtime-tunable). */
    bool _allowPkgC6;
    bool _inDispatch = false;
    /** The ServerState _residency last entered (what it credits). */
    std::uint8_t _recordedState = 0;
};

static_assert(sizeof(Server) <= 344, "the Server object grew");
// One fleet stride of a default server; AllocBudget records it.
static_assert(sizeof(Server) + CorePool::slotBlockBytes(4) <= 648,
              "a 4-core server grew");

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_SERVER_HH
