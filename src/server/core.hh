/**
 * @file
 * Processor core model (paper section III-A).
 *
 * Each core is a processing unit that serves one task at a time. The
 * task processing time is determined by the task's service time, the
 * core's operating frequency (P-state and per-core base frequency for
 * heterogeneous processors), and the task's computation
 * intensiveness. When idle, the built-in idle governor demotes the
 * core through progressively deeper C-states after the profile's
 * residency thresholds; starting a task pays the exit latency of the
 * state the core is found in.
 *
 * Storage layout: cores are not individually-allocated objects. A
 * server owns one CorePool, which keeps its cores in one exact-size
 * array of 80-byte per-core slots: in the block its DataCenter builds
 * the whole fleet in, or in one allocation of its own for a server
 * built alone. A slot holds what every core carries, idle or not --
 * C-state and P-state (a byte each), the tick its next idle stage is
 * due and its residency book, sized to the five C-states -- which is
 * all an idle-governor demotion or a power sum reads. What matters
 * only while a task runs (the task, its start tick and its completion
 * event) lives in a second array, the busy block, which the pool holds
 * only while one of its cores runs a task: the first task start takes
 * one from the Simulator's BlockCache (built, and only built when the
 * cache has none of this core count), and the last completion or
 * abort gives it back. A running-core count decides both, so neither
 * side scans the cores, and a fleet holds as many busy blocks as it
 * ever had servers busy at once. Per-core base frequencies
 * (heterogeneous pools only) and trace labels are likewise one
 * pool-level array each, allocated only when given. The `Core` class
 * is a 16-byte copyable view (pool pointer + dense id) carrying the
 * familiar per-core API.
 *
 * Timer discipline: nothing is scheduled for an idle core. Its ladder
 * (C0-idle -> C1 -> C3 -> C6 after the profile's thresholds) is
 * predetermined once it falls idle, so the slot keeps only the tick
 * its next stage is due, placed where a timer on the Simulator's
 * TimerWheel would fire (TimerWheel::deadlineAt(): exact at G = 1,
 * quantized up to a bucket boundary otherwise, each stage armed at the
 * previous stage's fire tick). The pool also keeps its host's one
 * idle countdown (a server's delay timer), armed with armHostTimer().
 *
 * settle() replays every stage and countdown due by curTick(), in
 * time order, through the same setCState()/host calls a timer event
 * would have made at its own tick, so energies, residencies and trace
 * slices see the same updates in the same order. Every read or change
 * of pool state settles first (the Core view does; the host settles
 * before its own reads). A stage armed for curTick() inside the
 * current event is not due until the next one (Simulator::epoch()):
 * a timer event scheduled for the current tick would run only after
 * the event that armed it. The pool registers as DeferredTimers, so a
 * drained run() still ends at its last pending stage or countdown;
 * since every change settles first, the Simulator's record of that
 * tick goes stale exactly when the pool is touched.
 */

#ifndef HOLDCSIM_SERVER_CORE_HH
#define HOLDCSIM_SERVER_CORE_HH

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "power_profile.hh"
#include "power_state.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "task.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

class Core;

/** A core's residency book: one entry per CoreCState. */
using CoreResidency = StateBook<5>;

/**
 * The entity that owns a CorePool (a Server, or a test fixture).
 * Replaces the three per-core std::function hooks of the old
 * individually-allocated Core: one virtual dispatch per notification
 * instead of a type-erased call, and no per-dispatch allocation for
 * the completion callback.
 */
class CoreHost
{
  public:
    virtual ~CoreHost() = default;

    /** Called just before any power-relevant core state change,
     *  which takes effect at tick @p at (<= curTick()). */
    virtual void coreAccrue(Tick at) = 0;

    /** Called after a core C-state or P-state change at @p at. */
    virtual void coreStateChanged(Tick at) = 0;

    /** Core @p core finished @p task (the core is already idle). */
    virtual void coreTaskDone(unsigned core, const TaskRef &task) = 0;

    /** The countdown armed with CorePool::armHostTimer() ran out at
     *  @p at (<= curTick(); called while the pool settles). */
    virtual void hostTimerExpired(Tick at) { (void)at; }

    /** Whether the host timer's expiry, if it came now, would force
     *  every core to C6 (a suspend), ending their ladders there. */
    virtual bool hostTimerStopsCores() const { return false; }
};

/**
 * Where a fleet that builds its servers in one block (DataCenter)
 * places one server's core pool. The fleet keeps the slot block for
 * the pool's lifetime, has reserved the pool's deferred-timer slot
 * (Simulator::reserveDeferred()) and records the pool's horizon once
 * the server is set up (Simulator::recordDeferred()), and has
 * validated the profile its servers share, once for all of them.
 */
struct CorePlacement {
    /** slotBlockBytes(n_cores) bytes aligned to slotBlockAlign(). */
    void *slotBlock = nullptr;
    /** The pool's slot in the Simulator's deferred-timer list. */
    std::size_t deferredSlot = 0;
};

/**
 * All cores of one server, in one exact-size array of per-core
 * slots. Fixed-size: the core count is set at construction.
 */
class CorePool : public DeferredTimers
{
  public:
    /**
     * @param sim            owning simulation engine
     * @param host           owner notified of accrual/state/completion
     * @param profile        power/latency profile, shared with the
     *                       pool (a plant of identical servers holds
     *                       one); validated here unless placed
     * @param n_cores        number of cores, at least one
     * @param base_freqs_ghz per-core P0 frequencies (heterogeneous
     *                       processors give cores different bases):
     *                       empty (every core runs at the profile's
     *                       P0 frequency) or one positive entry per
     *                       core
     * @param placement      where a fleet puts the pool (see
     *                       CorePlacement); null, the pool allocates
     *                       and frees its own slots and appends itself
     *                       to the deferred-timer list
     */
    CorePool(Simulator &sim, CoreHost &host,
             std::shared_ptr<const ServerPowerProfile> profile,
             unsigned n_cores,
             const std::vector<double> &base_freqs_ghz = {},
             const CorePlacement *placement = nullptr);

    /** As above, with a profile the caller keeps alive for the
     *  pool's lifetime (not owned). */
    CorePool(Simulator &sim, CoreHost &host,
             const ServerPowerProfile &profile, unsigned n_cores,
             const std::vector<double> &base_freqs_ghz = {})
        : CorePool(sim, host,
                   std::shared_ptr<const ServerPowerProfile>(
                       std::shared_ptr<const ServerPowerProfile>(),
                       &profile),
                   n_cores, base_freqs_ghz)
    {}

    /** Deschedules pending completions; leaves the drain list. */
    ~CorePool() override;

    CorePool(const CorePool &) = delete;
    CorePool &operator=(const CorePool &) = delete;

    unsigned size() const { return _size; }

    Simulator &sim() const { return _sim; }
    const ServerPowerProfile &profile() const { return *_profile; }

    /**
     * Replay every idle stage and host countdown due by curTick() (see
     * the file comment). At most once per Simulator::epoch().
     */
    void
    settle()
    {
        if (mustSettle(_sim, std::min(_nextStage, _hostTimer)))
            settleDue();
    }

    /**
     * Arm the host's idle countdown to run out @p delay after
     * curTick(), replacing any pending one; finite @p delay only.
     */
    void armHostTimer(Tick delay);
    /** Drop the host's countdown, if one is pending. */
    void cancelHostTimer() { _hostTimer = maxTick; }

    /**
     * Force every core to C6 at tick @p at (the host suspends or
     * crashes), ending their ladders. No settle: the host calls this
     * while settling, too. @pre no core is busy
     */
    void sleepAll(Tick at);

    /** DeferredTimers: the last stage or countdown still pending. */
    Tick lastDeferredTick() const override;
    void settleDeferred() override { settle(); }

    /** @name Per-core queries at the last settle() (Core settles) */
    ///@{
    bool busy(unsigned c) const
    {
        return _slots[c].cstate == CoreCState::c0Active;
    }
    CoreCState cstate(unsigned c) const { return _slots[c].cstate; }
    Watts power(unsigned c) const;
    /** Whether the pool holds a busy block (a core runs a task). */
    bool holdsBusyBlock() const { return _busy != nullptr; }
    ///@}

    /** Bytes of the slot block an @p n_cores pool holds. */
    static std::size_t
    slotBlockBytes(unsigned n_cores)
    {
        return n_cores * sizeof(Slot);
    }

    /** Alignment a caller's slot block needs. */
    static constexpr std::size_t slotBlockAlign() { return alignof(Slot); }

    /** Heap bytes of the busy block an @p n_cores pool holds. */
    static std::size_t
    busyBlockBytes(unsigned n_cores)
    {
        return n_cores * sizeof(Busy);
    }

  private:
    friend class Core;

/** A core's residency book: one entry per CoreCState. */
using CoreResidency = StateBook<5>;

    /**
     * One core's completion event: pool + core id, no std::function,
     * set at each task start (a block serves many pools in turn).
     * Default-constructible, so completions sit in the busy block,
     * which never moves (Event is pinned).
     */
    struct CoreEvent final : Event {
        CoreEvent() : Event("core.completion") {}
        void process() override { pool->complete(core); }
        CorePool *pool = nullptr;
        unsigned core = 0;
    };

    /**
     * What one core carries busy or idle, indexed by dense core id:
     * 80 B on x86-64, 56 of them the residency book. The fields
     * every dispatch, demotion and power sum reads come first.
     */
    struct Slot {
        CoreCState cstate = CoreCState::c0Idle;
        /** Index into the profile's P-states (at most 256). */
        std::uint8_t pstate = 0;
        TraceTrackId traceTrack = noTraceTrack;
        /** Tick the next idle stage is due; maxTick while busy, in
         *  C6, or when the next stage is disabled. */
        Tick stageAt = maxTick;
        std::uint64_t tasksExecuted = 0;
        CoreResidency residency;
    };
    static_assert(sizeof(Slot) <= 80, "the core slot grew");
    /** Nothing to run when a slot block goes, whoever owns it. */
    static_assert(std::is_trivially_destructible_v<Slot>);

    /** What one core carries only while it runs a task. */
    struct Busy {
        TaskRef current;
        Tick startedAt = 0;
        CoreEvent completion;
    };

    double frequencyGhz(unsigned c) const;
    void setPState(unsigned c, std::size_t idx);
    void startTask(unsigned c, const TaskRef &task, Tick extra_wake);
    Tick processingTime(unsigned c, const TaskRef &task) const;
    void forceDeepSleep(unsigned c, Tick at);
    void setCState(unsigned c, CoreCState next, Tick at);
    void traceCState(unsigned c, Tick at);
    /** Core @p c's timeline track, or noTraceTrack when the core is
     *  unlabelled or the tracer does not want core records. */
    TraceTrackId traceTrack(unsigned c, TraceManager &tr);
    /** Delay before the stage after @p s, or maxTick for none. */
    Tick stageDelay(CoreCState s) const;
    /** Start core @p c's next idle stage countdown at tick @p at. */
    void armStage(unsigned c, Tick at);
    /** Stop core @p c's ladder (it runs a task or is forced to C6). */
    void stopStage(unsigned c);
    /** The settle() slow path: something is due. */
    void settleDue();
    /** Apply the earliest due stage (lowest core id among ties). */
    void demoteNext();
    void complete(unsigned c);
    /** Hand the busy block back to the cache (no core runs). */
    void releaseBusy();
    /** BlockCache::Destroy for a busy block. */
    static void destroyBusy(void *block, std::size_t n_cores);
    Tick exitLatency(CoreCState from) const;
    void setTraceLabel(unsigned c, std::string label);

    /** First, so they pack into DeferredTimers' tail padding. */
    unsigned _size : 15;
    /** Whether _slots is the pool's own allocation (no caller block). */
    unsigned _ownsSlots : 1;
    /** Cores running a task; the busy block is held while nonzero. */
    unsigned _running : 16 = 0;
    Simulator &_sim;
    CoreHost &_host;
    std::shared_ptr<const ServerPowerProfile> _profile;

    /** _size slots: the caller's block or the pool's own. */
    Slot *_slots;
    /** Per-core P0 frequency; null when every core runs at the
     *  profile's (homogeneous pools). */
    std::unique_ptr<double[]> _baseFreqGhz;
    /** Earliest Slot::stageAt. */
    Tick _nextStage = maxTick;
    /** When the host's countdown runs out; maxTick when none. */
    Tick _hostTimer = maxTick;
    /** One entry per core while a core runs a task; else null. */
    Busy *_busy = nullptr;
    /** One label per core; null until a core is first labelled. */
    std::unique_ptr<std::string[]> _traceLabel;
};

static_assert(sizeof(CorePool) <= 104, "the core pool grew");

/** Copyable view of one processing unit inside a server's pool. */
class Core
{
  public:
    Core(CorePool &pool, unsigned id) : _pool(&pool), _id(id) {}

    unsigned id() const { return _id; }

    /** Whether a task is currently executing (C0-active). */
    bool busy() const { return _pool->busy(_id); }

    CoreCState cstate() const
    {
        _pool->settle();
        return _pool->cstate(_id);
    }

    /** Current operating frequency under the active P-state. */
    double frequencyGhz() const { return _pool->frequencyGhz(_id); }

    /** Select DVFS operating point @p idx (0 = fastest). */
    void
    setPState(std::size_t idx)
    {
        _pool->settle();
        _pool->setPState(_id, idx);
    }
    std::size_t pstate() const { return _pool->_slots[_id].pstate; }

    /**
     * Begin executing @p task. The start is delayed by this core's
     * C-state exit latency plus @p extra_wake (e.g. package C6
     * exit); the pool's host is notified when the task completes.
     * @pre !busy()
     */
    void startTask(const TaskRef &task, Tick extra_wake)
    {
        _pool->settle();
        _pool->startTask(_id, task, extra_wake);
    }

    /**
     * Processing time for @p task on this core right now:
     * service * (intensity * fNominal/fCur + (1 - intensity)),
     * where fNominal is the profile's P0 frequency (the reference
     * the service time was specified at). Saturates at maxTick.
     */
    Tick processingTime(const TaskRef &task) const
    {
        return _pool->processingTime(_id, task);
    }

    /** Instantaneous power draw of this core. */
    Watts
    power() const
    {
        _pool->settle();
        return _pool->power(_id);
    }

    /**
     * Force the deepest C-state immediately (server entering a
     * system sleep state). Cancels any pending demotion timer.
     * @pre !busy()
     */
    void
    forceDeepSleep()
    {
        _pool->settle();
        _pool->forceDeepSleep(_id, _pool->sim().curTick());
    }

    /** Outcome of abandoning an in-flight task. */
    struct AbortResult {
        /** The task that was killed. */
        TaskRef task;
        /** Energy burned on the partial (now discarded) execution. */
        Joules wasted;
        /** How long the task had been running. */
        Tick ran;
    };

    /**
     * Abandon the current task without completing it (the server
     * crashed or the global scheduler cancelled the task). The
     * completion event is descheduled, no completion notification
     * fires, and the core falls back to C0-idle. @pre busy()
     */
    AbortResult abortTask();

    /** The task currently executing. @pre busy() */
    const TaskRef &currentTask() const
    {
        return _pool->_busy[_id].current;
    }

    /** Per-C-state residency (states indexed by CoreCState). */
    const CoreResidency &residency() const
    {
        _pool->settle();
        return _pool->_slots[_id].residency;
    }

    /** Close residency books at @p now. */
    void
    finishStats(Tick now)
    {
        _pool->settle();
        _pool->_slots[_id].residency.finish(now);
    }

    /** Zero residency and counters (end of warmup). */
    void
    resetStats(Tick now)
    {
        _pool->settle();
        CorePool::Slot &slot = _pool->_slots[_id];
        slot.residency.reset();
        slot.residency.enter(static_cast<int>(slot.cstate), now);
        slot.tasksExecuted = 0;
    }

    std::uint64_t tasksExecuted() const
    {
        return _pool->_slots[_id].tasksExecuted;
    }

    /**
     * Name this core on the timeline ("server3.core1"); assigned by
     * the owning server. Until set, the core emits no trace records.
     */
    void setTraceLabel(std::string label)
    {
        _pool->settle();
        _pool->setTraceLabel(_id, std::move(label));
    }

  private:
    CorePool *_pool;
    unsigned _id;
};

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_CORE_HH
