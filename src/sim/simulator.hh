/**
 * @file
 * The discrete-event simulation engine.
 *
 * A Simulator owns the event queue and the simulated clock. Model
 * components keep a reference to their Simulator and schedule events
 * against it. One Simulator per experiment; no global state, so tests
 * and parameter sweeps can run many simulations in one process.
 */

#ifndef HOLDCSIM_SIM_SIMULATOR_HH
#define HOLDCSIM_SIM_SIMULATOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "event_queue.hh"
#include "timer_wheel.hh"
#include "types.hh"

namespace holdcsim {

class Simulator;
class TraceManager;

/**
 * A run was cancelled from outside the model: the cooperative
 * interrupt flag was raised (watchdog, SIGINT/SIGTERM) or the
 * simulated-event budget ran out. The simulator itself is left in a
 * consistent state; the run can be inspected, dumped or abandoned.
 */
class SimInterrupted : public std::runtime_error
{
  public:
    explicit SimInterrupted(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * The simulator detected an internal inconsistency (an event
 * scheduled into the past, a violated runtime invariant). Thrown
 * after Simulator::abortDump() has written its post-mortem, so
 * harnesses can quarantine the run instead of losing the process.
 */
class SimAbortError : public std::runtime_error
{
  public:
    explicit SimAbortError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * Observer hooked around every event dispatch (opt-in, e.g. the
 * telemetry LayerProbe). The kernel never depends on a concrete
 * implementation, and the run loop is compiled twice -- with and
 * without probe calls -- so an uninstalled probe costs nothing per
 * event: run()/runUntil() pick the variant once at entry.
 */
class KernelProbe
{
  public:
    virtual ~KernelProbe() = default;

    /**
     * About to process @p ev. @p queued is the number of events that
     * were in the queue when this one was popped (itself included).
     * Implementations must not keep a reference to @p ev: one-shot
     * events may delete themselves inside process().
     */
    virtual void beginEvent(const Event &ev, std::size_t queued) = 0;

    /** The event just returned from process(). */
    virtual void endEvent() = 0;

    /**
     * Write whatever recent-event history the probe keeps (the
     * telemetry LayerProbe keeps a last-N ring) into an abort
     * dump. Default: nothing.
     */
    virtual void dumpRecent(std::ostream &os) const { (void)os; }
};

/**
 * An entity whose timers are computed in closed form instead of being
 * scheduled (a server's idle ladder, see CorePool; a switch's, see
 * Switch): it replays what is due whenever it is next read.
 * Registered with its Simulator, so a drained run() can still end
 * where the timers' events would have, and a traced run() or
 * runUntil() settles it before returning (its trace records are
 * written by then).
 */
class DeferredTimers
{
  public:
    virtual ~DeferredTimers() = default;

    /**
     * Tick of the last transition this entity still has pending if
     * nothing touches it again (0 when none). run() ends no earlier.
     */
    virtual Tick lastDeferredTick() const = 0;

    /** Replay every transition due by curTick() (its settle()). */
    virtual void settleDeferred() {}

  protected:
    /** @param epoch Simulator::epoch() at construction */
    explicit DeferredTimers(std::uint64_t epoch = 0) : _settledEpoch(epoch)
    {}

    /**
     * The settle() guard: true at most once per Simulator::epoch(), and
     * only if @p next_due (nothing is due before it) has come. So a
     * stage armed for curTick() inside an event is due only in the next
     * epoch, as a timer event for the current tick would run only after
     * the event that armed it.
     */
    inline bool mustSettle(const Simulator &sim, Tick next_due);

  private:
    friend class Simulator;
    std::uint64_t _settledEpoch;
    /** Position in the Simulator's list (O(1) removal). Four bytes:
     *  a derived class may pack a member into the tail padding. */
    std::uint32_t _deferredSlot = 0;
};

/** Event-driven simulation engine with a nanosecond clock. */
class Simulator
{
  public:
    /**
     * @param backend           event-queue implementation
     * @param timer_granularity bucket width governor timers are
     *                          quantized to; 1 (the default) puts
     *                          every one at its exact tick
     */
    explicit Simulator(
        EventQueue::Backend backend = EventQueue::Backend::calendar,
        Tick timer_granularity = 1)
        : _queue(backend), _timerWheel(timer_granularity)
    {}
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Number of events processed so far (engine throughput metric). */
    std::uint64_t eventsProcessed() const { return _eventsProcessed; }

    /**
     * Dispatch epoch: changes before each event is processed and
     * whenever a run loop returns. Deferred timers settle at most once
     * per epoch, so one armed for curTick() inside an epoch comes due
     * only in the next -- as a same-tick event scheduled from inside
     * an event runs only after that event returns.
     */
    std::uint64_t epoch() const { return _epoch; }

    /** Schedule @p ev at absolute tick @p when (>= curTick()). */
    void schedule(Event &ev, Tick when);

    /** Schedule @p ev at curTick() + @p delay. */
    void scheduleAfter(Event &ev, Tick delay)
    {
        schedule(ev, _curTick + delay);
    }

    /** Remove a scheduled event. */
    void deschedule(Event &ev) { _queue.deschedule(ev); }

    /**
     * Move a scheduled (or unscheduled) event to @p when. A no-op
     * when the event is already scheduled for exactly @p when (the
     * event keeps its FIFO position).
     */
    void reschedule(Event &ev, Tick when);

    /** Whether any events remain. */
    bool hasPendingEvents() const { return !_queue.empty(); }

    /** Tick of the next pending event. @pre hasPendingEvents(). */
    Tick nextEventTick() { return _queue.nextTick(); }

    /**
     * Run until the event queue drains or stop() is called. A drained
     * run continues while a registered DeferredTimers still has a
     * transition pending -- processing the background events before
     * it -- and ends at the last such transition's tick, as if each
     * had been a foreground event.
     * @return the final simulated time.
     */
    Tick run();

    /**
     * Run until simulated time would exceed @p limit. Events at
     * exactly @p limit still execute -- including events they
     * schedule for that same tick, in (priority, FIFO) order -- so
     * the limit is inclusive. The clock is left at @p limit, unless
     * stop() cut the run short, in which case it stays at the last
     * processed event's tick.
     */
    Tick runUntil(Tick limit);

    /**
     * Process every event strictly before @p bound and return. The
     * workhorse of the conservative parallel kernel (src/sim/pdes):
     * one call executes one synchronization window [floor, bound).
     * Unlike runUntil(), the upper edge is exclusive and the clock is
     * left at the last processed event's tick -- never advanced to
     * @p bound -- so events delivered into [bound, ...) by a later
     * mailbox drain are still in this simulator's future. Unlike
     * run(), events are popped while the queue is nonempty even if
     * only background events remain below the bound: a partition must
     * not stall its periodic machinery just because its foreground
     * work momentarily lives in another partition's window.
     */
    Tick runBefore(Tick bound);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { _stopRequested = true; }

    /** @name Deferred timers (see DeferredTimers)
     * An entity registers for its lifetime; the list is scanned only
     * when a run() drains. Not owned.
     */
    ///@{
    /** Register @p d at the end of the list. */
    void addDeferred(DeferredTimers &d);
    /**
     * Append @p n empty slots and return the first one's index: room
     * for entities built on several threads at once (a DataCenter's
     * fleet), each of which then registers with addDeferredAt() into
     * its own slot. A slot left empty (a build that threw) is skipped.
     */
    std::size_t reserveDeferred(std::size_t n);
    /**
     * Register @p d in the empty slot @p slot of a reserveDeferred()
     * range. Calls for distinct slots may run concurrently.
     */
    void addDeferredAt(DeferredTimers &d, std::size_t slot)
    {
        d._deferredSlot = static_cast<std::uint32_t>(slot);
        _deferred[slot] = &d;
    }
    void removeDeferred(DeferredTimers &d);
    /** The registered entities in list order (null: an empty slot). */
    const std::vector<DeferredTimers *> &deferred() const
    {
        return _deferred;
    }
    ///@}

    /** Direct access to the queue (tests and advanced harnesses). */
    EventQueue &eventQueue() { return _queue; }
    const EventQueue &eventQueue() const { return _queue; }

    /**
     * Install (or clear, with nullptr) the timeline tracer. The
     * kernel itself never dereferences it -- the pointer only rides
     * here so instrumented components can reach the tracer through
     * the Simulator they already hold. Not owned.
     */
    void setTracer(TraceManager *tracer) { _tracer = tracer; }

    /** Installed tracer, or nullptr when tracing is off. */
    TraceManager *tracer() const { return _tracer; }

    /**
     * Where every core pool and switch places its governor timers'
     * deadlines. Its granularity is fixed at construction.
     */
    TimerWheel &timerWheel() { return _timerWheel; }
    const TimerWheel &timerWheel() const { return _timerWheel; }

    /**
     * Install (or clear) the kernel profiling probe. Not owned.
     * Observed at the next run()/runUntil() entry: installing or
     * clearing a probe from inside a running event takes effect only
     * once the current run loop returns.
     */
    void setProbe(KernelProbe *probe) { _probe = probe; }

    /** Installed probe, or nullptr when profiling is off. */
    KernelProbe *probe() const { return _probe; }

    /** @name Watchdog limits (campaign crash tolerance)
     * Both are cooperative cancellation points checked inside the run
     * loops; when one trips, the loop throws SimInterrupted with the
     * queue and clock untouched, so the run can be retried or its
     * partial statistics flushed.
     */
    ///@{
    /**
     * Install (or clear, with nullptr) an external interrupt flag
     * (not owned; typically set by a watchdog thread or a signal
     * handler). Polled every 1024 processed events.
     */
    void
    setInterruptFlag(const std::atomic<bool> *flag)
    {
        _interrupt = flag;
        _limits = _interrupt != nullptr || _eventBudget != 0;
    }

    /**
     * Cap the total number of processed events (0 = unlimited). A
     * run crossing the cap throws SimInterrupted -- the
     * simulated-event half of the replica watchdog, catching sims
     * that livelock without advancing wall-clock-observable state.
     */
    void
    setEventBudget(std::uint64_t max_events)
    {
        _eventBudget = max_events;
        _limits = _interrupt != nullptr || _eventBudget != 0;
    }

    std::uint64_t eventBudget() const { return _eventBudget; }
    ///@}

    /**
     * Record the experiment root seed for post-mortems. Purely
     * informational: abortDump() prints it so a crashing replica can
     * be reproduced stand-alone.
     */
    void setExperimentSeed(std::uint64_t seed) { _seed = seed; }

    /** @name Abort-dump context contributors
     * Subsystems that hold state a post-mortem should name (the fault
     * manager's injected schedule, a harness's campaign cell) register
     * a labeled writer here; abortDump() invokes each one after the
     * kernel's own summary. Contributors must deregister before they
     * are destroyed. Writers must be read-only: they run mid-abort on
     * a simulator whose model state may be inconsistent.
     */
    ///@{
    void
    addAbortContext(const std::string &name,
                    std::function<void(std::ostream &)> fn)
    {
        _abortContexts.emplace_back(name, std::move(fn));
    }

    void
    removeAbortContext(const std::string &name)
    {
        for (auto it = _abortContexts.begin();
             it != _abortContexts.end(); ++it) {
            if (it->first == name) {
                _abortContexts.erase(it);
                return;
            }
        }
    }
    ///@}

    /**
     * Structured post-mortem: reason, clock, event counters, queue
     * summary (backend, occupancy, spill counters), every registered
     * abort context, the probe's recent-event ring (when one is
     * installed) and the experiment seed. Written on internal aborts
     * before SimAbortError is thrown; harnesses may also call it
     * directly.
     */
    void abortDump(std::ostream &os, const std::string &reason) const;

  private:
    /** Pop the next event and process it (shared run-loop body). */
    template <bool WithProbe> void processOne();
    template <bool WithProbe> void processPopped(Event &ev);
    template <bool WithProbe> Tick runLoop();
    /** run() found no foreground event: process one background event
     *  due before the last deferred transition, or else advance the
     *  clock to that transition. @return whether to keep running. */
    template <bool WithProbe> bool drainDeferred();
    /** With a tracer installed, settle every DeferredTimers. */
    void settleForTrace();
    template <bool WithProbe> Tick runUntilLoop(Tick limit);
    template <bool WithProbe> Tick runBeforeLoop(Tick bound);

    /** Throw SimInterrupted when a watchdog limit has tripped. */
    void checkLimits() const;

    /** abortDump + throw SimAbortError (internal inconsistency). */
    [[noreturn]] void abortSim(const std::string &reason) const;

    EventQueue _queue;
    Tick _curTick = 0;
    std::uint64_t _eventsProcessed = 0;
    std::uint64_t _epoch = 0;
    std::vector<DeferredTimers *> _deferred;
    bool _stopRequested = false;
    TraceManager *_tracer = nullptr;
    KernelProbe *_probe = nullptr;
    /** Fast guard for the per-event limit checks. */
    bool _limits = false;
    const std::atomic<bool> *_interrupt = nullptr;
    std::uint64_t _eventBudget = 0;
    std::uint64_t _seed = 0;
    std::vector<std::pair<std::string,
                          std::function<void(std::ostream &)>>>
        _abortContexts;
    TimerWheel _timerWheel;
};

bool
DeferredTimers::mustSettle(const Simulator &sim, Tick next_due)
{
    const std::uint64_t epoch = sim.epoch();
    if (_settledEpoch == epoch)
        return false;
    _settledEpoch = epoch;
    return next_due <= sim.curTick();
}

} // namespace holdcsim

#endif // HOLDCSIM_SIM_SIMULATOR_HH
