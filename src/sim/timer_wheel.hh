/**
 * @file
 * The governor timer facility. Each Simulator owns one wheel
 * (Simulator::timerWheel()); its granularity G is the governor timer
 * discipline of the whole run.
 *
 * Who arms the wheel: the network's governors -- port LPI, line card
 * and switch sleep countdowns. Servers do not: a core's C-state ladder
 * and a server's delay timer are predetermined once the server falls
 * idle, so the CorePool computes them in closed form when the server
 * is next read (see core.hh), placing each stage where a wheel timer
 * would fire through deadlineAt(). They cost no event, arm or fire.
 *
 * Exact mode (G = 1, the default). Each live timer is one pooled
 * kernel event at powerPriority, named after its client
 * (TimerClient::timerName(): port.lpi, linecard.sleep, ...), so the
 * kernel, probes and abort dumps see exactly what per-entity timer
 * events produced. Same-tick timers fire in arm order by the kernel's
 * FIFO tie-break, and rearm() uses Simulator::reschedule(), so a
 * re-arm for the same deadline keeps its FIFO slot. No ring exists.
 *
 * Ring mode (G > 1). Deadlines are quantized UP to a bucket boundary
 * and all timers sharing a boundary fire from ONE "wheel.tick" kernel
 * event, in deterministic arm order. Structure: a fixed ring of S
 * slots each covering one G-tick boundary within the rolling horizon
 * [windowBase, windowBase + S*G), plus an overflow min-heap for
 * deadlines beyond the horizon (migrated into the ring as the window
 * advances -- the same discipline as the calendar event queue's
 * overflow heap). The tick event rides the simulator at the earliest
 * live boundary; when no timers are live it is descheduled, so the
 * wheel never extends a run() past the last real deadline.
 *
 * A slot's live refs are already in arm (seq) order, so tick() fires
 * a batch unsorted (and panics if it is not). Direct arms append in
 * seq order; the window only slides forward, so a boundary's parked
 * entries predate any direct arm onto it and migrate in (deadline,
 * seq) order as the window reaches it, before any callback runs; and
 * inside the horizon a slot holds exactly one boundary. A ring-mode
 * rearm() is a cancel plus an arm: the timer goes to the back of its
 * boundary's batch.
 *
 * A 1-tick ring is not offered: its 1,024 slots span 1,024 ns, so
 * every governor deadline parks in the overflow heap, and it measured
 * slower on the three-tier replay than one kernel event per timer.
 *
 * Cancellation is O(1) and race-free in both modes: handles carry a
 * generation stamp that is bumped whenever an arena entry (in exact
 * mode, a pooled event) is freed, so a stale handle (or a slot
 * reference to a reused entry) can never cancel or fire the wrong
 * timer. Callbacks may freely arm/cancel
 * timers while a batch is firing.
 *
 * Semantics: a timer armed for now+d fires at ceil((now+d)/G)*G --
 * never early, at most G-1 ticks late (Linux timer-slack style).
 * Coarser G trades bounded governor-transition delay for event
 * coalescing.
 */

#ifndef HOLDCSIM_SIM_TIMER_WHEEL_HH
#define HOLDCSIM_SIM_TIMER_WHEEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "event.hh"
#include "types.hh"

namespace holdcsim {

class Simulator;

/** Something that owns wheel timers (a pool, a card, a switch). */
class TimerClient
{
  public:
    virtual ~TimerClient() = default;

    /**
     * Timer @p token expired. @p deadline is the quantized tick the
     * timer was set for (== curTick() at the callback). The handle
     * that armed this timer is already dead; re-arming from inside
     * the callback is allowed and yields a fresh handle.
     */
    virtual void timerFired(std::uint64_t token, Tick deadline) = 0;

    /**
     * Kernel event name of this client's timers in exact mode, where
     * each timer is its own event (probes book host time by it). Read
     * on every exact-mode arm; return a string with static storage,
     * as the wheel compares pointers to skip needless renames.
     */
    virtual const char *timerName() const { return "timer"; }
};

/** Bucketed one-shot timer facility shared by many entities. */
class TimerWheel
{
  public:
    /** Generation-stamped reference to an armed timer. */
    struct Handle {
        static constexpr std::uint32_t invalidIdx = 0xffffffffu;
        std::uint32_t idx = invalidIdx;
        std::uint32_t gen = 0;
        bool valid() const { return idx != invalidIdx; }
    };

    /** Kernel-visible cost counters (dumped as profile.wheel.*). */
    struct Stats {
        std::uint64_t armed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t fired = 0;
        /** Kernel event dispatches ("wheel.tick" count; in exact mode
         *  every firing is its own dispatch). */
        std::uint64_t tickEvents = 0;
        /** Largest number of timers fired by one kernel event. */
        std::uint64_t maxBatch = 0;
        /** Entries moved overflow-heap -> ring as the window slid. */
        std::uint64_t overflowMigrations = 0;
        /** Peak live timers. */
        std::uint64_t maxLive = 0;
    };

    /**
     * @param sim         owning engine
     * @param granularity bucket width G in ticks (>= 1; 1 = exact
     *                    mode, one kernel event per timer)
     * @param slots       ring size (rounded up to a power of two;
     *                    unused in exact mode, which has no ring)
     */
    explicit TimerWheel(Simulator &sim, Tick granularity = 1,
                        std::size_t slots = 1024);
    ~TimerWheel();
    TimerWheel(const TimerWheel &) = delete;
    TimerWheel &operator=(const TimerWheel &) = delete;

    /**
     * Arm a one-shot timer for @p client at curTick() + @p delay,
     * quantized up to the next bucket boundary. @p delay must be
     * finite (callers gate their own maxTick = disabled sentinels).
     */
    Handle arm(TimerClient &client, std::uint64_t token, Tick delay);

    /**
     * Move the timer behind @p h (or, if @p h is not pending, arm a
     * new one) to curTick() + @p delay; @p h is updated. In exact mode
     * a pending timer keeps its event, and a re-arm for the deadline
     * it already has keeps its FIFO position among same-tick events.
     * In ring mode this is cancel() then arm(). Either way the stats
     * count a re-arm of a pending timer as one cancel and one arm.
     */
    void rearm(Handle &h, TimerClient &client, std::uint64_t token,
               Tick delay);

    /**
     * Cancel the timer behind @p h. O(1); safe (and a no-op) on
     * invalid, stale or already-fired handles. @p h is reset.
     */
    void
    cancel(Handle &h)
    {
        if (h.valid()) // governors cancel idle handles often: inline
            cancelValid(h);
    }

    /** Whether @p h still refers to a live, unfired timer. */
    bool pending(const Handle &h) const;

    /** Quantized fire tick of a pending handle. @pre pending(h) */
    Tick deadline(const Handle &h) const;

    /**
     * Tick a timer armed at @p from for @p delay fires at: from +
     * delay quantized up to a bucket boundary. Fatal when the sum
     * overflows Tick. For timers computed in closed form rather than
     * armed (the core idle ladder), so they land where armed ones do.
     */
    Tick deadlineAt(Tick from, Tick delay) const;

    Tick granularity() const { return _granularity; }
    /** Exact mode: G = 1, one kernel event per timer, no ring. */
    bool exact() const { return _granularity == 1; }
    /** Ring slots (0 in exact mode). */
    std::size_t numSlots() const { return _slots.size(); }
    /** Currently armed (live, unfired) timers. */
    std::size_t live() const { return _live; }
    const Stats &stats() const { return _stats; }

  private:
    struct Entry {
        TimerClient *client = nullptr;
        std::uint64_t token = 0;
        /** Global arm order: deterministic intra-batch fire order. */
        std::uint64_t seq = 0;
        Tick deadline = 0;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = Handle::invalidIdx;
        bool live = false;
        /** Counted in its slot's liveCount: false while parked in the
         *  overflow heap or detached into a firing batch. */
        bool inRing = false;
    };

    /** (idx, gen) pair: detects freed-and-reused arena entries. */
    struct Ref {
        std::uint32_t idx;
        std::uint32_t gen;
    };

    struct Slot {
        std::vector<Ref> ids;
        std::uint32_t liveCount = 0;
    };

    /** Exact mode's timer: a pooled kernel event (no Entry). */
    struct ExactEvent;
    /** Exact-mode events are allocated this many at a time. */
    static constexpr std::uint32_t exactChunk = 64;

    struct OverflowItem {
        Tick deadline;
        std::uint64_t seq;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    Tick quantize(Tick t) const;
    Tick span() const
    {
        return _granularity * static_cast<Tick>(_slots.size());
    }
    Slot &slotFor(Tick deadline)
    {
        return _slots[static_cast<std::size_t>(deadline / _granularity) &
                      (_slots.size() - 1)];
    }
    std::uint32_t allocEntry();
    void freeEntry(std::uint32_t idx);
    /** Keep a min-heap over (deadline, seq): deterministic order. */
    static bool overflowAfter(const OverflowItem &a,
                              const OverflowItem &b);
    void pushOverflow(OverflowItem item);
    void popOverflow();
    /** Drop dead heap tops; migrate items inside the new window. */
    void settleOverflow(Tick window_base);
    void cancelValid(Handle &h);
    ExactEvent &exactEvent(std::uint32_t idx) const;
    void freeExact(ExactEvent &ev);
    /** Exact-mode event body: fire the one timer @p ev holds. */
    void fireExact(ExactEvent &ev);
    /** Kernel event body: fire the current boundary's batch. */
    void tick();
    void scheduleAt(Tick when);

    Simulator &_sim;
    Tick _granularity;
    std::vector<Slot> _slots;
    std::vector<Entry> _arena;
    /** Exact mode's timers instead of _arena, in fixed-size chunks
     *  so events never move (Event is pinned), and their free list. */
    std::vector<std::unique_ptr<ExactEvent[]>> _exactEvents;
    std::uint32_t _exactFree = Handle::invalidIdx;
    std::uint32_t _freeHead = Handle::invalidIdx;
    std::vector<OverflowItem> _overflow; // binary heap (by deadline,seq)
    std::size_t _live = 0;
    /** Live timers counted in ring slots; 0 lets tick() skip the ring
     *  scan (far deadlines sit in the overflow heap). */
    std::size_t _ringLive = 0;
    std::uint64_t _nextSeq = 0;
    /** Boundaries < _windowBase have fired; ring covers
     *  [_windowBase, _windowBase + span()). */
    Tick _windowBase = 0;
    Tick _scheduledAt = maxTick;
    EventFunctionWrapper _tickEvent;
    /** Scratch for the firing batch (reused across ticks). */
    std::vector<Ref> _batch;
    Stats _stats;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_TIMER_WHEEL_HH
