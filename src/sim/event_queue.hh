/**
 * @file
 * Pending-event queue: a two-level calendar/heap structure ordered by
 * (tick, priority, schedule sequence) so simultaneous events run in
 * deterministic FIFO order.
 *
 * Near-future events -- the tx-done, task-completion, LPI-wakeup and
 * queue-poll timers that dominate every workload -- land in a ring of
 * calendar buckets covering a sliding window around the current tick,
 * giving O(1) amortized schedule/pop. Far-future events (MTTF faults,
 * experiment-end, background heartbeats) spill into an indexed binary
 * min-heap and migrate into the calendar lazily when the window
 * reaches them. Bucket width recalibrates itself from the observed
 * inter-pop gap so the window tracks each workload's event density.
 *
 * Every scheduled event carries its own (bucket, slot) location, so
 * deschedule() removes the entry eagerly in O(1) from a bucket or
 * O(log n) from the heap; no stale entry can ever outlive (and dangle
 * behind) its event object.
 *
 * The pure binary-heap backend is kept selectable as the reference:
 * tests replay identical traces through both structures and assert
 * identical pop order, and `three_tier --queue=heap` times the
 * calendar's end-to-end gain. Ordering is defined solely by the
 * (tick, priority, sequence) key, so the two backends are
 * observationally equivalent by construction.
 */

#ifndef HOLDCSIM_SIM_EVENT_QUEUE_HH
#define HOLDCSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "event.hh"
#include "types.hh"

namespace holdcsim {

/** Priority queue of scheduled events. */
class EventQueue
{
  public:
    /** Queue implementation (observable behavior is identical). */
    enum class Backend {
        /** Calendar ring + overflow heap (default). */
        calendar,
        /** Single indexed binary heap (reference backend). */
        binaryHeap,
    };

    /** Occupancy / spill counters, exported as profile.queue.*. Each
     *  calendar schedule() lands in one of bucket/heap/clamped. */
    struct Counters {
        std::uint64_t schedules = 0;
        /** Schedules landing in a calendar bucket (fast path). */
        std::uint64_t bucketSchedules = 0;
        /** Schedules spilling into the overflow heap. */
        std::uint64_t heapSchedules = 0;
        /** Schedules before the window start, clamped to the head
         *  bucket (legal but rare: raw-queue users only). */
        std::uint64_t clampedSchedules = 0;
        std::uint64_t pops = 0;
        std::uint64_t bucketPops = 0;
        std::uint64_t heapPops = 0;
        /** Times the empty calendar re-anchored on the heap minimum. */
        std::uint64_t rebases = 0;
        /** Heap entries migrated into buckets during rebases. */
        std::uint64_t migratedEntries = 0;
        /** Times an oversized head bucket was spilled to the heap. */
        std::uint64_t headSpills = 0;
        /** Bucket entries moved to the heap by head spills. */
        std::uint64_t spilledEntries = 0;
        /** Bucket-geometry changes: width recalibrations and ring
         *  grow/shrink resizes (each rehashes every live entry). */
        std::uint64_t recalibrations = 0;
        /** Largest total occupancy seen. */
        std::size_t peakSize = 0;
    };

    explicit EventQueue(Backend backend = Backend::calendar);
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /**
     * Insert @p ev to fire at tick @p when.
     * @pre !ev.scheduled(); @pre when >= the last popped tick.
     */
    void schedule(Event &ev, Tick when);

    /** Remove @p ev from the queue. @pre ev.scheduled(). */
    void deschedule(Event &ev);

    /**
     * Move an (optionally scheduled) event to a new tick. A no-op
     * when the event is already scheduled for exactly @p when: the
     * event keeps its FIFO position and the queue is not touched
     * (hot in Port LPI re-arms, which re-ask for the same deadline).
     */
    void reschedule(Event &ev, Tick when);

    /** Whether any events remain. */
    bool empty() const { return size() == 0; }

    /** Number of scheduled events. */
    std::size_t size() const { return _bucketCount + _heap.size(); }

    /** Scheduled events that are not background heartbeats. */
    std::size_t foregroundCount() const
    {
        return size() - _liveBackground;
    }

    /** Tick of the earliest event. @pre !empty(). */
    Tick nextTick() const;

    /**
     * Pop and return the earliest event, marking it unscheduled. The
     * event's when() keeps the tick it fired at.
     * @pre !empty().
     */
    Event &pop();

    /**
     * Pop the earliest event only if it fires strictly before
     * @p bound; return nullptr (queue untouched) otherwise. One
     * findMin() serves both the check and the extraction -- the
     * windowed run loop (src/sim/pdes) would otherwise pay a second
     * head-bucket scan per event via nextTick(). @pre !empty().
     */
    Event *popIfBefore(Tick bound, bool unbounded = false);

    /** Which backend this queue runs on. */
    Backend backend() const { return _backend; }

    /** Current calendar bucket width in ticks (introspection). */
    Tick bucketWidth() const { return Tick{1} << _bucketShift; }

    /** Occupancy / spill counters since construction. */
    const Counters &counters() const { return _counters; }

    /**
     * Exhaustively check the queue's structural invariants: size
     * accounting, entry back-pointers (every scheduled event's
     * (bucket, slot) location must point back at its entry), heap
     * ordering, bucket/window placement and background-event
     * accounting. O(n); meant for the runtime invariant auditor and
     * debug builds, not the hot path.
     *
     * @return empty string when consistent, else a description of
     *         the first violation found.
     */
    std::string auditConsistency() const;

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Event *event;
    };

    /** Location of the minimum entry found by findMin(). */
    struct MinRef {
        bool inHeap;
        std::size_t bucket; // physical ring index (buckets only)
        std::size_t slot;   // bucket slot or heap index
    };

    /** Strict ordering: does @p a fire before @p b? */
    static bool earlier(const Entry &a, const Entry &b);

    // Overflow-heap primitives (also the binaryHeap backend).
    void heapPlace(std::size_t idx);
    void heapSiftUp(std::size_t idx);
    void heapSiftDown(std::size_t idx);
    void heapInsert(const Entry &e);
    /** Remove the heap entry at @p idx, restoring the heap property. */
    void heapRemoveAt(std::size_t idx);

    // Calendar primitives.
    void bucketInsert(std::size_t bucket, const Entry &e);
    void bucketRemoveAt(std::size_t bucket, std::size_t slot);
    /** Route @p e to its bucket, the head bucket (clamp) or the heap;
     *  only schedule() counts it, not rehash() re-bucketing it. */
    template <bool CountSchedule>
    void insertEntry(const Entry &e);
    /**
     * Locate the earliest entry, advancing the (mutable) window head
     * over empty buckets. @return false when the queue is empty.
     */
    bool findMin(MinRef &out) const;
    /** Re-anchor the empty calendar on the heap minimum and migrate
     *  every now-in-window heap entry into buckets. @pre heap
     *  nonempty, buckets empty. */
    void rebaseOntoHeap();
    /** Move the head bucket into the overflow heap when it has grown
     *  past the scan threshold, so draining a same-tick burst costs
     *  O(log n) per pop instead of an O(n) bucket scan per pop. */
    void spillOversizedHead();
    /** Feed the pop-gap sampler; rehash when the observed event
     *  density has drifted far from the current bucket width. */
    void observePopGap(Tick popped);
    /** Re-bucket every live entry (buckets AND overflow heap) under a
     *  new bucket width and ring size. */
    void rehash(unsigned new_shift, std::size_t new_bucket_count);

    Backend _backend;

    // Calendar ring. _windowStart is the start tick of the bucket at
    // _head; bucket i (ring distance d from _head) covers ticks
    // [_windowStart + d*width, _windowStart + (d+1)*width). Both are
    // mutable so const peeks can advance the head over empty buckets
    // (pure memoization: observable state is unchanged).
    std::vector<std::vector<Entry>> _buckets;
    std::size_t _bucketMask = 0;
    unsigned _bucketShift = 10; // 1024-tick (~1 us) buckets initially
    mutable std::size_t _head = 0;
    mutable Tick _windowStart = 0;
    std::size_t _bucketCount = 0;

    // Overflow min-heap (the whole queue under Backend::binaryHeap).
    std::vector<Entry> _heap;

    std::size_t _liveBackground = 0;
    std::uint64_t _nextSequence = 0;

    // Bucket-width calibration: mean inter-pop gap over the last
    // window of pops picks the next power-of-two width. Driven only
    // by popped ticks, so it is deterministic across runs.
    Tick _lastPopTick = 0;
    bool _poppedOnce = false;
    double _gapSum = 0.0;
    std::uint64_t _gapCount = 0;

    Counters _counters;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_EVENT_QUEUE_HH
