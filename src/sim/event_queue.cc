#include "event_queue.hh"

#include <algorithm>
#include <utility>

#include "logging.hh"

namespace holdcsim {

namespace {

/** Smallest calendar ring (power of two). */
constexpr std::size_t numBuckets = 256;
/** Largest calendar ring: past this, spill to the overflow heap. */
constexpr std::size_t maxBuckets = std::size_t{1} << 18;
/** Widest bucket the calibrator may pick (2^36 ticks ~ 69 s). */
constexpr unsigned maxBucketShift = 36;
/** Inter-pop gaps sampled between bucket-width recalibrations. */
constexpr std::uint64_t calibrateGaps = 8192;
/** Head buckets larger than this are spilled into the overflow heap
 *  before popping. findMin() re-scans the whole head bucket on every
 *  pop, so draining a burst of k same-bucket events costs O(k^2)
 *  comparisons; past this size the one-time O(k log n) spill wins
 *  (measured: a 100k same-tick bulk load dropped from ~46 s to
 *  milliseconds). */
constexpr std::size_t headSpillThreshold = 64;

} // namespace

Event::~Event()
{
    // An event must not be destroyed while a queue still references
    // it; the queue would later touch freed memory.
    if (_scheduled)
        HOLDCSIM_PANIC("event '", _name, "' destroyed while scheduled");
}

void
Event::setBackground(bool background)
{
    // Flipping while scheduled would corrupt the queue's foreground
    // accounting.
    if (_scheduled)
        HOLDCSIM_PANIC("event '", _name,
                       "' changed background-ness while scheduled");
    _background = background;
}

EventQueue::EventQueue(Backend backend) : _backend(backend)
{
    if (_backend == Backend::calendar) {
        _buckets.resize(numBuckets);
        _bucketMask = numBuckets - 1;
    }
}

EventQueue::~EventQueue()
{
    // Mark survivors unscheduled so their destructors don't panic.
    for (auto &bucket : _buckets)
        for (auto &entry : bucket)
            entry.event->_scheduled = false;
    for (auto &entry : _heap)
        entry.event->_scheduled = false;
}

bool
EventQueue::earlier(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.sequence < b.sequence;
}

void
EventQueue::heapPlace(std::size_t idx)
{
    _heap[idx].event->_qSlot = idx;
}

void
EventQueue::heapSiftUp(std::size_t idx)
{
    while (idx > 0) {
        std::size_t parent = (idx - 1) / 2;
        if (!earlier(_heap[idx], _heap[parent]))
            break;
        std::swap(_heap[idx], _heap[parent]);
        heapPlace(idx);
        heapPlace(parent);
        idx = parent;
    }
}

void
EventQueue::heapSiftDown(std::size_t idx)
{
    const std::size_t n = _heap.size();
    for (;;) {
        std::size_t left = 2 * idx + 1;
        std::size_t right = left + 1;
        std::size_t smallest = idx;
        if (left < n && earlier(_heap[left], _heap[smallest]))
            smallest = left;
        if (right < n && earlier(_heap[right], _heap[smallest]))
            smallest = right;
        if (smallest == idx)
            return;
        std::swap(_heap[idx], _heap[smallest]);
        heapPlace(idx);
        heapPlace(smallest);
        idx = smallest;
    }
}

void
EventQueue::heapInsert(const Entry &e)
{
    e.event->_qBucket = Event::inHeap;
    _heap.push_back(e);
    heapPlace(_heap.size() - 1);
    heapSiftUp(_heap.size() - 1);
}

void
EventQueue::heapRemoveAt(std::size_t idx)
{
    std::size_t last = _heap.size() - 1;
    if (idx != last) {
        std::swap(_heap[idx], _heap[last]);
        heapPlace(idx);
    }
    _heap.pop_back();
    if (idx != _heap.size()) {
        // Restore the heap property for the moved entry.
        heapSiftUp(idx);
        heapSiftDown(idx);
    }
}

void
EventQueue::bucketInsert(std::size_t bucket, const Entry &e)
{
    auto &vec = _buckets[bucket];
    e.event->_qBucket = static_cast<std::uint32_t>(bucket);
    e.event->_qSlot = vec.size();
    vec.push_back(e);
    ++_bucketCount;
}

void
EventQueue::bucketRemoveAt(std::size_t bucket, std::size_t slot)
{
    auto &vec = _buckets[bucket];
    std::size_t last = vec.size() - 1;
    if (slot != last) {
        vec[slot] = vec[last];
        vec[slot].event->_qSlot = slot;
    }
    vec.pop_back();
    --_bucketCount;
}

template <bool CountSchedule>
void
EventQueue::insertEntry(const Entry &e)
{
    if (_backend == Backend::binaryHeap) {
        heapInsert(e);
        return;
    }
    if (e.when < _windowStart) {
        // Raw-queue users may schedule behind the window start; the
        // head bucket is always scanned first, so ordering holds.
        bucketInsert(_head, e);
        _counters.clampedSchedules += CountSchedule;
        return;
    }
    Tick d = (e.when - _windowStart) >> _bucketShift;
    if (d < _buckets.size()) {
        bucketInsert((_head + static_cast<std::size_t>(d)) & _bucketMask,
                     e);
        _counters.bucketSchedules += CountSchedule;
    } else {
        heapInsert(e);
        _counters.heapSchedules += CountSchedule;
    }
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    if (ev._scheduled)
        HOLDCSIM_PANIC("event '", ev.name(), "' scheduled twice");
    ev._scheduled = true;
    ev._when = when;
    insertEntry<true>(Entry{when, ev.priority(), _nextSequence++, &ev});
    if (ev.background())
        ++_liveBackground;
    ++_counters.schedules;
    if (size() > _counters.peakSize)
        _counters.peakSize = size();
    // Dynamic calendar: keep ~0.5..8 live entries per bucket by
    // doubling the ring when the population outgrows it. Total size
    // (not just bucket occupancy) drives the trigger, because a
    // too-small window parks the population in the overflow heap --
    // exactly the state a bigger ring fixes. Driven purely by event
    // counts, so every run resizes identically.
    if (_backend == Backend::calendar &&
        _buckets.size() < maxBuckets && size() > 2 * _buckets.size())
        rehash(_bucketShift, _buckets.size() * 2);
}

void
EventQueue::deschedule(Event &ev)
{
    if (!ev._scheduled)
        HOLDCSIM_PANIC("deschedule of unscheduled event '", ev.name(),
                       "'");
    if (ev._qBucket == Event::inHeap) {
        std::size_t idx = ev._qSlot;
        if (idx >= _heap.size() || _heap[idx].event != &ev)
            HOLDCSIM_PANIC("event '", ev.name(),
                           "' has a corrupt heap slot");
        ev._scheduled = false;
        if (ev.background())
            --_liveBackground;
        heapRemoveAt(idx);
        return;
    }
    std::size_t bucket = ev._qBucket;
    std::size_t slot = ev._qSlot;
    if (bucket >= _buckets.size() || slot >= _buckets[bucket].size() ||
        _buckets[bucket][slot].event != &ev)
        HOLDCSIM_PANIC("event '", ev.name(),
                       "' has a corrupt bucket slot");
    ev._scheduled = false;
    if (ev.background())
        --_liveBackground;
    bucketRemoveAt(bucket, slot);
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (ev._scheduled) {
        // Same-tick early-out: keep the event's FIFO position and
        // skip the remove/insert entirely.
        if (ev._when == when)
            return;
        deschedule(ev);
    }
    schedule(ev, when);
}

bool
EventQueue::findMin(MinRef &out) const
{
    if (_bucketCount == 0) {
        if (_heap.empty())
            return false;
        out = MinRef{true, 0, 0};
        return true;
    }
    // Advance the head over drained buckets; the head only ever moves
    // forward, so the sweep is O(1) amortized per pop.
    while (_buckets[_head].empty()) {
        _head = (_head + 1) & _bucketMask;
        _windowStart += bucketWidth();
    }
    const auto &vec = _buckets[_head];
    std::size_t best = 0;
    for (std::size_t i = 1; i < vec.size(); ++i) {
        if (earlier(vec[i], vec[best]))
            best = i;
    }
    // The overflow heap can hold an earlier event than the head
    // bucket (the window may have slid past a spilled tick), so the
    // two candidates are always compared on the full ordering key.
    if (!_heap.empty() && earlier(_heap.front(), vec[best]))
        out = MinRef{true, 0, 0};
    else
        out = MinRef{false, _head, best};
    return true;
}

void
EventQueue::rebaseOntoHeap()
{
    // Jump the window to the heap's earliest tick and pull now-in-
    // window entries into the calendar (lazy migration). Migration is
    // capped at the head-spill threshold: a dense same-tick burst
    // would otherwise shuttle between one bucket and the heap on
    // every pop (spillOversizedHead() moves it out, the next rebase
    // would move it all back). Entries left in the heap stay visible
    // to findMin(), which always compares both containers.
    _windowStart = (_heap.front().when >> _bucketShift) << _bucketShift;
    std::size_t migrated = 0;
    while (!_heap.empty() && migrated < headSpillThreshold &&
           ((_heap.front().when - _windowStart) >> _bucketShift) <
               _buckets.size()) {
        Entry e = _heap.front();
        heapRemoveAt(0);
        std::size_t d = static_cast<std::size_t>(
            (e.when - _windowStart) >> _bucketShift);
        bucketInsert((_head + d) & _bucketMask, e);
        ++_counters.migratedEntries;
        ++migrated;
    }
    ++_counters.rebases;
}

void
EventQueue::spillOversizedHead()
{
    if (_bucketCount == 0)
        return;
    while (_buckets[_head].empty()) {
        _head = (_head + 1) & _bucketMask;
        _windowStart += bucketWidth();
    }
    auto &vec = _buckets[_head];
    if (vec.size() <= headSpillThreshold)
        return;
    // Ordering is preserved: findMin() always compares the heap front
    // against the head-bucket minimum on the full (when, priority,
    // sequence) key, so entries pop in the same order from either
    // container.
    for (const Entry &e : vec)
        heapInsert(e);
    _bucketCount -= vec.size();
    _counters.spilledEntries += vec.size();
    ++_counters.headSpills;
    vec.clear();
}

void
EventQueue::observePopGap(Tick popped)
{
    if (_poppedOnce && popped >= _lastPopTick) {
        _gapSum += static_cast<double>(popped - _lastPopTick);
        ++_gapCount;
    }
    _lastPopTick = popped;
    _poppedOnce = true;
    if (_gapCount < calibrateGaps)
        return;
    // Aim for ~2 mean inter-pop gaps per bucket: head-bucket scans
    // stay short while the 256-bucket window still covers hundreds
    // of upcoming pops. Only driven by simulated ticks, so every run
    // recalibrates identically.
    double target = 2.0 * _gapSum / static_cast<double>(_gapCount);
    _gapSum = 0.0;
    _gapCount = 0;
    // Smallest power-of-two width >= target. Rounding up matters:
    // with ~size live entries and ~size buckets, width >= 2 mean gaps
    // keeps the window at >= 2x the active event span, so steady-state
    // inserts land in buckets instead of spilling to the heap.
    unsigned shift = 0;
    while (shift < maxBucketShift &&
           static_cast<double>(Tick{1} << shift) < target)
        ++shift;
    unsigned drift = shift > _bucketShift ? shift - _bucketShift
                                          : _bucketShift - shift;
    if (drift >= 2)
        rehash(shift, _buckets.size());
}

void
EventQueue::rehash(unsigned new_shift, std::size_t new_bucket_count)
{
    std::vector<Entry> entries;
    entries.reserve(size());
    for (auto &bucket : _buckets) {
        entries.insert(entries.end(), bucket.begin(), bucket.end());
        bucket.clear();
    }
    // Pull the overflow heap in too: under the new geometry (wider
    // window or wider buckets) much of it typically fits the ring.
    entries.insert(entries.end(), _heap.begin(), _heap.end());
    _heap.clear();
    _bucketCount = 0;
    _buckets.resize(new_bucket_count);
    _bucketMask = new_bucket_count - 1;
    _bucketShift = new_shift;
    _head = 0;
    // Anchor the window below everything live so nothing is clamped.
    Tick min_when = _lastPopTick;
    for (const Entry &e : entries)
        min_when = std::min(min_when, e.when);
    _windowStart = (min_when >> new_shift) << new_shift;
    for (const Entry &e : entries)
        insertEntry<false>(e);
    ++_counters.recalibrations;
}

std::string
EventQueue::auditConsistency() const
{
    std::size_t counted = 0;
    std::size_t background = 0;
    for (std::size_t b = 0; b < _buckets.size(); ++b) {
        const auto &vec = _buckets[b];
        // Ring distance of this bucket from the window head; its
        // entries must fall inside the bucket's tick span (clamped
        // behind-the-window entries are legal only in the head
        // bucket, i.e. at distance 0).
        std::size_t d = (b - _head) & _bucketMask;
        for (std::size_t s = 0; s < vec.size(); ++s) {
            const Entry &e = vec[s];
            if (!e.event)
                return detail::format("bucket ", b, " slot ", s,
                                      ": null event pointer");
            const Event &ev = *e.event;
            if (!ev._scheduled)
                return detail::format("bucket entry '", ev.name(),
                                      "' not marked scheduled");
            if (ev._when != e.when || ev._priority != e.priority)
                return detail::format(
                    "bucket entry '", ev.name(),
                    "' disagrees with its event (entry when=", e.when,
                    " prio=", e.priority, ", event when=", ev._when,
                    " prio=", ev._priority, ")");
            if (ev._qBucket != b || ev._qSlot != s)
                return detail::format(
                    "event '", ev.name(), "' back-pointer (",
                    ev._qBucket, ",", ev._qSlot,
                    ") does not match its location (", b, ",", s, ")");
            if (e.sequence >= _nextSequence)
                return detail::format("event '", ev.name(),
                                      "' has sequence ", e.sequence,
                                      " >= next sequence ",
                                      _nextSequence);
            if (e.when < _windowStart) {
                if (d != 0)
                    return detail::format(
                        "behind-window event '", ev.name(), "' (tick ",
                        e.when, " < window start ", _windowStart,
                        ") outside the head bucket (distance ", d,
                        ")");
            } else if (((e.when - _windowStart) >> _bucketShift) != d) {
                return detail::format(
                    "event '", ev.name(), "' at tick ", e.when,
                    " filed at ring distance ", d,
                    " but belongs at distance ",
                    (e.when - _windowStart) >> _bucketShift,
                    " (window start ", _windowStart, ", width ",
                    bucketWidth(), ")");
            }
            if (ev.background())
                ++background;
            ++counted;
        }
    }
    if (counted != _bucketCount)
        return detail::format("bucket occupancy ", counted,
                              " != accounted count ", _bucketCount);
    if (_backend == Backend::binaryHeap && counted != 0)
        return detail::format("binary-heap backend holds ", counted,
                              " calendar entries");

    for (std::size_t i = 0; i < _heap.size(); ++i) {
        const Entry &e = _heap[i];
        if (!e.event)
            return detail::format("heap slot ", i,
                                  ": null event pointer");
        const Event &ev = *e.event;
        if (!ev._scheduled)
            return detail::format("heap entry '", ev.name(),
                                  "' not marked scheduled");
        if (ev._when != e.when || ev._priority != e.priority)
            return detail::format(
                "heap entry '", ev.name(),
                "' disagrees with its event (entry when=", e.when,
                " prio=", e.priority, ", event when=", ev._when,
                " prio=", ev._priority, ")");
        if (ev._qBucket != Event::inHeap || ev._qSlot != i)
            return detail::format("event '", ev.name(),
                                  "' back-pointer (", ev._qBucket, ",",
                                  ev._qSlot,
                                  ") does not match heap slot ", i);
        if (e.sequence >= _nextSequence)
            return detail::format("event '", ev.name(),
                                  "' has sequence ", e.sequence,
                                  " >= next sequence ", _nextSequence);
        if (i > 0 && earlier(e, _heap[(i - 1) / 2]))
            return detail::format(
                "heap property violated at slot ", i, " ('", ev.name(),
                "' tick ", e.when, " earlier than parent '",
                _heap[(i - 1) / 2].event->name(), "' tick ",
                _heap[(i - 1) / 2].when, ")");
        if (ev.background())
            ++background;
    }

    if (background != _liveBackground)
        return detail::format("live background events ", background,
                              " != accounted count ", _liveBackground);
    return {};
}

Tick
EventQueue::nextTick() const
{
    MinRef m;
    if (!findMin(m))
        HOLDCSIM_PANIC("nextTick() on empty event queue");
    return m.inHeap ? _heap.front().when
                    : _buckets[m.bucket][m.slot].when;
}

Event &
EventQueue::pop()
{
    Event *ev = popIfBefore(maxTick, /*unbounded=*/true);
    // Unbounded extraction never declines; findMin panics on empty.
    return *ev;
}

Event *
EventQueue::popIfBefore(Tick bound, bool unbounded)
{
    if (_backend == Backend::calendar) {
        if (_bucketCount == 0 && !_heap.empty())
            rebaseOntoHeap();
        spillOversizedHead();
    }
    MinRef m;
    if (!findMin(m))
        HOLDCSIM_PANIC("pop() on empty event queue");
    Entry e = m.inHeap ? _heap.front() : _buckets[m.bucket][m.slot];
    if (!unbounded && e.when >= bound)
        return nullptr;
    if (m.inHeap) {
        heapRemoveAt(0);
        ++_counters.heapPops;
    } else {
        bucketRemoveAt(m.bucket, m.slot);
        ++_counters.bucketPops;
    }
    Event &ev = *e.event;
    ev._scheduled = false;
    if (ev.background())
        --_liveBackground;
    ++_counters.pops;
    if (_backend == Backend::calendar) {
        // Halve the ring when the population has collapsed well below
        // it (hysteresis: grow at >2x, shrink at <1/8x -- never both).
        if (_buckets.size() > numBuckets &&
            size() < _buckets.size() / 8)
            rehash(_bucketShift, _buckets.size() / 2);
        observePopGap(e.when);
    }
    return &ev;
}

} // namespace holdcsim
