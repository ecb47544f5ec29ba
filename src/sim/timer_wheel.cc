#include "timer_wheel.hh"

#include <algorithm>
#include <utility>

#include "logging.hh"
#include "simulator.hh"

namespace holdcsim {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

/** Exact mode's timer: the kernel event and the arena entry in one. */
struct TimerWheel::ExactEvent final : Event {
    ExactEvent() : Event("timer", powerPriority) {}
    void process() override { wheel->fireExact(*this); }

    void
    serve(TimerClient &c, std::uint64_t t)
    {
        token = t;
        if (&c == client)
            return; // its owner re-arms a pending timer
        client = &c;
        const char *name = c.timerName();
        if (name != label) { // pointer compare: renames are rare
            rename(name);
            label = name;
        }
    }

    TimerWheel *wheel = nullptr;
    TimerClient *client = nullptr;
    const char *label = nullptr;
    std::uint64_t token = 0;
    /** Bumped on every free, like Entry::gen. */
    std::uint32_t gen = 0;
    std::uint32_t nextFree = Handle::invalidIdx;
    std::uint32_t idx = 0;
};

TimerWheel::TimerWheel(Simulator &sim, Tick granularity, std::size_t slots)
    : _sim(sim), _granularity(granularity),
      _tickEvent([this] { tick(); }, "wheel.tick", Event::powerPriority)
{
    if (granularity == 0)
        fatal("TimerWheel: granularity must be >= 1 tick");
    if (!exact())
        _slots.resize(roundUpPow2(std::max<std::size_t>(slots, 2)));
}

TimerWheel::~TimerWheel()
{
    if (_scheduledAt != maxTick)
        _sim.deschedule(_tickEvent);
    for (const auto &chunk : _exactEvents) {
        for (std::uint32_t k = 0; k < exactChunk; ++k)
            if (chunk[k].scheduled())
                _sim.deschedule(chunk[k]);
    }
}

Tick
TimerWheel::quantize(Tick t) const
{
    if (_granularity == 1)
        return t;
    if (t > maxTick - (_granularity - 1))
        return maxTick - maxTick % _granularity; // saturate on a boundary
    return ((t + _granularity - 1) / _granularity) * _granularity;
}

std::uint32_t
TimerWheel::allocEntry()
{
    if (_freeHead != Handle::invalidIdx) {
        std::uint32_t idx = _freeHead;
        _freeHead = _arena[idx].nextFree;
        return idx;
    }
    if (_arena.size() >= Handle::invalidIdx)
        fatal("TimerWheel: arena exhausted (", _arena.size(), " entries)");
    _arena.emplace_back();
    return static_cast<std::uint32_t>(_arena.size() - 1);
}

TimerWheel::ExactEvent &
TimerWheel::exactEvent(std::uint32_t idx) const
{
    return _exactEvents[idx / exactChunk][idx % exactChunk];
}

void
TimerWheel::freeExact(ExactEvent &ev)
{
    ++ev.gen; // invalidates every outstanding Handle to this event
    ev.client = nullptr;
    ev.nextFree = _exactFree;
    _exactFree = ev.idx;
}

void
TimerWheel::freeEntry(std::uint32_t idx)
{
    Entry &e = _arena[idx];
    ++e.gen; // invalidates every outstanding Handle/Ref to this entry
    e.live = false;
    e.client = nullptr;
    e.nextFree = _freeHead;
    _freeHead = idx;
}

bool
TimerWheel::overflowAfter(const OverflowItem &a, const OverflowItem &b)
{
    if (a.deadline != b.deadline)
        return a.deadline > b.deadline;
    return a.seq > b.seq;
}

void
TimerWheel::pushOverflow(OverflowItem item)
{
    _overflow.push_back(item);
    std::push_heap(_overflow.begin(), _overflow.end(), overflowAfter);
}

void
TimerWheel::popOverflow()
{
    std::pop_heap(_overflow.begin(), _overflow.end(), overflowAfter);
    _overflow.pop_back();
}

void
TimerWheel::settleOverflow(Tick window_base)
{
    const Tick horizon_end = window_base + span();
    while (!_overflow.empty()) {
        const OverflowItem &top = _overflow.front();
        Entry &e = _arena[top.idx];
        if (e.gen != top.gen || !e.live) {
            popOverflow(); // cancelled (or reused) while parked
            continue;
        }
        if (top.deadline >= horizon_end)
            break;
        Slot &s = slotFor(top.deadline);
        s.ids.push_back({top.idx, top.gen});
        ++s.liveCount;
        ++_ringLive;
        e.inRing = true;
        ++_stats.overflowMigrations;
        popOverflow();
    }
}

Tick
TimerWheel::deadlineAt(Tick from, Tick delay) const
{
    if (delay > maxTick - from)
        fatal("TimerWheel: deadline overflows Tick (now=", from,
              " delay=", delay, ")");
    return quantize(from + delay);
}

TimerWheel::Handle
TimerWheel::arm(TimerClient &client, std::uint64_t token, Tick delay)
{
    const Tick dl = deadlineAt(_sim.curTick(), delay);
    // An empty wheel may hold a stale window from long ago; snap it
    // forward so near deadlines land in the ring, not the heap.
    if (_live == 0) {
        const Tick now = _sim.curTick();
        _windowBase = now - now % _granularity;
    }
    ++_live;
    ++_stats.armed;
    if (_live > _stats.maxLive)
        _stats.maxLive = _live;

    if (exact()) {
        if (_exactFree == Handle::invalidIdx) {
            const std::size_t base = _exactEvents.size() * exactChunk;
            if (base > Handle::invalidIdx - exactChunk)
                fatal("TimerWheel: arena exhausted (", base, " entries)");
            _exactEvents.push_back(
                std::make_unique<ExactEvent[]>(exactChunk));
            for (std::uint32_t k = exactChunk; k-- > 0;) {
                ExactEvent &ev = _exactEvents.back()[k];
                ev.wheel = this;
                ev.idx = static_cast<std::uint32_t>(base + k);
                freeExact(ev);
            }
        }
        ExactEvent &ev = exactEvent(_exactFree);
        _exactFree = ev.nextFree;
        ev.serve(client, token);
        _sim.schedule(ev, dl);
        return {ev.idx, ev.gen};
    }

    const std::uint32_t idx = allocEntry();
    Entry &e = _arena[idx];
    e.client = &client;
    e.token = token;
    e.seq = _nextSeq++;
    e.deadline = dl;
    e.live = true;

    if (dl < _windowBase + span()) {
        e.inRing = true;
        Slot &s = slotFor(dl);
        s.ids.push_back({idx, e.gen});
        ++s.liveCount;
        ++_ringLive;
    } else {
        e.inRing = false;
        pushOverflow({dl, e.seq, idx, e.gen});
    }

    if (dl < _scheduledAt)
        scheduleAt(dl);
    return {idx, e.gen};
}

void
TimerWheel::rearm(Handle &h, TimerClient &client, std::uint64_t token,
                  Tick delay)
{
    if (!exact() || !pending(h)) {
        cancel(h);
        h = arm(client, token, delay);
        return;
    }
    const Tick dl = deadlineAt(_sim.curTick(), delay);
    ExactEvent &ev = exactEvent(h.idx);
    ev.serve(client, token);
    ++_stats.cancelled;
    ++_stats.armed;
    // Simulator::reschedule leaves an event already due at dl alone.
    _sim.reschedule(ev, dl);
}

void
TimerWheel::cancelValid(Handle &h)
{
    if (exact()) {
        if (pending(h)) {
            ExactEvent &ev = exactEvent(h.idx);
            _sim.deschedule(ev);
            freeExact(ev);
            --_live;
            ++_stats.cancelled;
        }
        h = {};
        return;
    }
    Entry &e = _arena[h.idx];
    if (e.gen != h.gen || !e.live) {
        h = {}; // stale: the timer already fired or was re-armed
        return;
    }
    if (e.inRing) {
        Slot &s = slotFor(e.deadline);
        if (--s.liveCount == 0)
            s.ids.clear(); // nothing live left: drop the dead refs too
        --_ringLive;
    }
    // Overflow items are dropped lazily by settleOverflow(), batch
    // entries by the firing loop's liveness check.
    freeEntry(h.idx);
    --_live;
    ++_stats.cancelled;
    if (_live == 0 && _scheduledAt != maxTick) {
        _sim.deschedule(_tickEvent);
        _scheduledAt = maxTick;
    }
    h = {};
}

bool
TimerWheel::pending(const Handle &h) const
{
    if (exact()) {
        return h.valid() && h.idx < _exactEvents.size() * exactChunk &&
               exactEvent(h.idx).gen == h.gen;
    }
    if (!h.valid() || h.idx >= _arena.size())
        return false;
    const Entry &e = _arena[h.idx];
    return e.gen == h.gen && e.live;
}

Tick
TimerWheel::deadline(const Handle &h) const
{
    if (!pending(h))
        fatal("TimerWheel::deadline on a dead handle");
    return exact() ? exactEvent(h.idx).when() : _arena[h.idx].deadline;
}

void
TimerWheel::scheduleAt(Tick when)
{
    _sim.reschedule(_tickEvent, when);
    _scheduledAt = when;
}

void
TimerWheel::fireExact(ExactEvent &ev)
{
    TimerClient *client = ev.client;
    const std::uint64_t token = ev.token;
    freeExact(ev); // before the callback, which may re-arm
    --_live;
    ++_stats.fired;
    ++_stats.tickEvents;
    _stats.maxBatch = 1;
    client->timerFired(token, _sim.curTick());
}

void
TimerWheel::tick()
{
    const Tick boundary = _sim.curTick();
    _scheduledAt = maxTick;
    ++_stats.tickEvents;

    // Slide the window so it starts at the boundary being fired. All
    // live deadlines are >= boundary (it is the minimum), and ring
    // entries armed under the old window satisfy dl < oldBase + span
    // <= boundary + span, so every ring entry stays inside the new
    // window and the slot-index formula still finds it.
    _windowBase = boundary;
    settleOverflow(boundary);

    // Detach this boundary's batch before firing: callbacks may arm
    // new timers (strictly future after quantization) into the slot.
    Slot &slot = slotFor(boundary);
    _batch.clear();
    _batch.swap(slot.ids);
    _ringLive -= slot.liveCount;
    slot.liveCount = 0;
    for (const Ref &ref : _batch) {
        Entry &e = _arena[ref.idx];
        if (e.gen == ref.gen)
            e.inRing = false; // a cancel must not touch the slot now
    }

    // Fire live entries in arm order (seq), the slot's own order (see
    // the header). Free each entry before its callback so the callback
    // can re-arm without tripping pending().
    std::uint64_t fired = 0, min_seq = 0;
    for (const Ref &ref : _batch) {
        Entry &e = _arena[ref.idx];
        if (e.gen != ref.gen || !e.live)
            continue; // cancelled, possibly by an earlier callback
        if (e.seq < min_seq)
            HOLDCSIM_PANIC("TimerWheel: batch out of arm order");
        min_seq = e.seq + 1;
        TimerClient *client = e.client;
        const std::uint64_t token = e.token;
        freeEntry(ref.idx);
        --_live;
        ++_stats.fired;
        ++fired;
        client->timerFired(token, boundary);
    }
    if (fired > _stats.maxBatch)
        _stats.maxBatch = fired;
    _batch.clear();

    if (_live == 0)
        return; // stay descheduled; run() may drain and finish

    // Find the next occupied boundary. k = 0 re-checks the current
    // slot: a callback may have armed a zero-delay timer landing on
    // this very boundary, which must fire later this tick, not a lap
    // from now. Then scan the ring forward (only if it holds a live
    // timer) and fall back to the overflow heap (whose live top is
    // beyond the ring horizon by construction).
    Tick next = maxTick;
    const std::size_t n = _slots.size();
    for (std::size_t k = 0; _ringLive > 0 && k <= n; ++k) {
        const Tick b = boundary + _granularity * static_cast<Tick>(k);
        if (_slots[static_cast<std::size_t>(b / _granularity) & (n - 1)]
                .liveCount > 0) {
            next = b;
            break;
        }
    }
    if (next == maxTick) {
        while (!_overflow.empty()) {
            const OverflowItem &top = _overflow.front();
            const Entry &e = _arena[top.idx];
            if (e.gen != top.gen || !e.live) {
                popOverflow();
                continue;
            }
            next = top.deadline;
            break;
        }
    }
    if (next == maxTick)
        fatal("TimerWheel: ", _live, " live timers but no next boundary");
    scheduleAt(next);
}

} // namespace holdcsim
