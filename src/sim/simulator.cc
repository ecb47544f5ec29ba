#include "simulator.hh"

#include <algorithm>
#include <iostream>
#include <limits>
#include <ostream>

#include "logging.hh"

namespace holdcsim {

void
Simulator::abortDump(std::ostream &os, const std::string &reason) const
{
    os << "==== simulator abort dump ====\n";
    os << "reason: " << reason << '\n';
    os << "tick: " << _curTick << " (" << toSeconds(_curTick)
       << " s)\n";
    os << "events_processed: " << _eventsProcessed << '\n';
    os << "experiment_seed: " << _seed << '\n';
    if (_eventBudget)
        os << "event_budget: " << _eventBudget << '\n';

    os << "queue.backend: "
       << (_queue.backend() == EventQueue::Backend::calendar
               ? "calendar"
               : "binary_heap")
       << '\n';
    os << "queue.size: " << _queue.size() << '\n';
    os << "queue.foreground: " << _queue.foregroundCount() << '\n';
    if (!_queue.empty())
        os << "queue.next_tick: " << _queue.nextTick() << '\n';
    os << "queue.bucket_width: " << _queue.bucketWidth() << '\n';
    const EventQueue::Counters &c = _queue.counters();
    os << "queue.schedules: " << c.schedules << '\n';
    os << "queue.pops: " << c.pops << '\n';
    os << "queue.rebases: " << c.rebases << '\n';
    os << "queue.recalibrations: " << c.recalibrations << '\n';
    os << "queue.peak_size: " << c.peakSize << '\n';

    for (const auto &[name, fn] : _abortContexts) {
        os << "context." << name << ":\n";
        fn(os);
    }

    if (_probe) {
        os << "recent events (newest last):\n";
        _probe->dumpRecent(os);
    }
    os << "==== end abort dump ====\n";
    os.flush();
}

void
Simulator::abortSim(const std::string &reason) const
{
    abortDump(std::cerr, reason);
    throw SimAbortError(reason);
}

void
Simulator::checkLimits() const
{
    if (_eventBudget != 0 && _eventsProcessed >= _eventBudget) {
        throw SimInterrupted(detail::format(
            "simulated-event budget exceeded (", _eventBudget,
            " events) at tick ", _curTick));
    }
    // The atomic is polled only every 1024 events: cancellation
    // latency stays in the microseconds while the fast path pays one
    // predictable branch.
    if (_interrupt && (_eventsProcessed & 0x3ffu) == 0 &&
        _interrupt->load(std::memory_order_relaxed)) {
        throw SimInterrupted(detail::format(
            "simulation interrupted at tick ", _curTick, " after ",
            _eventsProcessed, " events"));
    }
}

void
Simulator::schedule(Event &ev, Tick when)
{
    if (when < _curTick) {
        abortSim(detail::format("event '", ev.name(),
                                "' scheduled in the past (", when,
                                " < ", _curTick, ")"));
    }
    _queue.schedule(ev, when);
}

void
Simulator::reschedule(Event &ev, Tick when)
{
    if (when < _curTick) {
        abortSim(detail::format("event '", ev.name(),
                                "' rescheduled in the past (", when,
                                " < ", _curTick, ")"));
    }
    _queue.reschedule(ev, when);
}

template <bool WithProbe>
void
Simulator::processOne()
{
    processPopped<WithProbe>(_queue.pop());
}

template <bool WithProbe>
void
Simulator::processPopped(Event &ev)
{
    // pop() preserves when(); reading it off the popped event saves a
    // separate nextTick() peek per event.
    _curTick = ev.when();
    ++_eventsProcessed;
    ++_epoch;
    if constexpr (WithProbe) {
        // Queue depth at the pop counts the popped event itself.
        // beginEvent() must copy what it needs: one-shot events
        // delete themselves inside process().
        _probe->beginEvent(ev, _queue.size() + 1);
        try {
            ev.process();
        } catch (...) {
            // Keep begin/end pairing even when the event throws
            // (invariant violations, watchdog cancellations), so the
            // probe's state stays valid for the abort dump.
            _probe->endEvent();
            throw;
        }
        _probe->endEvent();
    } else {
        ev.process();
    }
}

void
Simulator::addDeferred(DeferredTimers &d)
{
    addDeferredAt(d, reserveDeferred(1));
}

std::size_t
Simulator::reserveDeferred(std::size_t n)
{
    // Slot indices are 32 bits (DeferredTimers::_deferredSlot).
    constexpr std::size_t maxSlots =
        std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
    const std::size_t first = _deferred.size();
    if (n > maxSlots - first)
        HOLDCSIM_PANIC("more than 2^32 deferred-timer entities");
    _deferred.resize(first + n);
    _horizon.resize(first + n);
    return first;
}

void
Simulator::removeDeferred(DeferredTimers &d)
{
    // Order is irrelevant (drains take a max): move the last entry
    // and its horizon into the hole, once the empty slots behind it
    // are dropped.
    while (!_deferred.back()) {
        _deferred.pop_back();
        _horizon.pop_back();
    }
    DeferredTimers *last = _deferred.back();
    last->_deferredSlot = d._deferredSlot;
    _deferred[d._deferredSlot] = last;
    _horizon[d._deferredSlot] = _horizon.back();
    _deferred.pop_back();
    _horizon.pop_back();
}

Tick
Simulator::deferredHorizon()
{
    Tick last = 0;
    for (std::size_t i = 0, n = _horizon.size(); i < n; ++i) {
        Tick h = _horizon[i];
        if (h == staleHorizon) {
            recordDeferred(i);
            h = _horizon[i];
            ++_horizonRefreshes;
        }
        last = std::max(last, h);
    }
    return last;
}

void
Simulator::settleForTrace()
{
    if (!_tracer)
        return;
    for (DeferredTimers *d : _deferred)
        if (d)
            d->settleDeferred();
}

template <bool WithProbe>
bool
Simulator::drainDeferred()
{
    const Tick last = deferredHorizon();
    if (last <= _curTick)
        return false;
    // The deferred transitions stand in for foreground events, so a
    // background event before the last of them still runs; one at
    // its tick would run after it (power-priority timers go first),
    // i.e. after the run ended.
    if (!_queue.empty() && _queue.nextTick() < last) {
        if (_limits)
            checkLimits();
        processOne<WithProbe>();
        return true;
    }
    _curTick = last;
    return false;
}

template <bool WithProbe>
Tick
Simulator::runLoop()
{
    do {
        while (_queue.foregroundCount() > 0 && !_stopRequested) {
            if (_limits)
                checkLimits();
            processOne<WithProbe>();
        }
    } while (!_stopRequested && drainDeferred<WithProbe>());
    ++_epoch;
    settleForTrace();
    return _curTick;
}

Tick
Simulator::run()
{
    _stopRequested = false;
    return _probe ? runLoop<true>() : runLoop<false>();
}

template <bool WithProbe>
Tick
Simulator::runUntilLoop(Tick limit)
{
    while (!_queue.empty() && !_stopRequested) {
        if (_limits)
            checkLimits();
        if (_queue.nextTick() > limit) {
            _curTick = limit;
            ++_epoch;
            settleForTrace();
            return _curTick;
        }
        processOne<WithProbe>();
    }
    // Queue drained (or stop() was called): advance the clock to the
    // limit only on a full drain -- a stopped run stays at the tick
    // of the last event it actually processed.
    if (!_stopRequested && _curTick < limit)
        _curTick = limit;
    ++_epoch;
    settleForTrace();
    return _curTick;
}

Tick
Simulator::runUntil(Tick limit)
{
    _stopRequested = false;
    return _probe ? runUntilLoop<true>(limit) : runUntilLoop<false>(limit);
}

template <bool WithProbe>
Tick
Simulator::runBeforeLoop(Tick bound)
{
    while (!_queue.empty() && !_stopRequested) {
        if (_limits)
            checkLimits();
        Event *ev = _queue.popIfBefore(bound);
        if (!ev)
            break;
        processPopped<WithProbe>(*ev);
    }
    ++_epoch;
    return _curTick;
}

Tick
Simulator::runBefore(Tick bound)
{
    _stopRequested = false;
    return _probe ? runBeforeLoop<true>(bound)
                  : runBeforeLoop<false>(bound);
}

} // namespace holdcsim
