#include "core.hh"

#include <memory>

#include "sim/logging.hh"

namespace holdcsim {

static_assert(static_cast<int>(CoreCState::c6) < CoreResidency::maxStates,
              "every core C-state needs a residency book");

namespace {

/** The state an idle stage from @p s enters (c6 is the floor). */
CoreCState
deeper(CoreCState s)
{
    switch (s) {
      case CoreCState::c0Idle:
        return CoreCState::c1;
      case CoreCState::c1:
        return CoreCState::c3;
      default:
        return CoreCState::c6;
    }
}

} // namespace

CorePool::CorePool(Simulator &sim, CoreHost &host,
                   std::shared_ptr<const ServerPowerProfile> profile,
                   unsigned n_cores,
                   const std::vector<double> &base_freqs_ghz,
                   const CorePlacement *placement)
    : DeferredTimers(sim.epoch()), _size(n_cores),
      _ownsSlots(placement == nullptr), _sim(sim), _host(host),
      _profile(std::move(profile))
{
    if (!_profile)
        fatal("a core pool needs a power profile");
    if (!placement)
        _profile->validate();
    if (n_cores == 0)
        fatal("a core pool needs at least one core");
    if (n_cores != _size)
        fatal("a core pool holds at most 32,767 cores");
    if (!base_freqs_ghz.empty() && base_freqs_ghz.size() != n_cores)
        fatal("base_freqs_ghz must be empty or have one entry per core");
    for (double f : base_freqs_ghz)
        if (f <= 0.0)
            fatal("core base frequency must be positive");

    if (!base_freqs_ghz.empty()) {
        _baseFreqGhz = std::make_unique<double[]>(n_cores);
        std::copy(base_freqs_ghz.begin(), base_freqs_ghz.end(),
                  _baseFreqGhz.get());
    }

    // The pool's own block is held here until the pool is registered,
    // so a throw on the way frees it.
    auto release = [](void *block) { ::operator delete(block); };
    std::unique_ptr<void, decltype(release)> own(
        _ownsSlots ? ::operator new(slotBlockBytes(n_cores)) : nullptr,
        release);
    _slots = static_cast<Slot *>(_ownsSlots ? own.get()
                                            : placement->slotBlock);
    std::uninitialized_value_construct_n(_slots, n_cores);

    const Tick now = sim.curTick();
    for (unsigned c = 0; c < n_cores; ++c) {
        Slot &s = _slots[c];
        s.residency.enter(static_cast<int>(s.cstate), now);
        armStage(c, now);
    }
    if (placement)
        sim.addDeferredAt(*this, placement->deferredSlot);
    else
        sim.addDeferred(*this);
    own.release();
}

CorePool::~CorePool()
{
    if (_busy) {
        for (unsigned c = 0; c < _size; ++c)
            if (_busy[c].completion.scheduled())
                _sim.deschedule(_busy[c].completion);
        releaseBusy();
    }
    _sim.removeDeferred(*this);
    if (_ownsSlots)
        ::operator delete(_slots);
}

double
CorePool::frequencyGhz(unsigned c) const
{
    const auto &ps = _profile->pstates;
    const double base = _baseFreqGhz ? _baseFreqGhz[c] : ps[0].freqGhz;
    return base * ps[_slots[c].pstate].freqGhz / ps[0].freqGhz;
}

void
CorePool::setPState(unsigned c, std::size_t idx)
{
    if (idx >= _profile->pstates.size())
        fatal("P-state ", idx, " out of range");
    if (busy(c))
        fatal("changing P-state mid-task is not modeled");
    if (idx == _slots[c].pstate)
        return;
    const Tick now = _sim.curTick();
    _host.coreAccrue(now);
    _slots[c].pstate = static_cast<std::uint8_t>(idx);
    if (TraceManager *tr = _sim.tracer()) {
        if (TraceTrackId track = traceTrack(c, *tr); track != noTraceTrack)
            tr->instant(track, TraceCategory::core,
                        "P" + std::to_string(idx), now);
    }
    _host.coreStateChanged(now);
}

Tick
CorePool::exitLatency(CoreCState from) const
{
    switch (from) {
      case CoreCState::c0Active:
      case CoreCState::c0Idle:
        return 0;
      case CoreCState::c1:
        return _profile->c1ExitLatency;
      case CoreCState::c3:
        return _profile->c3ExitLatency;
      case CoreCState::c6:
        return _profile->c6ExitLatency;
    }
    HOLDCSIM_PANIC("unknown CoreCState");
}

Tick
CorePool::processingTime(unsigned c, const TaskRef &task) const
{
    double ratio = _profile->pstates[0].freqGhz / frequencyGhz(c);
    double scaled = static_cast<double>(task.serviceTime) *
                    (task.computeIntensity * ratio +
                     (1.0 - task.computeIntensity));
    // Saturate: casting a double beyond Tick's range is UB, and a
    // huge service time at a slow P-state can overflow 2^64 ns.
    if (!(scaled + 0.5 < static_cast<double>(maxTick)))
        return maxTick;
    Tick t = static_cast<Tick>(scaled + 0.5);
    return t > 0 ? t : 1;
}

void
CorePool::startTask(unsigned c, const TaskRef &task, Tick extra_wake)
{
    if (busy(c))
        HOLDCSIM_PANIC("core ", c, " given a task while busy");
    if (!_busy) {
        _busy = static_cast<Busy *>(
            _sim.blockCache().take(&destroyBusy, _size));
        if (!_busy) {
            auto release = [](void *block) { ::operator delete(block); };
            std::unique_ptr<void, decltype(release)> block(
                ::operator new(busyBlockBytes(_size)), release);
            std::uninitialized_default_construct_n(
                static_cast<Busy *>(block.get()), _size);
            _busy = static_cast<Busy *>(block.release());
        }
    }
    ++_running;
    Busy &b = _busy[c];
    b.completion.pool = this;
    b.completion.core = c;
    Tick wake = exitLatency(_slots[c].cstate) + extra_wake;
    const Tick now = _sim.curTick();
    stopStage(c);
    setCState(c, CoreCState::c0Active, now);
    b.current = task;
    b.startedAt = now;
    // The wake latency delays the task but the core is already
    // powered up (C0) while exiting, so C0-active power during the
    // exit window is a close approximation.
    _sim.scheduleAfter(b.completion, wake + processingTime(c, task));
}

void
CorePool::complete(unsigned c)
{
    // Task done: hand the result up, then fall idle.
    settle();
    TaskRef finished = _busy[c].current;
    ++_slots[c].tasksExecuted;
    const Tick now = _sim.curTick();
    setCState(c, CoreCState::c0Idle, now);
    armStage(c, now);
    --_running;
    _host.coreTaskDone(c, finished);
    // The host may have started more work here, or aborted the rest
    // (which hands the block back itself); the event running now is
    // not touched again once this returns.
    if (_running == 0 && _busy)
        releaseBusy();
}

void
CorePool::releaseBusy()
{
    _sim.blockCache().give(_busy, &destroyBusy, _size);
    _busy = nullptr;
}

void
CorePool::destroyBusy(void *block, std::size_t n_cores)
{
    std::destroy_n(static_cast<Busy *>(block), n_cores);
    ::operator delete(block);
}

Watts
CorePool::power(unsigned c) const
{
    switch (_slots[c].cstate) {
      case CoreCState::c0Active:
        return _profile->coreActive *
               _profile->pstates[_slots[c].pstate].powerScale;
      case CoreCState::c0Idle:
        return _profile->coreC0Idle;
      case CoreCState::c1:
        return _profile->coreC1;
      case CoreCState::c3:
        return _profile->coreC3;
      case CoreCState::c6:
        return _profile->coreC6;
    }
    HOLDCSIM_PANIC("unknown CoreCState");
}

void
CorePool::setCState(unsigned c, CoreCState next, Tick at)
{
    Slot &s = _slots[c];
    if (next == s.cstate)
        return;
    _host.coreAccrue(at);
    s.cstate = next;
    s.residency.enter(static_cast<int>(next), at);
    traceCState(c, at);
    _host.coreStateChanged(at);
}

void
CorePool::setTraceLabel(unsigned c, std::string label)
{
    if (!_traceLabel)
        _traceLabel = std::make_unique<std::string[]>(size());
    _traceLabel[c] = std::move(label);
    // Open the initial state's slice right away so the timeline
    // starts at construction, not at the first transition.
    traceCState(c, _sim.curTick());
}

void
CorePool::traceCState(unsigned c, Tick at)
{
    TraceManager *tr = _sim.tracer();
    if (!tr)
        return;
    if (TraceTrackId track = traceTrack(c, *tr); track != noTraceTrack)
        tr->transition(track, TraceCategory::core,
                       toString(_slots[c].cstate), at);
}

TraceTrackId
CorePool::traceTrack(unsigned c, TraceManager &tr)
{
    if (!_traceLabel || _traceLabel[c].empty() ||
        !tr.wants(TraceCategory::core))
        return noTraceTrack;
    TraceTrackId &track = _slots[c].traceTrack;
    if (track == noTraceTrack)
        track = tr.track("cores", _traceLabel[c]);
    return track;
}

Tick
CorePool::stageDelay(CoreCState s) const
{
    switch (s) {
      case CoreCState::c0Idle:
        return _profile->demoteC1After;
      case CoreCState::c1:
        return _profile->demoteC3After;
      case CoreCState::c3:
        return _profile->demoteC6After;
      default:
        return maxTick; // busy, or c6: nowhere deeper to go
    }
}

void
CorePool::armStage(unsigned c, Tick at)
{
    // maxTick delay: the next state is disabled, the ladder ends here.
    const Tick delay = stageDelay(_slots[c].cstate);
    const Tick due =
        delay == maxTick ? maxTick
                         : _sim.timerWheel().deadlineAt(at, delay);
    _slots[c].stageAt = due;
    _nextStage = std::min(_nextStage, due);
}

void
CorePool::stopStage(unsigned c)
{
    Slot &s = _slots[c];
    if (s.stageAt == maxTick)
        return;
    const bool was_next = s.stageAt == _nextStage;
    s.stageAt = maxTick;
    if (!was_next)
        return;
    _nextStage = maxTick;
    for (unsigned i = 0; i < _size; ++i)
        _nextStage = std::min(_nextStage, _slots[i].stageAt);
}

void
CorePool::armHostTimer(Tick delay)
{
    const Tick now = _sim.curTick();
    if (delay > maxTick - now)
        fatal("host idle timer overflows Tick (now=", now,
              " delay=", delay, ")");
    _hostTimer = now + delay;
}

void
CorePool::settleDue()
{
    const Tick now = _sim.curTick();
    // A stage and the countdown due on one tick: the stage first.
    // Both land on that tick either way, so energies and residencies
    // do not depend on the order.
    for (;;) {
        if (_nextStage <= now && _nextStage <= _hostTimer) {
            demoteNext();
        } else if (_hostTimer <= now) {
            const Tick at = _hostTimer;
            _hostTimer = maxTick;
            _host.hostTimerExpired(at);
        } else {
            return;
        }
    }
}

void
CorePool::demoteNext()
{
    const Tick at = _nextStage;
    unsigned c = 0;
    while (_slots[c].stageAt != at)
        ++c;
    stopStage(c);
    setCState(c, deeper(_slots[c].cstate), at);
    armStage(c, at);
}

Tick
CorePool::lastDeferredTick() const
{
    Tick last = 0;
    if (_hostTimer != maxTick) {
        last = _hostTimer;
        // The suspend forces every core to C6: stages after it never
        // come, and the ones before it end no later.
        if (_host.hostTimerStopsCores())
            return last;
    }
    for (unsigned c = 0; c < _size; ++c) {
        Tick at = _slots[c].stageAt;
        if (at == maxTick)
            continue;
        // Walk the rest of the ladder from the pending stage.
        for (CoreCState s = deeper(_slots[c].cstate);
             stageDelay(s) != maxTick; s = deeper(s))
            at = _sim.timerWheel().deadlineAt(at, stageDelay(s));
        last = std::max(last, at);
    }
    return last;
}

void
CorePool::sleepAll(Tick at)
{
    for (unsigned c = 0; c < _size; ++c)
        forceDeepSleep(c, at);
}

void
CorePool::forceDeepSleep(unsigned c, Tick at)
{
    if (busy(c))
        HOLDCSIM_PANIC("core ", c, " forced to sleep while busy");
    stopStage(c);
    setCState(c, CoreCState::c6, at);
}

Core::AbortResult
Core::abortTask()
{
    CorePool &p = *_pool;
    const unsigned c = _id;
    p.settle();
    if (!busy())
        HOLDCSIM_PANIC("core ", c, " aborted with no task running");
    CorePool::Busy &b = p._busy[c];
    Tick ran = p._sim.curTick() - b.startedAt;
    // Energy burned so far at the current operating point is wasted:
    // the partial execution is discarded and will be redone.
    AbortResult out{b.current, energyOver(p.power(c), ran), ran};
    if (b.completion.scheduled())
        p._sim.deschedule(b.completion);
    const Tick now = p._sim.curTick();
    p.setCState(c, CoreCState::c0Idle, now);
    p.armStage(c, now);
    if (--p._running == 0)
        p.releaseBusy();
    return out;
}

} // namespace holdcsim
