#include "core.hh"

#include "sim/logging.hh"

namespace holdcsim {

static_assert(static_cast<int>(CoreCState::c6) < StateResidency::maxStates,
              "every core C-state needs a residency book");

CorePool::CorePool(Simulator &sim, CoreHost &host,
                   const ServerPowerProfile &profile, unsigned n_cores,
                   const std::vector<double> &base_freqs_ghz)
    : _sim(sim), _host(host), _profile(profile), _size(n_cores)
{
    if (n_cores == 0)
        fatal("a core pool needs at least one core");
    if (!base_freqs_ghz.empty() && base_freqs_ghz.size() != n_cores)
        fatal("base_freqs_ghz must be empty or have one entry per core");
    for (double f : base_freqs_ghz)
        if (f <= 0.0)
            fatal("core base frequency must be positive");

    _slots = std::make_unique<Slot[]>(n_cores);

    const Tick now = sim.curTick();
    for (unsigned c = 0; c < n_cores; ++c) {
        Slot &s = _slots[c];
        s.baseFreqGhz = base_freqs_ghz.empty() ? profile.pstates[0].freqGhz
                                               : base_freqs_ghz[c];
        s.residency.enter(static_cast<int>(s.cstate), now);
        armDemotion(c);
    }
}

CorePool::~CorePool()
{
    for (Busy &b : _busy) {
        if (b.completion.scheduled())
            _sim.deschedule(b.completion);
    }
    for (unsigned c = 0; c < size(); ++c)
        cancelDemotion(c);
}

void
CorePool::timerFired(std::uint64_t token, Tick)
{
    const unsigned c = static_cast<unsigned>(token);
    _slots[c].demotion = {}; // the firing handle is already dead
    demote(c);
}

double
CorePool::frequencyGhz(unsigned c) const
{
    const auto &ps = _profile.pstates;
    const Slot &s = _slots[c];
    return s.baseFreqGhz * ps[s.pstate].freqGhz / ps[0].freqGhz;
}

void
CorePool::setPState(unsigned c, std::size_t idx)
{
    if (idx >= _profile.pstates.size())
        fatal("P-state ", idx, " out of range");
    if (busy(c))
        fatal("changing P-state mid-task is not modeled");
    if (idx == _slots[c].pstate)
        return;
    _host.coreAccrue();
    _slots[c].pstate = idx;
    if (TraceManager *tr = _sim.tracer()) {
        if (TraceTrackId track = traceTrack(c, *tr); track != noTraceTrack)
            tr->instant(track, TraceCategory::core,
                        "P" + std::to_string(idx), _sim.curTick());
    }
    _host.coreStateChanged();
}

Tick
CorePool::exitLatency(CoreCState from) const
{
    switch (from) {
      case CoreCState::c0Active:
      case CoreCState::c0Idle:
        return 0;
      case CoreCState::c1:
        return _profile.c1ExitLatency;
      case CoreCState::c3:
        return _profile.c3ExitLatency;
      case CoreCState::c6:
        return _profile.c6ExitLatency;
    }
    HOLDCSIM_PANIC("unknown CoreCState");
}

Tick
CorePool::processingTime(unsigned c, const TaskRef &task) const
{
    double ratio = _profile.pstates[0].freqGhz / frequencyGhz(c);
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
    if (_busy.empty()) {
        // Vector assignment, not resize: Busy holds a pinned Event.
        _busy = std::vector<Busy>(_size);
        for (unsigned i = 0; i < _size; ++i) {
            _busy[i].completion.pool = this;
            _busy[i].completion.core = i;
        }
    }
    Busy &b = _busy[c];
    Tick wake = exitLatency(_slots[c].cstate) + extra_wake;
    cancelDemotion(c);
    setCState(c, CoreCState::c0Active);
    b.current = task;
    b.startedAt = _sim.curTick();
    // The wake latency delays the task but the core is already
    // powered up (C0) while exiting, so C0-active power during the
    // exit window is a close approximation.
    _sim.scheduleAfter(b.completion, wake + processingTime(c, task));
}

void
CorePool::complete(unsigned c)
{
    // Task done: hand the result up, then fall idle.
    TaskRef finished = _busy[c].current;
    ++_slots[c].tasksExecuted;
    setCState(c, CoreCState::c0Idle);
    armDemotion(c);
    _host.coreTaskDone(c, finished);
}

Watts
CorePool::power(unsigned c) const
{
    switch (_slots[c].cstate) {
      case CoreCState::c0Active:
        return _profile.coreActive *
               _profile.pstates[_slots[c].pstate].powerScale;
      case CoreCState::c0Idle:
        return _profile.coreC0Idle;
      case CoreCState::c1:
        return _profile.coreC1;
      case CoreCState::c3:
        return _profile.coreC3;
      case CoreCState::c6:
        return _profile.coreC6;
    }
    HOLDCSIM_PANIC("unknown CoreCState");
}

void
CorePool::setCState(unsigned c, CoreCState next)
{
    Slot &s = _slots[c];
    if (next == s.cstate)
        return;
    _host.coreAccrue();
    s.cstate = next;
    s.residency.enter(static_cast<int>(next), _sim.curTick());
    traceCState(c);
    _host.coreStateChanged();
}

void
CorePool::setTraceLabel(unsigned c, std::string label)
{
    if (!_traceLabel)
        _traceLabel = std::make_unique<std::string[]>(size());
    _traceLabel[c] = std::move(label);
    // Open the initial state's slice right away so the timeline
    // starts at construction, not at the first transition.
    traceCState(c);
}

void
CorePool::traceCState(unsigned c)
{
    TraceManager *tr = _sim.tracer();
    if (!tr)
        return;
    if (TraceTrackId track = traceTrack(c, *tr); track != noTraceTrack)
        tr->transition(track, TraceCategory::core,
                       toString(_slots[c].cstate), _sim.curTick());
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

void
CorePool::armDemotion(unsigned c)
{
    if (busy(c))
        return;
    // Pick the next deeper state this governor is configured for.
    Tick delay = 0;
    switch (_slots[c].cstate) {
      case CoreCState::c0Idle:
        delay = _profile.demoteC1After;
        break;
      case CoreCState::c1:
        delay = _profile.demoteC3After;
        break;
      case CoreCState::c3:
        delay = _profile.demoteC6After;
        break;
      default:
        return; // c6: nowhere deeper to go
    }
    if (delay == maxTick)
        return; // state disabled
    _sim.timerWheel().rearm(_slots[c].demotion, *this, c, delay);
}

void
CorePool::cancelDemotion(unsigned c)
{
    _sim.timerWheel().cancel(_slots[c].demotion);
}

void
CorePool::demote(unsigned c)
{
    if (busy(c))
        return; // raced with a task start; harmless
    switch (_slots[c].cstate) {
      case CoreCState::c0Idle:
        setCState(c, CoreCState::c1);
        break;
      case CoreCState::c1:
        setCState(c, CoreCState::c3);
        break;
      case CoreCState::c3:
        setCState(c, CoreCState::c6);
        break;
      default:
        return;
    }
    armDemotion(c);
}

void
CorePool::forceDeepSleep(unsigned c)
{
    if (busy(c))
        HOLDCSIM_PANIC("core ", c, " forced to sleep while busy");
    cancelDemotion(c);
    setCState(c, CoreCState::c6);
}

Core::AbortResult
Core::abortTask()
{
    CorePool &p = *_pool;
    const unsigned c = _id;
    if (!busy())
        HOLDCSIM_PANIC("core ", c, " aborted with no task running");
    CorePool::Busy &b = p._busy[c];
    Tick ran = p._sim.curTick() - b.startedAt;
    // Energy burned so far at the current operating point is wasted:
    // the partial execution is discarded and will be redone.
    AbortResult out{b.current, energyOver(p.power(c), ran), ran};
    if (b.completion.scheduled())
        p._sim.deschedule(b.completion);
    p.setCState(c, CoreCState::c0Idle);
    p.armDemotion(c);
    return out;
}

} // namespace holdcsim
