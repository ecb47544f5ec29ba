#include "linecard.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "switch.hh"

namespace holdcsim {

static_assert(static_cast<int>(LineCardState::off) <
                  StateResidency::maxStates,
              "every line-card state needs a residency book");

LineCard::LineCard(Switch &sw, PortPool &ports, unsigned id,
                   unsigned first_port, unsigned n_ports,
                   const SwitchPowerProfile &profile)
    : _switch(sw), _ports(ports), _id(id), _firstPort(first_port),
      _nPorts(n_ports), _profile(profile)
{
    _residency.start(sw.simulator().curTick());
}

LineCardState
LineCard::state() const
{
    _switch.settle();
    return _state;
}

Tick
LineCard::wake()
{
    _switch.settle();
    return wakeNow();
}

void
LineCard::powerOff()
{
    _switch.settle();
    for (unsigned p = _firstPort; p < _firstPort + _nPorts; ++p) {
        if (_ports.busy(p))
            fatal("cannot power off a line card with busy ports");
    }
    _switch._cardSleep.clear(_id);
    setState(LineCardState::off, _switch.simulator().curTick());
}

Watts
LineCard::power() const
{
    _switch.settle();
    return powerNow();
}

Watts
LineCard::powerNow() const
{
    switch (_state) {
      case LineCardState::active:
        return _profile.linecardActive;
      case LineCardState::sleep:
        return _profile.linecardSleep;
      case LineCardState::off:
        return _profile.linecardOff;
    }
    HOLDCSIM_PANIC("unknown LineCardState");
}

const StateResidency &
LineCard::residency() const
{
    _switch.settle();
    return _residency;
}

void
LineCard::finishStats(Tick now)
{
    _switch.settle();
    _residency.accrue(static_cast<int>(_state), now);
}

void
LineCard::resetStats(Tick now)
{
    _switch.settle();
    _residency.start(now);
}

bool
LineCard::quiet() const
{
    for (unsigned p = _firstPort; p < _firstPort + _nPorts; ++p) {
        if (_ports.busy(p) || _ports._state[p] == PortState::active)
            return false;
    }
    return true;
}

void
LineCard::portActivityChanged(Tick at)
{
    if (_state == LineCardState::off)
        return;
    if (!quiet()) {
        _switch._cardSleep.clear(_id);
        return;
    }
    if (_state == LineCardState::active) {
        const Tick due = _switch.simulator().timerWheel().deadlineAt(
            at, _profile.linecardSleepThreshold);
        _switch._cardSleep.set(_id, due);
        _switch.noteDue(due);
    }
}

Tick
LineCard::wakeNow()
{
    _switch._cardSleep.clear(_id);
    switch (_state) {
      case LineCardState::active:
        return 0;
      case LineCardState::sleep:
        setState(LineCardState::active, _switch.simulator().curTick());
        return _profile.linecardWakeLatency;
      case LineCardState::off:
        fatal("cannot route traffic through a powered-off line card");
    }
    HOLDCSIM_PANIC("unknown LineCardState");
}

void
LineCard::sleepDue(Tick at)
{
    _switch._cardSleep.clear(_id);
    if (quiet() && _state == LineCardState::active)
        setState(LineCardState::sleep, at);
}

Tick
LineCard::sleepsAt() const
{
    if (_state != LineCardState::active)
        return 0;
    const Tick due = _switch._cardSleep.at(_id);
    if (due != maxTick)
        return due;
    // No countdown yet: it starts when the last pending port LPI
    // stage makes every member port quiescent.
    Tick quiet_at = maxTick;
    for (unsigned p = _firstPort; p < _firstPort + _nPorts; ++p) {
        if (_ports.busy(p))
            return maxTick;
        if (_ports._state[p] != PortState::active)
            continue;
        const Tick lpi = _ports._lpi.at(p);
        if (lpi == maxTick)
            return maxTick;
        quiet_at = quiet_at == maxTick ? lpi : std::max(quiet_at, lpi);
    }
    if (quiet_at == maxTick)
        return maxTick;
    return _switch.simulator().timerWheel().deadlineAt(
        quiet_at, _profile.linecardSleepThreshold);
}

void
LineCard::setState(LineCardState next, Tick at)
{
    if (next == _state)
        return;
    _switch.accrueTo(at);
    _residency.accrue(static_cast<int>(_state), at);
    _state = next;
    traceState(at);
    _switch.linecardStateChanged(at);
}

void
LineCard::setTraceLabel(std::string label)
{
    _traceLabel = std::move(label);
    traceState(_switch.simulator().curTick());
}

void
LineCard::traceState(Tick at)
{
    TraceManager *tr = _switch.simulator().tracer();
    if (!tr || _traceLabel.empty() ||
        !tr->wants(TraceCategory::network)) {
        return;
    }
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("network", _traceLabel);
    const char *name = _state == LineCardState::active ? "active"
                       : _state == LineCardState::sleep ? "sleep"
                                                        : "off";
    tr->transition(_traceTrack, TraceCategory::network, name, at);
}

} // namespace holdcsim
