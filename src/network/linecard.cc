#include "linecard.hh"

#include "sim/logging.hh"

namespace holdcsim {

static_assert(static_cast<int>(LineCardState::off) <
                  StateResidency::maxStates,
              "every line-card state needs a residency book");

LineCard::LineCard(Simulator &sim, unsigned id,
                   const SwitchPowerProfile &profile, AccrueFn accrue,
                   StateChangedFn state_changed)
    : _sim(sim), _id(id), _profile(profile),
      _accrue(std::move(accrue)),
      _stateChanged(std::move(state_changed))
{
    _residency.enter(static_cast<int>(_state), sim.curTick());
}

LineCard::~LineCard()
{
    _sim.timerWheel().cancel(_sleepHandle);
}

void
LineCard::timerFired(std::uint64_t, Tick)
{
    _sleepHandle = {}; // the firing handle is already dead
    if (!anyPortActive() && _state == LineCardState::active)
        setState(LineCardState::sleep);
}

void
LineCard::armSleep(Tick delay)
{
    _sim.timerWheel().rearm(_sleepHandle, *this, 0, delay);
}

void
LineCard::cancelSleep()
{
    _sim.timerWheel().cancel(_sleepHandle);
}

bool
LineCard::anyPortActive() const
{
    for (const Port *p : _ports) {
        if (p->busy() || p->state() == PortState::active)
            return true;
    }
    return false;
}

void
LineCard::portActivityChanged()
{
    if (_state == LineCardState::off)
        return;
    if (anyPortActive()) {
        cancelSleep();
        return;
    }
    if (_state == LineCardState::active)
        armSleep(_profile.linecardSleepThreshold);
}

Tick
LineCard::wake()
{
    cancelSleep();
    switch (_state) {
      case LineCardState::active:
        return 0;
      case LineCardState::sleep:
        setState(LineCardState::active);
        return _profile.linecardWakeLatency;
      case LineCardState::off:
        fatal("cannot route traffic through a powered-off line card");
    }
    HOLDCSIM_PANIC("unknown LineCardState");
}

void
LineCard::powerOff()
{
    for (const Port *p : _ports) {
        if (p->busy())
            fatal("cannot power off a line card with busy ports");
    }
    cancelSleep();
    setState(LineCardState::off);
}

Watts
LineCard::power() const
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

void
LineCard::setState(LineCardState next)
{
    if (next == _state)
        return;
    _accrue();
    _state = next;
    _residency.enter(static_cast<int>(next), _sim.curTick());
    traceState();
    _stateChanged();
}

void
LineCard::setTraceLabel(std::string label)
{
    _traceLabel = std::move(label);
    traceState();
}

void
LineCard::traceState()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || _traceLabel.empty() ||
        !tr->wants(TraceCategory::network)) {
        return;
    }
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("network", _traceLabel);
    const char *name = _state == LineCardState::active ? "active"
                       : _state == LineCardState::sleep ? "sleep"
                                                        : "off";
    tr->transition(_traceTrack, TraceCategory::network, name,
                   _sim.curTick());
}

} // namespace holdcsim
