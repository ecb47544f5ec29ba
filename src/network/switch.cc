#include "switch.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace holdcsim {

static_assert(1 < StateResidency::maxStates,
              "switch residency books hold awake (0) and asleep (1)");

namespace {

/**
 * Validate the profile and port configuration, then hand back the
 * per-port rates. Runs in the member-init list so the checks precede
 * PortPool construction.
 */
std::vector<BitsPerSec>
checkedPortRates(const SwitchConfig &config,
                 const SwitchPowerProfile &profile)
{
    profile.validate();
    if (config.portRates.empty())
        fatal("switch needs at least one port");
    if (config.portsPerLinecard == 0)
        fatal("portsPerLinecard must be positive");
    return config.portRates;
}

} // namespace

Switch::Switch(Simulator &sim, const SwitchConfig &config,
               const SwitchPowerProfile &profile)
    : DeferredTimers(sim.epoch()), _sim(sim), _config(config),
      _profile(profile),
      _portPool(sim, *this, _profile, checkedPortRates(config, _profile),
                config.portBufferCapacity),
      _cardSleep((_portPool.size() + config.portsPerLinecard - 1) /
                 config.portsPerLinecard),
      _lastAccrue(sim.curTick())
{
    const unsigned n_ports = _portPool.size();
    const unsigned per_card = config.portsPerLinecard;
    for (unsigned first = 0; first < n_ports; first += per_card) {
        _linecards.push_back(std::make_unique<LineCard>(
            *this, _portPool, first / per_card, first,
            std::min(per_card, n_ports - first), _profile));
        if (sim.tracer()) {
            _linecards.back()->setTraceLabel(
                "sw" + std::to_string(config.id) + ".lc" +
                std::to_string(first / per_card));
        }
    }
    _ports.reserve(n_ports);
    for (unsigned p = 0; p < n_ports; ++p)
        _ports.emplace_back(_portPool, p);
    _residency.start(sim.curTick()); // awake
    traceState(sim.curTick());
    // Idle ports start their LPI countdowns; the resulting quiescence
    // cascades into line card / switch sleep per the thresholds.
    for (unsigned p = 0; p < n_ports; ++p)
        _portPool.maybeArmLpi(p);
    sim.addDeferred(*this);
}

Switch::~Switch()
{
    _sim.removeDeferred(*this);
}

void
Switch::settleDue()
{
    const Tick now = _sim.curTick();
    for (;;) {
        // The earliest pending stage. On a tie ports go first, then
        // cards, then the switch: each level's countdown starts when
        // the level below it finished.
        const Tick port_at = _portPool._lpi.front();
        const Tick card_at = _cardSleep.front();
        const Tick at = std::min({port_at, card_at, _sleepAt});
        if (at > now) {
            _nextDue = at;
            return;
        }
        if (port_at == at) {
            _portPool.enterLpi(at);
        } else if (card_at == at) {
            _linecards[_cardSleep.frontId()]->sleepDue(at);
        } else {
            _sleepAt = maxTick;
            if (!_asleep && !anyPortBusy())
                setAsleep(true, at);
        }
    }
}

Tick
Switch::lastDeferredTick() const
{
    // Where the pending cascade ends if nothing touches the switch
    // again: every port's LPI stage, each card's sleep, and the
    // switch's sleep once the last card sleeps.
    Tick last = _sleepAt == maxTick ? 0 : _sleepAt;
    if (_portPool._lpi.back() != maxTick)
        last = std::max(last, _portPool._lpi.back());
    Tick cards_asleep = 0;
    for (const auto &lc : _linecards)
        cards_asleep = std::max(cards_asleep, lc->sleepsAt());
    if (cards_asleep == maxTick)
        return last;
    last = std::max(last, cards_asleep);
    if (_sleepAt == maxTick && cards_asleep != 0 && !_asleep &&
        !_failed && _config.switchSleepDelay != maxTick) {
        last = std::max(last, _sim.timerWheel().deadlineAt(
                                  cards_asleep, _config.switchSleepDelay));
    }
    return last;
}

Tick
Switch::wakeForActivity(unsigned port_idx)
{
    settle();
    Tick delay = 0;
    if (_asleep) {
        setAsleep(false, _sim.curTick());
        delay += _profile.switchWakeLatency;
    }
    _sleepAt = maxTick;
    delay += _linecards.at(port_idx / _config.portsPerLinecard)->wakeNow();
    delay += _portPool.wake(port_idx);
    return delay;
}

bool
Switch::trySleep()
{
    settle();
    if (_asleep)
        return true;
    if (anyPortBusy())
        return false;
    setAsleep(true, _sim.curTick());
    return true;
}

bool
Switch::anyPortBusy() const
{
    for (unsigned p = 0; p < _portPool.size(); ++p)
        if (_portPool.busy(p))
            return true;
    return false;
}

void
Switch::setFailed(bool failed)
{
    settle();
    if (failed == _failed)
        return;
    const Tick now = _sim.curTick();
    accrueTo(now);
    _failed = failed;
    if (failed) {
        _sleepAt = maxTick;
    } else {
        // A repaired switch whose line cards are all still quiescent
        // would otherwise stay awake forever: no port edge means no
        // one ever restarts the sleep countdown the failure
        // cancelled.
        linecardStateChanged(now);
    }
    traceState(now);
}

bool
Switch::forwardPacket(const PacketPtr &pkt, unsigned out_port)
{
    if (_failed)
        return false; // a dead switch drops everything
    Tick wake_delay = wakeForActivity(out_port);
    ++_packetsForwarded;
    return _portPool.sendPacket(out_port, pkt,
                                wake_delay + _forwardingDelay);
}

Tick
Switch::flowStarted(unsigned in_port, unsigned out_port)
{
    Tick delay = wakeForActivity(in_port);
    delay += wakeForActivity(out_port);
    _portPool.flowStarted(in_port);
    _portPool.flowStarted(out_port);
    return delay;
}

void
Switch::flowEnded(unsigned in_port, unsigned out_port)
{
    settle();
    _portPool.flowEnded(in_port);
    _portPool.flowEnded(out_port);
}

Watts
Switch::powerNow() const
{
    if (_failed)
        return 0.0;
    if (_asleep)
        return _profile.switchSleep;
    Watts total = _profile.chassisBase;
    for (const auto &lc : _linecards)
        total += lc->powerNow();
    for (unsigned p = 0; p < _portPool.size(); ++p)
        total += _portPool.power(p);
    return total;
}

void
Switch::accrueTo(Tick at)
{
    if (at == _lastAccrue)
        return;
    if (at < _lastAccrue)
        HOLDCSIM_PANIC("switch ", id(), " accrue() with time reversed");
    _energy += energyOver(powerNow(), at - _lastAccrue);
    _lastAccrue = at;
}

std::uint64_t
Switch::packetsDropped() const
{
    std::uint64_t total = 0;
    for (const auto &p : _ports)
        total += p.packetsDropped();
    return total;
}

void
Switch::finishStats()
{
    accrue();
    Tick now = _sim.curTick();
    _residency.accrue(_asleep ? 1 : 0, now);
    for (auto &p : _ports)
        p.finishStats(now);
    for (auto &lc : _linecards)
        lc->finishStats(now);
}

void
Switch::resetStats()
{
    accrue();
    _energy = 0.0;
    _packetsForwarded = 0;
    _sleepTransitions = 0;
    Tick now = _sim.curTick();
    _residency.start(now);
    // Cascade: a warmup reset must also zero the per-port packet
    // counters and the port/line-card residencies, or post-warmup
    // dumps double-count the warmup interval.
    for (auto &p : _ports)
        p.resetStats(now);
    for (auto &lc : _linecards)
        lc->resetStats(now);
}

void
Switch::portActivityChanged(unsigned port, Tick at)
{
    _linecards[port / _config.portsPerLinecard]->portActivityChanged(at);
}

void
Switch::linecardStateChanged(Tick at)
{
    if (_config.switchSleepDelay == maxTick || _asleep || _failed)
        return;
    // Start the whole-switch sleep countdown once every line card has
    // gone to sleep (or off).
    for (const auto &lc : _linecards) {
        if (lc->_state == LineCardState::active)
            return;
    }
    _sleepAt = _sim.timerWheel().deadlineAt(at, _config.switchSleepDelay);
    noteDue(_sleepAt);
}

void
Switch::setAsleep(bool asleep, Tick at)
{
    if (asleep == _asleep)
        return;
    accrueTo(at);
    _residency.accrue(_asleep ? 1 : 0, at);
    _asleep = asleep;
    if (asleep)
        ++_sleepTransitions;
    traceState(at);
}

void
Switch::traceState(Tick at)
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::network))
        return;
    if (_traceTrack == noTraceTrack) {
        _traceTrack =
            tr->track("network", "sw" + std::to_string(id()));
    }
    const char *name = _failed ? "failed"
                       : _asleep ? "asleep"
                                 : "awake";
    tr->transition(_traceTrack, TraceCategory::network, name, at);
}

} // namespace holdcsim
