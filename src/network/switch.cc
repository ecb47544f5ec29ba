#include "switch.hh"

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
    : _sim(sim), _config(config), _profile(profile),
      _portPool(sim, *this, _profile, checkedPortRates(config, _profile),
                config.portBufferCapacity),
      _lastAccrue(sim.curTick())
{
    unsigned n_ports = _portPool.size();
    unsigned n_cards =
        (n_ports + config.portsPerLinecard - 1) /
        config.portsPerLinecard;
    for (unsigned lc = 0; lc < n_cards; ++lc) {
        _linecards.push_back(std::make_unique<LineCard>(
            sim, lc, _profile, [this] { accrue(); },
            [this] { linecardStateChanged(); }));
        if (sim.tracer()) {
            _linecards.back()->setTraceLabel(
                "sw" + std::to_string(config.id) + ".lc" +
                std::to_string(lc));
        }
    }
    _ports.reserve(n_ports);
    for (unsigned p = 0; p < n_ports; ++p) {
        _ports.emplace_back(_portPool, p);
        _linecards[p / config.portsPerLinecard]->addPort(&_ports.back());
    }
    _residency.enter(0, sim.curTick()); // awake
    traceState();
    // Ports arm their LPI timers at construction; the resulting
    // quiescence will cascade into line card / switch sleep per the
    // configured thresholds.
}

Switch::~Switch()
{
    _sim.timerWheel().cancel(_sleepHandle);
}

void
Switch::timerFired(std::uint64_t, Tick)
{
    _sleepHandle = {}; // the firing handle is already dead
    trySleep();
}

void
Switch::armSleep()
{
    _sim.timerWheel().rearm(_sleepHandle, *this, 0,
                            _config.switchSleepDelay);
}

void
Switch::cancelSleep()
{
    _sim.timerWheel().cancel(_sleepHandle);
}

Tick
Switch::wakeForActivity(unsigned port_idx)
{
    Tick delay = 0;
    if (_asleep) {
        setAsleep(false);
        delay += _profile.switchWakeLatency;
    }
    cancelSleep();
    unsigned lc = port_idx / _config.portsPerLinecard;
    delay += _linecards.at(lc)->wake();
    delay += _ports.at(port_idx).wake();
    return delay;
}

bool
Switch::trySleep()
{
    if (_asleep)
        return true;
    for (const auto &p : _ports) {
        if (p.busy())
            return false;
    }
    setAsleep(true);
    return true;
}

void
Switch::setFailed(bool failed)
{
    if (failed == _failed)
        return;
    accrue();
    _failed = failed;
    if (failed) {
        cancelSleep();
    } else {
        // A repaired switch whose line cards are all still quiescent
        // would otherwise stay awake forever: no port edge means no
        // one ever restarts the sleep countdown the failure
        // cancelled.
        linecardStateChanged();
    }
    traceState();
}

bool
Switch::forwardPacket(const PacketPtr &pkt, unsigned out_port)
{
    if (_failed)
        return false; // a dead switch drops everything
    Tick wake_delay = wakeForActivity(out_port);
    ++_packetsForwarded;
    return _ports.at(out_port).sendPacket(
        pkt, wake_delay + _forwardingDelay);
}

Tick
Switch::flowStarted(unsigned in_port, unsigned out_port)
{
    Tick delay = wakeForActivity(in_port);
    delay += wakeForActivity(out_port);
    _ports.at(in_port).flowStarted();
    _ports.at(out_port).flowStarted();
    return delay;
}

void
Switch::flowEnded(unsigned in_port, unsigned out_port)
{
    _ports.at(in_port).flowEnded();
    _ports.at(out_port).flowEnded();
}

Watts
Switch::power() const
{
    if (_failed)
        return 0.0;
    if (_asleep)
        return _profile.switchSleep;
    Watts total = _profile.chassisBase;
    for (const auto &lc : _linecards)
        total += lc->power();
    for (const auto &p : _ports)
        total += p.power();
    return total;
}

void
Switch::accrue()
{
    Tick now = _sim.curTick();
    if (now == _lastAccrue)
        return;
    if (now < _lastAccrue)
        HOLDCSIM_PANIC("switch ", id(), " accrue() with time reversed");
    _energy += energyOver(power(), now - _lastAccrue);
    _lastAccrue = now;
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
    _residency.finish(now);
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
    _residency.reset();
    _residency.enter(_asleep ? 1 : 0, now);
    // Cascade: a warmup reset must also zero the per-port packet
    // counters and the port/line-card residencies, or post-warmup
    // dumps double-count the warmup interval.
    for (auto &p : _ports)
        p.resetStats(now);
    for (auto &lc : _linecards)
        lc->resetStats(now);
}

void
Switch::portActivityChanged(unsigned port)
{
    _linecards.at(port / _config.portsPerLinecard)
        ->portActivityChanged();
}

void
Switch::linecardStateChanged()
{
    if (_config.switchSleepDelay == maxTick || _asleep || _failed)
        return;
    // Arm the whole-switch sleep countdown once every line card has
    // gone to sleep (or off).
    for (const auto &lc : _linecards) {
        if (lc->state() == LineCardState::active)
            return;
    }
    armSleep();
}

void
Switch::setAsleep(bool asleep)
{
    if (asleep == _asleep)
        return;
    accrue();
    _asleep = asleep;
    if (asleep)
        ++_sleepTransitions;
    _residency.enter(asleep ? 1 : 0, _sim.curTick());
    traceState();
}

void
Switch::traceState()
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
    tr->transition(_traceTrack, TraceCategory::network, name,
                   _sim.curTick());
}

} // namespace holdcsim
