#include "port.hh"

#include "sim/logging.hh"

namespace holdcsim {

static_assert(static_cast<int>(PortState::off) < StateResidency::maxStates,
              "every port state needs a residency book");

PortPool::PortPool(Simulator &sim, PortHost &host,
                   const SwitchPowerProfile &profile,
                   std::vector<BitsPerSec> line_rates,
                   std::size_t buffer_capacity)
    : _sim(sim), _host(host), _profile(profile),
      _bufferCapacity(buffer_capacity)
{
    for (BitsPerSec r : line_rates)
        if (r <= 0.0)
            fatal("port line rate must be positive");
    if (buffer_capacity == 0)
        fatal("port buffer capacity must be positive");

    const unsigned n = static_cast<unsigned>(line_rates.size());
    _state.assign(n, PortState::active);
    _rateFraction.assign(n, 1.0);
    _activeFlows.assign(n, 0);
    _lineRate = std::move(line_rates);
    _lpi.resize(n);
    _residency.resize(n);
    _packetsSent.assign(n, 0);
    _packetsDropped.assign(n, 0);
    _bytesSent.assign(n, 0);
    _io.resize(n);
    _txDone = std::make_unique<TxDoneEvent[]>(n);

    const Tick now = sim.curTick();
    for (unsigned p = 0; p < n; ++p) {
        _txDone[p].pool = this;
        _txDone[p].port = p;
        _residency[p].enter(static_cast<int>(_state[p]), now);
        maybeArmLpi(p);
    }
}

PortPool::~PortPool()
{
    for (unsigned p = 0; p < size(); ++p)
        if (_txDone[p].scheduled())
            _sim.deschedule(_txDone[p]);
    for (auto &h : _lpi)
        _sim.timerWheel().cancel(h);
}

void
PortPool::timerFired(std::uint64_t token, Tick)
{
    const unsigned p = static_cast<unsigned>(token);
    _lpi[p] = {}; // the firing handle is already dead
    if (!busy(p) && _state[p] == PortState::active) {
        setState(p, PortState::lpi);
        _host.portActivityChanged(p);
    }
}

void
PortPool::setState(unsigned p, PortState next)
{
    if (next == _state[p])
        return;
    _host.portAccrue();
    _state[p] = next;
    _residency[p].enter(static_cast<int>(next), _sim.curTick());
}

Tick
PortPool::wake(unsigned p)
{
    cancelLpi(p);
    if (_state[p] == PortState::active)
        return 0;
    if (_state[p] == PortState::off)
        fatal("cannot route traffic through a powered-off port");
    setState(p, PortState::active);
    _host.portActivityChanged(p);
    return _profile.lpiExitLatency;
}

void
PortPool::powerOff(unsigned p)
{
    if (busy(p))
        fatal("cannot power off a busy port");
    cancelLpi(p);
    setState(p, PortState::off);
    _host.portActivityChanged(p);
}

void
PortPool::setRateFraction(unsigned p, double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        fatal("port rate fraction must be in (0, 1]");
    _host.portAccrue();
    _rateFraction[p] = fraction;
}

bool
PortPool::sendPacket(unsigned p, const PacketPtr &pkt, Tick extra_delay)
{
    Tick wake_delay = wake(p) + extra_delay;
    PortIo &io = _io[p];
    if (io.queue.size() >= _bufferCapacity) {
        ++_packetsDropped[p];
        return false;
    }
    io.queue.push_back(pkt);
    if (!io.transmitting)
        startNext(p, wake_delay);
    return true;
}

void
PortPool::startNext(unsigned p, Tick extra_delay)
{
    PortIo &io = _io[p];
    if (io.queue.empty())
        HOLDCSIM_PANIC("port ", p, " startNext with empty queue");
    io.inFlight = io.queue.front();
    io.queue.pop_front();
    io.transmitting = true;
    Tick ser = serializationDelay(io.inFlight->bytes, currentRate(p));
    _sim.scheduleAfter(_txDone[p], extra_delay + ser);
}

void
PortPool::transmitDone(unsigned p)
{
    PortIo &io = _io[p];
    PacketPtr pkt = std::move(io.inFlight);
    io.transmitting = false;
    ++_packetsSent[p];
    _bytesSent[p] += pkt->bytes;
    if (!io.queue.empty())
        startNext(p, 0);
    else
        maybeArmLpi(p);
    if (io.deliver)
        io.deliver(pkt);
    else
        HOLDCSIM_PANIC("port ", p, " transmitted with no deliver fn");
}

void
PortPool::flowStarted(unsigned p)
{
    wake(p);
    ++_activeFlows[p];
}

void
PortPool::flowEnded(unsigned p)
{
    if (_activeFlows[p] == 0)
        HOLDCSIM_PANIC("port ", p, " flowEnded underflow");
    --_activeFlows[p];
    maybeArmLpi(p);
}

void
PortPool::maybeArmLpi(unsigned p)
{
    if (busy(p) || _state[p] != PortState::active)
        return;
    if (_profile.lpiIdleThreshold == maxTick)
        return; // LPI disabled (e.g. pre-802.3az hardware)
    _sim.timerWheel().rearm(_lpi[p], *this, p, _profile.lpiIdleThreshold);
}

void
PortPool::cancelLpi(unsigned p)
{
    _sim.timerWheel().cancel(_lpi[p]);
}

Watts
PortPool::power(unsigned p) const
{
    switch (_state[p]) {
      case PortState::active:
        return _profile.portPowerAt(_rateFraction[p]);
      case PortState::lpi:
        return _profile.portLpi;
      case PortState::off:
        return _profile.portOff;
    }
    HOLDCSIM_PANIC("unknown PortState");
}

void
Port::resetStats(Tick now)
{
    PortPool &p = *_pool;
    p._packetsSent[_id] = 0;
    p._packetsDropped[_id] = 0;
    p._bytesSent[_id] = 0;
    StateResidency &res = p._residency[_id];
    res.reset();
    res.enter(static_cast<int>(p._state[_id]), now);
}

} // namespace holdcsim
