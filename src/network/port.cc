#include "port.hh"

#include "sim/logging.hh"
#include "switch.hh"

namespace holdcsim {

static_assert(static_cast<int>(PortState::off) < StateResidency::maxStates,
              "every port state needs a residency book");

PortPool::PortPool(Simulator &sim, Switch &sw,
                   const SwitchPowerProfile &profile,
                   std::vector<BitsPerSec> line_rates,
                   std::size_t buffer_capacity)
    : _sim(sim), _switch(sw), _profile(profile),
      _bufferCapacity(buffer_capacity),
      _lpi(static_cast<unsigned>(line_rates.size()))
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
        _residency[p].start(now);
    }
}

PortPool::~PortPool()
{
    for (unsigned p = 0; p < size(); ++p)
        if (_txDone[p].scheduled())
            _sim.deschedule(_txDone[p]);
}

void
PortPool::settle() const
{
    _switch.settle();
}

void
PortPool::enterLpi(Tick at)
{
    while (_lpi.front() == at) {
        const unsigned p = _lpi.frontId();
        _lpi.clear(p);
        setState(p, PortState::lpi, at);
        _switch.portActivityChanged(p, at);
    }
}

void
PortPool::setState(unsigned p, PortState next, Tick at)
{
    if (next == _state[p])
        return;
    _switch.accrueTo(at);
    _residency[p].accrue(static_cast<int>(_state[p]), at);
    _state[p] = next;
}

Tick
PortPool::wake(unsigned p)
{
    _lpi.clear(p);
    if (_state[p] == PortState::active)
        return 0;
    if (_state[p] == PortState::off)
        fatal("cannot route traffic through a powered-off port");
    const Tick now = _sim.curTick();
    setState(p, PortState::active, now);
    _switch.portActivityChanged(p, now);
    return _profile.lpiExitLatency;
}

void
PortPool::powerOff(unsigned p)
{
    if (busy(p))
        fatal("cannot power off a busy port");
    _lpi.clear(p);
    const Tick now = _sim.curTick();
    setState(p, PortState::off, now);
    _switch.portActivityChanged(p, now);
}

void
PortPool::setRateFraction(unsigned p, double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        fatal("port rate fraction must be in (0, 1]");
    _switch.accrueTo(_sim.curTick());
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
    settle();
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
    const Tick at = _sim.timerWheel().deadlineAt(_sim.curTick(),
                                                 _profile.lpiIdleThreshold);
    _lpi.set(p, at);
    _switch.noteDue(at);
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
    p.settle();
    p._packetsSent[_id] = 0;
    p._packetsDropped[_id] = 0;
    p._bytesSent[_id] = 0;
    p._residency[_id].start(now);
}

} // namespace holdcsim
