#include "timer_wheel.hh"

#include "logging.hh"

namespace holdcsim {

TimerWheel::TimerWheel(Tick granularity) : _granularity(granularity)
{
    if (granularity == 0)
        fatal("TimerWheel: granularity must be >= 1 tick");
}

Tick
TimerWheel::deadlineAt(Tick from, Tick delay) const
{
    if (delay > maxTick - from)
        fatal("TimerWheel: deadline overflows Tick (now=", from,
              " delay=", delay, ")");
    const Tick t = from + delay;
    if (_granularity == 1)
        return t;
    if (t > maxTick - (_granularity - 1))
        return maxTick - maxTick % _granularity; // saturate on a boundary
    return ((t + _granularity - 1) / _granularity) * _granularity;
}

} // namespace holdcsim
