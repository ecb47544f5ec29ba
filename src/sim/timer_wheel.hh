/**
 * @file
 * The governor timer discipline. Each Simulator owns one TimerWheel
 * (Simulator::timerWheel()); its granularity G is the governor timer
 * discipline of the whole run.
 *
 * Nothing arms it. Every governor timer -- a core's C-state ladder, a
 * server's delay timer, a port's LPI entry, a line card's and a
 * switch's sleep -- is predetermined once its entity falls idle, so
 * the entity keeps only the tick its next stage is due and replays
 * what is due when it is next read (see core.hh and switch.hh). Each
 * stage is placed with deadlineAt(), armed at the previous stage's
 * tick: a deadline from + d lands on ceil((from + d) / G) * G --
 * never early, at most G - 1 ticks late (Linux timer-slack style).
 * G = 1 is exact.
 */

#ifndef HOLDCSIM_SIM_TIMER_WHEEL_HH
#define HOLDCSIM_SIM_TIMER_WHEEL_HH

#include <cstdint>

#include "types.hh"

namespace holdcsim {

/** Where governor timers land: the run's deadline quantization. */
class TimerWheel
{
  public:
    /**
     * Always zero: no timer is armed or fired. Kept only because the
     * benchmark runner still reports it as sim.wheel.*; it goes once
     * the benchmark drops those rows.
     */
    struct Stats {
        std::uint64_t fired = 0;
        std::uint64_t tickEvents = 0;
        std::uint64_t maxBatch = 0;
    };

    /** @param granularity bucket width G in ticks (>= 1; 1 = exact) */
    explicit TimerWheel(Tick granularity = 1);

    /**
     * Tick a timer started at @p from for @p delay comes due: from +
     * delay quantized up to a bucket boundary. Fatal when the sum
     * overflows Tick.
     */
    Tick deadlineAt(Tick from, Tick delay) const;

    Tick granularity() const { return _granularity; }
    const Stats &stats() const { return _stats; }

  private:
    Tick _granularity;
    Stats _stats;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_TIMER_WHEEL_HH
