/**
 * @file
 * Line card model (paper section III-B): a group of ports with
 * shared packet-processing hardware that supports active, sleep and
 * off power states.
 *
 * The sleep countdown schedules nothing: once every member port is
 * quiescent, the card's Switch keeps only the tick its sleep is due
 * and replays it on the switch's next read (see switch.hh), so every
 * public read or change of a card settles the switch first.
 */

#ifndef HOLDCSIM_NETWORK_LINECARD_HH
#define HOLDCSIM_NETWORK_LINECARD_HH

#include <string>

#include "port.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "switch_power.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

/** Line card power states. */
enum class LineCardState { active, sleep, off };

/**
 * A line card hosting a contiguous group of ports. The card sleeps
 * when all of its ports have been quiescent (LPI or off) for the
 * profile's threshold and wakes -- paying the wake latency -- when
 * traffic returns.
 */
class LineCard
{
  public:
    /** Ports [@p first_port, @p first_port + @p n_ports) of @p sw. */
    LineCard(Switch &sw, PortPool &ports, unsigned id,
             unsigned first_port, unsigned n_ports,
             const SwitchPowerProfile &profile);
    LineCard(const LineCard &) = delete;
    LineCard &operator=(const LineCard &) = delete;

    unsigned id() const { return _id; }
    LineCardState state() const;

    std::size_t numPorts() const { return _nPorts; }

    /**
     * Wake a sleeping card; returns the wake latency the caller
     * must account for (0 if already active).
     */
    Tick wake();

    /** Power the card off. @pre no member port is busy. */
    void powerOff();

    /** Card electronics power (member ports accounted separately). */
    Watts power() const;

    const StateResidency &residency() const;
    void finishStats(Tick now);
    /** Zero residency (end of warmup). */
    void resetStats(Tick now);

    /**
     * Name this card on the timeline ("sw2.lc0"); assigned by the
     * owning switch (a card does not know its switch's name). Until
     * set, the card emits no trace records.
     */
    void setTraceLabel(std::string label);

  private:
    friend class Switch;

    /** @name Unsettled internals (the Switch settles first) */
    ///@{
    /** Whether every member port is idle and in LPI or off. */
    bool quiet() const;
    Watts powerNow() const;
    /** A member port crossed a busy/idle edge at @p at: activity
     *  cancels the sleep countdown, quiescence starts it. */
    void portActivityChanged(Tick at);
    Tick wakeNow();
    /** The sleep stage due at @p at came. */
    void sleepDue(Tick at);
    /** When the card sleeps if nothing touches it again: 0 when it
     *  already sleeps or is off, maxTick when it never will. */
    Tick sleepsAt() const;
    void setState(LineCardState next, Tick at);
    ///@}
    /** Emit the state entered at @p at to the timeline tracer. */
    void traceState(Tick at);

    Switch &_switch;
    PortPool &_ports;
    unsigned _id;
    unsigned _firstPort;
    unsigned _nPorts;
    const SwitchPowerProfile &_profile;

    LineCardState _state = LineCardState::active;
    StateResidency _residency;

    std::string _traceLabel;
    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_LINECARD_HH
