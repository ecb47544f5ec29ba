/**
 * @file
 * Line card model (paper section III-B): a group of ports with
 * shared packet-processing hardware that supports active, sleep and
 * off power states.
 */

#ifndef HOLDCSIM_NETWORK_LINECARD_HH
#define HOLDCSIM_NETWORK_LINECARD_HH

#include <functional>
#include <vector>

#include "port.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/timer_wheel.hh"
#include "switch_power.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

/** Line card power states. */
enum class LineCardState { active, sleep, off };

/**
 * A line card hosting a contiguous group of ports. The card sleeps
 * when all of its ports have been quiescent (LPI or off) for the
 * profile's threshold and wakes -- paying the wake latency -- when
 * traffic returns. The sleep countdown rides the shared TimerWheel
 * when one is installed, a private event otherwise.
 */
class LineCard : private TimerClient
{
  public:
    using AccrueFn = std::function<void()>;
    /** Invoked after this card changes state (switch-level checks). */
    using StateChangedFn = std::function<void()>;

    LineCard(Simulator &sim, unsigned id,
             const SwitchPowerProfile &profile, AccrueFn accrue,
             StateChangedFn state_changed);
    ~LineCard();
    LineCard(const LineCard &) = delete;
    LineCard &operator=(const LineCard &) = delete;

    unsigned id() const { return _id; }
    LineCardState state() const { return _state; }

    /** Register a member port (wired once by the switch). */
    void addPort(Port *port) { _ports.push_back(port); }
    std::size_t numPorts() const { return _ports.size(); }

    /** Whether any member port is active-state or busy. */
    bool anyPortActive() const;

    /**
     * React to member-port activity edges: wake-relevant changes
     * cancel the sleep countdown; quiescence arms it.
     */
    void portActivityChanged();

    /**
     * Wake a sleeping card; returns the wake latency the caller
     * must account for (0 if already active).
     */
    Tick wake();

    /** Power the card off. @pre no member port is busy. */
    void powerOff();

    /** Card electronics power (member ports accounted separately). */
    Watts power() const;

    const StateResidency &residency() const { return _residency; }
    void finishStats(Tick now) { _residency.finish(now); }
    /** Zero residency (end of warmup). */
    void
    resetStats(Tick now)
    {
        _residency.reset();
        _residency.enter(static_cast<int>(_state), now);
    }

    /**
     * Name this card on the timeline ("sw2.lc0"); assigned by the
     * owning switch (a card does not know its switch). Until set, the
     * card emits no trace records.
     */
    void setTraceLabel(std::string label);

  private:
    void setState(LineCardState next);
    /** Emit the current state to the timeline tracer. */
    void traceState();
    /** TimerClient: the sleep countdown expired. */
    void timerFired(std::uint64_t token, Tick deadline) override;
    const char *timerName() const override { return "linecard.sleep"; }
    void armSleep(Tick delay);
    void cancelSleep();

    Simulator &_sim;
    unsigned _id;
    const SwitchPowerProfile &_profile;
    AccrueFn _accrue;
    StateChangedFn _stateChanged;
    TimerWheel::Handle _sleepHandle;

    LineCardState _state = LineCardState::active;
    std::vector<Port *> _ports;
    StateResidency _residency;

    std::string _traceLabel;
    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_LINECARD_HH
