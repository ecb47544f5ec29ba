/**
 * @file
 * Network switch model (paper section III-B): chassis, line cards
 * and ports, with hierarchical power states, per-port packet queuing
 * and store-and-forward behavior.
 *
 * Timer discipline: the switch's idle ladder schedules nothing, like
 * a server's (see core.hh). Its three levels keep only the tick their
 * next stage is due: an idle port its LPI entry, a line card whose
 * ports are all quiescent its sleep, and a switch whose cards all
 * sleep its own sleep (ports' and cards' in one DueList each). Each
 * stage is placed with TimerWheel::deadlineAt() from the tick the
 * stage below it finished -- a card's countdown starts when its last
 * port entered LPI, the switch's when its last card slept -- which is
 * where an armed timer would fire, at any granularity.
 *
 * settle() replays every stage due by curTick(), in time order (on a
 * tie ports first, then cards, then the switch), through the same
 * state changes, accruals and trace records a timer event would have
 * made at its own tick. Everything that reads or changes the switch,
 * its ports or its cards settles first, at most once per
 * Simulator::epoch() (DeferredTimers::mustSettle()): a stage armed for
 * curTick() inside the current event is due only in the next one, as
 * a same-tick timer event would have run only after it. The switch
 * registers as DeferredTimers, so a drained run() still ends at its
 * last pending stage and a traced run settles it before returning.
 */

#ifndef HOLDCSIM_NETWORK_SWITCH_HH
#define HOLDCSIM_NETWORK_SWITCH_HH

#include <memory>
#include <vector>

#include "linecard.hh"
#include "packet.hh"
#include "port.hh"
#include "sim/due_list.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "switch_power.hh"

namespace holdcsim {

/** Static configuration for one switch. */
struct SwitchConfig {
    unsigned id = 0;
    /** Line rate of each port (one entry per port). */
    std::vector<BitsPerSec> portRates;
    /** Ports per line card. */
    unsigned portsPerLinecard = 24;
    /** Egress buffer capacity per port, in packets. */
    std::size_t portBufferCapacity = 128;
    /**
     * Whole-switch sleep: when every line card has gone to sleep
     * and this delay elapses, the switch itself sleeps (used by the
     * server/network cooperative study, section IV-D). maxTick
     * disables it.
     */
    Tick switchSleepDelay = maxTick;
};

/** A store-and-forward switch with hierarchical power management. */
class Switch : public DeferredTimers
{
  public:
    Switch(Simulator &sim, const SwitchConfig &config,
           const SwitchPowerProfile &profile);
    ~Switch() override;
    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    unsigned id() const { return _config.id; }
    std::size_t numPorts() const { return _ports.size(); }
    std::size_t numLineCards() const { return _linecards.size(); }
    Port &port(unsigned i) { return _ports.at(i); }
    const Port &port(unsigned i) const { return _ports.at(i); }
    LineCard &lineCard(unsigned i) { return *_linecards.at(i); }

    /** Whether the whole switch is in its sleep state. */
    bool
    asleep()
    {
        settle();
        return _asleep;
    }

    /**
     * Crash/repair the whole switch (fault subsystem). A failed
     * switch draws no power and drops every packet; route and flow
     * handling around it is the Network facade's job.
     */
    void setFailed(bool failed);
    bool failed() const { return _failed; }

    /**
     * Rouse everything needed to use port @p port_idx: the switch,
     * its line card and the port itself. Returns the total wake
     * latency to account for.
     */
    Tick wakeForActivity(unsigned port_idx);

    /**
     * Put the whole switch to sleep now. Returns false (and does
     * nothing) if any port is busy.
     */
    bool trySleep();

    /**
     * Forward @p pkt out of @p out_port, paying any switch/line
     * card/port wake latency plus the forwarding delay. Returns
     * false when the egress buffer overflowed (packet dropped).
     */
    bool forwardPacket(const PacketPtr &pkt, unsigned out_port);

    /** Per-hop processing delay through the switching fabric. */
    Tick forwardingDelay() const { return _forwardingDelay; }
    void setForwardingDelay(Tick d) { _forwardingDelay = d; }

    /** @name Flow-model notifications */
    ///@{
    /** A flow begins using in/out ports; returns total wake delay. */
    Tick flowStarted(unsigned in_port, unsigned out_port);
    void flowEnded(unsigned in_port, unsigned out_port);
    ///@}

    /** @name Power and energy */
    ///@{
    Watts
    power()
    {
        settle();
        return powerNow();
    }
    /** Energy accrued up to the last accrue(). */
    Joules
    energy()
    {
        settle();
        return _energy;
    }
    void
    accrue()
    {
        settle();
        accrueTo(_sim.curTick());
    }
    ///@}

    /** @name Stats */
    ///@{
    std::uint64_t packetsForwarded() const { return _packetsForwarded; }
    std::uint64_t packetsDropped() const;
    std::uint64_t
    sleepTransitions()
    {
        settle();
        return _sleepTransitions;
    }
    /** Residency over {awake=0, asleep=1}. */
    const StateResidency &
    residency()
    {
        settle();
        return _residency;
    }
    void finishStats();
    /** Zero energy, residency and counters (end of warmup). */
    void resetStats();
    ///@}

    /**
     * Replay every idle stage due by curTick() (see the file comment).
     * At most once per Simulator::epoch().
     */
    void
    settle()
    {
        if (mustSettle(_sim, _nextDue))
            settleDue();
    }

    /** DeferredTimers: the last stage still pending. */
    Tick lastDeferredTick() const override;
    void settleDeferred() override { settle(); }

    Simulator &simulator() { return _sim; }
    const SwitchConfig &config() const { return _config; }

  private:
    friend class PortPool;
    friend class LineCard;

    /** @name Unsettled internals (callers settle first) */
    ///@{
    /** The settle() slow path: something may be due. */
    void settleDue();
    /** A stage is now due at @p at: settle() must look by then. */
    void
    noteDue(Tick at)
    {
        if (at < _nextDue)
            _nextDue = at;
    }
    Watts powerNow() const;
    /** Book energy up to tick @p at (<= curTick()). */
    void accrueTo(Tick at);
    /** Route a port's busy/idle edge at @p at to its line card. */
    void portActivityChanged(unsigned port, Tick at);
    /** A card changed state at @p at: start the sleep countdown once
     *  every card is asleep or off. */
    void linecardStateChanged(Tick at);
    bool anyPortBusy() const;
    void setAsleep(bool asleep, Tick at);
    ///@}
    /** Emit the chassis state (awake/asleep/failed) entered at @p at
     *  to the tracer. */
    void traceState(Tick at);

    Simulator &_sim;
    SwitchConfig _config;
    /** Owned copy: ports and line cards reference this copy, so a
     *  temporary profile argument cannot dangle. */
    SwitchPowerProfile _profile;

    /** Hot per-port state, struct-of-arrays (see port.hh). */
    PortPool _portPool;
    /** Thin per-port views (stable: port() hands out references). */
    std::vector<Port> _ports;
    std::vector<std::unique_ptr<LineCard>> _linecards;
    /** Tick each line card's sleep is due. */
    DueList _cardSleep;

    bool _asleep = false;
    bool _failed = false;
    Tick _forwardingDelay = 1 * usec;
    /** Tick the whole-switch sleep is due (maxTick: none pending). */
    Tick _sleepAt = maxTick;
    /** No stage is due before this tick (a lower bound; settleDue()
     *  makes it exact). */
    Tick _nextDue = maxTick;

    Tick _lastAccrue = 0;
    Joules _energy = 0.0;
    StateResidency _residency;
    std::uint64_t _packetsForwarded = 0;
    std::uint64_t _sleepTransitions = 0;

    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_SWITCH_HH
