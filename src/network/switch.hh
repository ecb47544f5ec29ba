/**
 * @file
 * Network switch model (paper section III-B): chassis, line cards
 * and ports, with hierarchical power states, per-port packet queuing
 * and store-and-forward behavior.
 */

#ifndef HOLDCSIM_NETWORK_SWITCH_HH
#define HOLDCSIM_NETWORK_SWITCH_HH

#include <memory>
#include <vector>

#include "linecard.hh"
#include "packet.hh"
#include "port.hh"
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
class Switch : private PortHost, private TimerClient
{
  public:
    Switch(Simulator &sim, const SwitchConfig &config,
           const SwitchPowerProfile &profile);
    ~Switch();
    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    unsigned id() const { return _config.id; }
    std::size_t numPorts() const { return _ports.size(); }
    std::size_t numLineCards() const { return _linecards.size(); }
    Port &port(unsigned i) { return _ports.at(i); }
    const Port &port(unsigned i) const { return _ports.at(i); }
    LineCard &lineCard(unsigned i) { return *_linecards.at(i); }

    /** Whether the whole switch is in its sleep state. */
    bool asleep() const { return _asleep; }

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
    Watts power() const;
    Joules energy() const { return _energy; }
    void accrue();
    ///@}

    /** @name Stats */
    ///@{
    std::uint64_t packetsForwarded() const { return _packetsForwarded; }
    std::uint64_t packetsDropped() const;
    std::uint64_t sleepTransitions() const { return _sleepTransitions; }
    /** Residency over {awake=0, asleep=1}. */
    const StateResidency &residency() const { return _residency; }
    void finishStats();
    /** Zero energy, residency and counters (end of warmup). */
    void resetStats();
    ///@}

    Simulator &simulator() { return _sim; }
    const SwitchConfig &config() const { return _config; }

  private:
    /** @name PortHost interface (driven by the port pool) */
    ///@{
    void portAccrue() override { accrue(); }
    /** Route a port's busy/idle edge to its line card. */
    void portActivityChanged(unsigned port) override;
    ///@}
    /** TimerClient: the whole-switch sleep countdown expired. */
    void timerFired(std::uint64_t token, Tick deadline) override;
    const char *timerName() const override { return "switch.sleep"; }
    void linecardStateChanged();
    void armSleep();
    void cancelSleep();
    void setAsleep(bool asleep);
    /** Emit the chassis state (awake/asleep/failed) to the tracer. */
    void traceState();

    Simulator &_sim;
    SwitchConfig _config;
    /** Owned copy: ports and line cards reference this copy, so a
     *  temporary profile argument cannot dangle. */
    SwitchPowerProfile _profile;

    /** Hot per-port state, struct-of-arrays (see port.hh). */
    PortPool _portPool;
    /** Thin per-port views (stable addresses; line cards point in). */
    std::vector<Port> _ports;
    std::vector<std::unique_ptr<LineCard>> _linecards;

    bool _asleep = false;
    bool _failed = false;
    Tick _forwardingDelay = 1 * usec;
    TimerWheel::Handle _sleepHandle;

    Tick _lastAccrue = 0;
    Joules _energy = 0.0;
    StateResidency _residency;
    std::uint64_t _packetsForwarded = 0;
    std::uint64_t _sleepTransitions = 0;

    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_SWITCH_HH
