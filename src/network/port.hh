/**
 * @file
 * Switch port model: egress queue, serialization, LPI and adaptive
 * link rate (paper sections III-B and III-F).
 *
 * Storage layout mirrors the server core pool: a switch owns one
 * PortPool with the hot per-port state (power state, rate fraction,
 * flow refcount, residency cursor, pending LPI timer) in dense
 * struct-of-arrays vectors, and `Port` is a copyable view (pool
 * pointer + dense id). Cold I/O state (egress FIFO, in-flight packet,
 * deliver callback) lives in a parallel per-port struct touched only
 * when the port actually moves traffic, and the per-port transmit
 * completion events in one exact-size block.
 *
 * LPI countdowns arm timers on the Simulator's TimerWheel, one handle
 * per port; at the default 1-tick granularity each countdown is its
 * own "port.lpi" kernel event.
 */

#ifndef HOLDCSIM_NETWORK_PORT_HH
#define HOLDCSIM_NETWORK_PORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "packet.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/timer_wheel.hh"
#include "switch_power.hh"

namespace holdcsim {

/** Port power states (paper: active, LPI, off). */
enum class PortState { active, lpi, off };

class Port;

/** The entity that owns a PortPool (a Switch, or a test fixture). */
class PortHost
{
  public:
    virtual ~PortHost() = default;

    /** Invoked before any power-relevant port state change. */
    virtual void portAccrue() = 0;

    /** Port @p port crossed a busy/idle edge (card management). */
    virtual void portActivityChanged(unsigned port) = 0;
};

/** Dense struct-of-arrays storage for all ports of one switch. */
class PortPool : public TimerClient
{
  public:
    /** Hands a fully serialized packet to the far end of the link. */
    using DeliverFn = std::function<void(const PacketPtr &)>;

    /**
     * @param sim        owning engine
     * @param host       owner notified of accrual/activity edges
     * @param profile    power profile (not owned; must outlive pool)
     * @param line_rates full line rate per port (one entry per port,
     *                   all positive)
     * @param buffer_capacity max queued packets per port (> 0)
     */
    PortPool(Simulator &sim, PortHost &host,
             const SwitchPowerProfile &profile,
             std::vector<BitsPerSec> line_rates,
             std::size_t buffer_capacity);

    /** Deschedules pending transmissions and cancels LPI timers. */
    ~PortPool() override;

    PortPool(const PortPool &) = delete;
    PortPool &operator=(const PortPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(_state.size()); }

    /** TimerClient: an LPI deadline expired (token = port id). */
    void timerFired(std::uint64_t token, Tick deadline) override;
    const char *timerName() const override { return "port.lpi"; }

  private:
    friend class Port;

    bool busy(unsigned p) const
    {
        return _io[p].transmitting || !_io[p].queue.empty() ||
               _activeFlows[p] > 0;
    }
    bool sendPacket(unsigned p, const PacketPtr &pkt, Tick extra_delay);
    void flowStarted(unsigned p);
    void flowEnded(unsigned p);
    Tick wake(unsigned p);
    void powerOff(unsigned p);
    void setRateFraction(unsigned p, double fraction);
    BitsPerSec currentRate(unsigned p) const
    {
        return _lineRate[p] * _rateFraction[p];
    }
    Watts power(unsigned p) const;
    void setState(unsigned p, PortState next);
    void startNext(unsigned p, Tick extra_delay);
    void transmitDone(unsigned p);
    void maybeArmLpi(unsigned p);
    void cancelLpi(unsigned p);

    /**
     * One port's transmit-completion event: pool + port id, no
     * std::function. Default-constructible, so the events sit in one
     * exact-size block, which never moves (Event is pinned).
     */
    struct TxDoneEvent final : Event {
        TxDoneEvent() : Event("port.txDone") {}
        void process() override { pool->transmitDone(port); }
        PortPool *pool = nullptr;
        unsigned port = 0;
    };

    /** Cold per-port I/O state (only touched by actual traffic). */
    struct PortIo {
        std::deque<PacketPtr> queue;
        PacketPtr inFlight;
        DeliverFn deliver;
        bool transmitting = false;
    };

    Simulator &_sim;
    PortHost &_host;
    const SwitchPowerProfile &_profile;
    std::size_t _bufferCapacity;

    // Hot per-port state, indexed by dense port id.
    std::vector<PortState> _state;
    std::vector<double> _rateFraction;
    std::vector<unsigned> _activeFlows;
    std::vector<BitsPerSec> _lineRate;
    std::vector<TimerWheel::Handle> _lpi;
    std::vector<StateResidency> _residency;
    std::vector<std::uint64_t> _packetsSent;
    std::vector<std::uint64_t> _packetsDropped;
    std::vector<Bytes> _bytesSent;

    std::vector<PortIo> _io;
    /** One transmit-completion event per port. */
    std::unique_ptr<TxDoneEvent[]> _txDone;
};

/**
 * Copyable view of one switch port driving one link direction. The
 * port owns an egress FIFO with bounded capacity; the head packet
 * serializes at the port's current (possibly ALR-reduced) rate. When
 * the port has had no queued packets and no registered flows for the
 * profile's LPI threshold, it drops into Low Power Idle; traffic
 * arriving at an LPI port pays the LPI exit latency.
 */
class Port
{
  public:
    using DeliverFn = PortPool::DeliverFn;

    Port(PortPool &pool, unsigned id) : _pool(&pool), _id(id) {}

    unsigned id() const { return _id; }
    PortState state() const { return _pool->_state[_id]; }

    /** Whether traffic or registered flows keep this port busy. */
    bool busy() const { return _pool->busy(_id); }

    /** Set the delivery callback (wired by the Network facade). */
    void setDeliver(DeliverFn fn)
    {
        _pool->_io[_id].deliver = std::move(fn);
    }

    /**
     * Enqueue @p pkt for transmission. Returns false (and counts a
     * drop) when the buffer is full. Waking from LPI delays the
     * head-of-line transmission by the exit latency; @p extra_delay
     * adds switch-level wake/forwarding time.
     */
    bool sendPacket(const PacketPtr &pkt, Tick extra_delay = 0)
    {
        return _pool->sendPacket(_id, pkt, extra_delay);
    }

    /** @name Flow-model activity refcounting */
    ///@{
    /** A flow began traversing this port. */
    void flowStarted() { _pool->flowStarted(_id); }
    /** A flow stopped traversing this port. */
    void flowEnded() { _pool->flowEnded(_id); }
    unsigned activeFlows() const { return _pool->_activeFlows[_id]; }
    ///@}

    /**
     * Wake the port if it is in LPI; returns the exit latency the
     * caller must account for (0 when already active).
     */
    Tick wake() { return _pool->wake(_id); }

    /** Power the port off (unused ports). @pre !busy(). */
    void powerOff() { _pool->powerOff(_id); }

    /** @name Adaptive link rate */
    ///@{
    /** Set the operating rate as a fraction of line rate, in (0,1]. */
    void setRateFraction(double fraction)
    {
        _pool->setRateFraction(_id, fraction);
    }
    double rateFraction() const { return _pool->_rateFraction[_id]; }
    /** Effective serialization rate right now. */
    BitsPerSec currentRate() const { return _pool->currentRate(_id); }
    ///@}

    /** Instantaneous power. */
    Watts power() const { return _pool->power(_id); }

    /** @name Stats */
    ///@{
    std::uint64_t packetsSent() const { return _pool->_packetsSent[_id]; }
    std::uint64_t packetsDropped() const
    {
        return _pool->_packetsDropped[_id];
    }
    Bytes bytesSent() const { return _pool->_bytesSent[_id]; }
    std::size_t queueLength() const { return _pool->_io[_id].queue.size(); }
    const StateResidency &residency() const
    {
        return _pool->_residency[_id];
    }
    void finishStats(Tick now) { _pool->_residency[_id].finish(now); }
    /** Zero packet counters and residency (end of warmup). */
    void resetStats(Tick now);
    ///@}

  private:
    PortPool *_pool;
    unsigned _id;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_PORT_HH
