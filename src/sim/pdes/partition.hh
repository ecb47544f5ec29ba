/**
 * @file
 * One shard of a partitioned simulation.
 *
 * A Partition adapts an ordinary Simulator (owned by the model, e.g.
 * one per pod group in PodCluster) to the conservative parallel
 * kernel: it carries the partition index, the outbox for
 * cross-partition sends and the pooled delivery events that inject
 * drained messages into the local event queue at mailboxPriority.
 * Model code inside the partition keeps scheduling against the
 * Simulator exactly as in sequential mode; only interactions that
 * cross a partition boundary go through post().
 */

#ifndef HOLDCSIM_SIM_PDES_PARTITION_HH
#define HOLDCSIM_SIM_PDES_PARTITION_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event.hh"
#include "sim/one_shot.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

#include "mailbox.hh"

namespace holdcsim::pdes {

/** Adapter binding one Simulator into a WindowScheduler run. */
class Partition
{
  public:
    /**
     * @param index partition number (stable merge tiebreak)
     * @param sim   the shard's engine; not owned, must outlive this
     */
    Partition(std::uint32_t index, Simulator &sim)
        : _index(index), _sim(sim),
          _delivery(sim,
                    internEventName("pdes.deliver[" + std::to_string(index) +
                                    "]"),
                    Event::mailboxPriority)
    {}

    std::uint32_t index() const { return _index; }
    Simulator &sim() { return _sim; }
    const Simulator &sim() const { return _sim; }

    /**
     * Send a cross-partition interaction: @p fn runs on partition
     * @p dst at curTick() + @p latency. @p latency must be at least
     * the scheduler's lookahead -- the barrier drain aborts the run
     * on a message that would land inside the current window, since
     * that would mean the destination already simulated past the
     * delivery tick. Only call from foreground events of this
     * partition, during a window.
     */
    void
    post(std::uint32_t dst, Tick latency, std::function<void()> fn)
    {
        const Tick now = _sim.curTick();
        _outbox.post(_index, dst, now, now + latency, std::move(fn));
    }

    /** Deliver a drained message (WindowScheduler, barrier phase). */
    void
    deliver(Tick when, std::function<void()> fn)
    {
        _delivery.scheduleAt(when, std::move(fn));
    }

    /** Outbox, drained by the WindowScheduler at window barriers. */
    Mailbox &outbox() { return _outbox; }

  private:
    std::uint32_t _index;
    Simulator &_sim;
    Mailbox _outbox;
    /** Pooled delivery events, all at Event::mailboxPriority. */
    OneShotPool _delivery;
};

} // namespace holdcsim::pdes

#endif // HOLDCSIM_SIM_PDES_PARTITION_HH
