/**
 * @file
 * Fire-and-forget one-shot events with owner-scoped cleanup and a
 * free-list allocator.
 *
 * Model code frequently wants "run this lambda once after a delay"
 * without keeping a named Event member alive. A heap-allocated
 * self-deleting event does that, but leaks (and trips ASan) whenever
 * its owner is destroyed while shots are still pending, and hits the
 * global allocator once per shot -- measurable on the port/core/
 * scheduler fire-and-forget paths. OneShotPool tracks every in-flight
 * shot so the owner's destructor deschedules and frees the
 * stragglers, and recycles fired shots through a free list so steady
 * state allocates nothing.
 */

#ifndef HOLDCSIM_SIM_ONE_SHOT_HH
#define HOLDCSIM_SIM_ONE_SHOT_HH

#include <functional>
#include <string>
#include <vector>

#include "event.hh"
#include "simulator.hh"
#include "types.hh"

namespace holdcsim {

/** Owner of self-cleaning, pooled one-shot events against one
 *  Simulator. */
class OneShotPool
{
  public:
    /**
     * @param sim      engine the shots are scheduled against
     * @param name     event name for diagnostics: a literal, or a
     *                 name interned with internEventName()
     * @param priority tick-priority every shot of this pool fires at
     *                 (mailbox-delivery pools use mailboxPriority)
     */
    explicit OneShotPool(Simulator &sim, const char *name = "oneShot",
                         int priority = Event::defaultPriority);

    /** Deschedules and frees every still-pending shot. */
    ~OneShotPool();

    OneShotPool(const OneShotPool &) = delete;
    OneShotPool &operator=(const OneShotPool &) = delete;

    /** Run @p fn once at curTick() + @p delay. */
    void schedule(Tick delay, std::function<void()> fn);

    /** Run @p fn once at absolute tick @p when (>= curTick()). */
    void scheduleAt(Tick when, std::function<void()> fn);

    /** Shots scheduled but not yet fired. */
    std::size_t pending() const { return _live.size(); }

    /** Fired shots waiting on the free list for reuse (telemetry). */
    std::size_t freeCount() const { return _free.size(); }

  private:
    class Shot;
    friend class Shot;

    /** Move a fired shot from the live set onto the free list. */
    void recycle(Shot *shot);

    /** Allocate or recycle a shot armed with @p fn. */
    Shot *acquire(std::function<void()> fn);

    Simulator &_sim;
    const char *_name;
    int _priority;
    /** In-flight shots; each shot knows its index (swap-remove). */
    std::vector<Shot *> _live;
    /** Recycled shots ready to be re-armed. */
    std::vector<Shot *> _free;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_ONE_SHOT_HH
