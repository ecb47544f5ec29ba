/**
 * @file
 * Event base classes for the discrete-event kernel.
 *
 * Model code derives from Event and implements process(), or uses
 * EventFunctionWrapper to wrap a lambda. Events are owned by the model
 * (never by the queue); the queue only references scheduled events.
 *
 * An event's name is a C string that outlives it: a literal at every
 * hot site, or a name built at run time and interned once with
 * internEventName() (the std::string constructors do that for you).
 */

#ifndef HOLDCSIM_SIM_EVENT_HH
#define HOLDCSIM_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "types.hh"

namespace holdcsim {

class EventQueue;

/**
 * A process-lifetime copy of @p name, one per distinct text, for an
 * event name built at run time. Thread-safe; takes a lock, so build
 * a name once per owner, not once per event.
 */
const char *internEventName(std::string_view name);

/**
 * An occurrence scheduled to happen at a simulated instant.
 *
 * Among events scheduled for the same tick, lower priority values run
 * first; ties are broken by scheduling order (FIFO), which makes the
 * simulation deterministic.
 */
class Event
{
  public:
    /** Scheduling priority; lower runs first within a tick. */
    enum Priority : int {
        /** Power-state bookkeeping runs before normal model events. */
        powerPriority = -10,
        /**
         * Cross-partition mailbox deliveries (src/sim/pdes). A
         * dedicated class so a delivery's order against same-tick
         * local events is fixed by priority alone, never by insertion
         * order -- deliveries are inserted at send time by the
         * sequential kernel but at window boundaries by the parallel
         * one, and the two must execute identically.
         */
        mailboxPriority = -5,
        /** Default for model events. */
        defaultPriority = 0,
        /** Statistics sampling runs after the model settles. */
        statsPriority = 10,
        /** Simulation-exit events run last. */
        exitPriority = 100,
    };

    /** @param name a literal, or any C string that outlives the event */
    explicit Event(const char *name = "event",
                   int priority = defaultPriority)
        : _name(name), _priority(priority)
    {}

    /** A name built at run time, interned (see internEventName()). */
    explicit Event(const std::string &name, int priority = defaultPriority)
        : Event(internEventName(name), priority)
    {}

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event();

    /** Invoked by the event queue when simulated time reaches when(). */
    virtual void process() = 0;

    /** Debug name of this event. */
    const char *name() const { return _name; }

    /** Priority within a tick (lower runs first). */
    int priority() const { return _priority; }

    /** Whether the event currently sits in an event queue. */
    bool scheduled() const { return _scheduled; }

    /**
     * Tick this event is scheduled for. Valid while scheduled(); after
     * the queue pops the event the field keeps the tick it fired at
     * (the run loop reads it to advance the clock).
     */
    Tick when() const { return _when; }

    /**
     * Background events (periodic samplers, policy heartbeats) do
     * not keep the simulation alive: run() returns once only
     * background events remain. Must be set while unscheduled.
     */
    bool background() const { return _background; }
    void setBackground(bool background);

  private:
    friend class EventQueue;

    /** _qBucket value meaning "in the overflow heap, not a bucket". */
    static constexpr std::uint32_t inHeap = 0xffffffffu;

    const char *_name;
    int _priority;
    bool _background = false;
    bool _scheduled = false;
    Tick _when = 0;
    /** Calendar bucket (physical ring index) holding this event, or
     *  Event::inHeap when it sits in the overflow heap. */
    std::uint32_t _qBucket = inHeap;
    /** Slot inside that bucket's vector, or heap index (the queue
     *  holds fewer than 2^32 events; EventQueue::schedule checks). */
    std::uint32_t _qSlot = 0;
};

// Every server embeds one (its wake event); AllocBudget records it.
static_assert(sizeof(Event) <= 40, "the Event base grew");

/**
 * Event that runs a std::function. The workhorse for model code:
 *
 *   EventFunctionWrapper ev([this]{ finishTask(); }, "finish");
 *   sim.schedule(ev, sim.curTick() + delay);
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> fn,
                         const char *name = "lambda",
                         int priority = defaultPriority)
        : Event(name, priority), _fn(std::move(fn))
    {}

    /** A name built at run time, interned (see internEventName()). */
    EventFunctionWrapper(std::function<void()> fn, const std::string &name,
                         int priority = defaultPriority)
        : Event(name, priority), _fn(std::move(fn))
    {}

    void process() override { _fn(); }

  private:
    std::function<void()> _fn;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_EVENT_HH
