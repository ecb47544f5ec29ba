/**
 * @file
 * DES-kernel profiling by layer.
 *
 * LayerProbe plugs into Simulator::setProbe() and answers "where does
 * the simulator itself spend its host time" without touching the
 * simulated clock or event ordering. Each event name is interned once
 * into a flat open-addressed table and mapped, by prefix, to its layer,
 * so a dispatch costs one table probe that compares three words and a
 * few counter updates. Every event is counted exactly; one in
 * timingStride is timed, at the fixed ordinals 0, N, 2N, ..., with the
 * kernel gap after it (queue pop and run loop up to the next event). A
 * type's host time is its timed mean scaled by its exact count.
 */

#ifndef HOLDCSIM_TELEMETRY_LAYER_PROBE_HH
#define HOLDCSIM_TELEMETRY_LAYER_PROBE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"

namespace holdcsim {

/** Per-event-dispatch profiler (install via Simulator::setProbe). */
class LayerProbe : public KernelProbe
{
  public:
    /** Where an event's host time is booked (see layerOf()). */
    enum class Layer : std::uint8_t {
        serverCompletion, serverGovernor, networkFlow, networkGovernor,
        sched, wheel, orch, fault, telemetry,
        /** Every name no rule knows; the hot table lists them. */
        other,
    };
    static constexpr std::size_t numLayers = 10;

    /** One event in this many is timed. Prime, so a periodic event
     *  pattern aliases onto one phase only if its period is a multiple. */
    static constexpr std::uint64_t timingStride = 61;

    /** Events the abort-dump ring keeps. */
    static constexpr std::size_t recentCapacity = 32;

    /** Layer of an event name, by prefix, and its profile.layer row. */
    static Layer layerOf(std::string_view name);
    static const char *layerName(Layer layer);

    /** Accumulated cost of one interned event name. */
    struct EventType {
        std::string name;
        Layer layer = Layer::other;
        std::uint64_t count = 0;
        /** Events of this type that were timed, and their host ns. */
        std::uint64_t timed = 0;
        std::uint64_t timedNs = 0;
        /** Host ns inside process(): timed mean times exact count. */
        double hostNs() const
        {
            return timed ? static_cast<double>(timedNs) * count / timed : 0;
        }
    };

    LayerProbe() { rebuildSlots(64); }

    void beginEvent(const Event &ev, std::size_t queued) override;
    void endEvent() override;

    /** Newest-last dump of the recent-event ring (abort post-mortem). */
    void dumpRecent(std::ostream &os) const override;

    /** Events observed; equals Simulator::eventsProcessed() gained
     *  while installed. */
    std::uint64_t eventsObserved() const { return _events; }

    /** Largest queue size seen at any pop (popped event included). */
    std::size_t peakQueueDepth() const { return _peakDepth; }

    /** Interned event names, in first-seen order. */
    const std::vector<EventType> &eventTypes() const;

    /**
     * Dump the profile.* stats (per-type counts and host time, per-
     * layer host time, @p queue's occupancy and bucket-spill counters
     * and, when @p wheel is non-null, its coalescing counters)
     * followed by the "# "-prefixed hot-events table.
     */
    void dump(std::ostream &os, const EventQueue &queue,
              const TimerWheel *wheel) const;

  private:
    using Clock = std::chrono::steady_clock;
    static constexpr std::uint32_t noType = 0xffffffffu;

    /** An interned name's first and last 8 bytes and length (all of a
     *  name up to 16 bytes, as event names are), type and exact count:
     *  looking up and counting an event touches one cache line. */
    struct alignas(32) Slot {
        std::uint64_t head = 0;
        std::uint64_t tail = 0;
        std::uint32_t size = 0;
        std::uint32_t type = noType;
        std::uint64_t count = 0;
    };

    /** The slot of @p name, interning it on first sight. */
    Slot &slotOf(const std::string &name);
    /** First slot of @p key's probe sequence. */
    std::size_t home(const Slot &key) const;
    /** Re-seat every occupied slot in a table of @p slots slots. */
    void rebuildSlots(std::size_t slots);

    /** Counts are copied in from _slots on read (eventTypes()). */
    mutable std::vector<EventType> _types;
    /** Open-addressed, at most half full; its size is a power of two. */
    std::vector<Slot> _slots;
    unsigned _slotShift = 0;

    std::uint64_t _events = 0;
    std::size_t _peakDepth = 0;
    /** Events left until the next timed one (1: the next is timed). */
    std::uint64_t _untilTimed = 1;
    bool _timing = false;
    std::uint32_t _current = 0;
    Clock::time_point _start;
    /** A timed event ended at _lastEnd; the next begin closes the gap. */
    bool _gapOpen = false;
    Clock::time_point _lastEnd;
    std::uint64_t _gapNs = 0;
    std::uint64_t _gaps = 0;

    /** Recent-event ring for Simulator::abortDump() post-mortems;
     *  event n sits in slot n % recentCapacity. */
    struct RecentEvent {
        Tick tick = 0;
        std::size_t queued = 0;
        std::uint32_t type = 0;
    };
    std::array<RecentEvent, recentCapacity> _recent{};
};

} // namespace holdcsim

#endif // HOLDCSIM_TELEMETRY_LAYER_PROBE_HH
