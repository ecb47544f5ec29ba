#include "layer_probe.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iomanip>

#include "sim/stats.hh"

namespace holdcsim {

namespace {

void
addQueueStats(StatGroup &group, const EventQueue &queue)
{
    const EventQueue::Counters &c = queue.counters();
    group.add("queue.schedules", c.schedules);
    group.add("queue.bucket_schedules", c.bucketSchedules);
    group.add("queue.heap_spills", c.heapSchedules);
    group.add("queue.clamped_schedules", c.clampedSchedules);
    group.add("queue.pops", c.pops);
    group.add("queue.bucket_pops", c.bucketPops);
    group.add("queue.heap_pops", c.heapPops);
    group.add("queue.rebases", c.rebases);
    group.add("queue.migrated_entries", c.migratedEntries);
    group.add("queue.head_spills", c.headSpills);
    group.add("queue.spilled_entries", c.spilledEntries);
    group.add("queue.recalibrations", c.recalibrations);
    group.add("queue.peak_occupancy", std::uint64_t{c.peakSize});
    group.add("queue.bucket_width_ticks", std::uint64_t{queue.bucketWidth()});
}

void
addWheelStats(StatGroup &group, const TimerWheel &wheel)
{
    const TimerWheel::Stats &s = wheel.stats();
    group.add("wheel.granularity_ticks", std::uint64_t{wheel.granularity()});
    group.add("wheel.slots", std::uint64_t{wheel.numSlots()});
    group.add("wheel.armed", s.armed);
    group.add("wheel.cancelled", s.cancelled);
    group.add("wheel.fired", s.fired);
    group.add("wheel.tick_events", s.tickEvents);
    group.add("wheel.max_batch", s.maxBatch);
    group.add("wheel.overflow_migrations", s.overflowMigrations);
    group.add("wheel.max_live", s.maxLive);
}

} // namespace

LayerProbe::Layer
LayerProbe::layerOf(std::string_view name)
{
    struct Rule {
        std::string_view prefix;
        Layer layer;
    };
    using L = Layer;
    // First match wins. Core ladders and delay timers schedule no
    // events (see core.hh); server governor events are wake-ups and
    // DVFS ticks.
    static constexpr Rule rules[] = {
        {"core.completion", L::serverCompletion},
        {"dvfs.", L::serverGovernor}, {"server.", L::serverGovernor},
        {"flow.", L::networkFlow}, {"net.", L::networkFlow},
        {"port.", L::networkGovernor}, {"linecard.", L::networkGovernor},
        {"switch.", L::networkGovernor}, {"alr.", L::networkGovernor},
        {"pump.", L::sched}, {"sched.", L::sched}, {"adaptive.", L::sched},
        {"provisioning.", L::sched},
        {"wheel.tick", L::wheel}, {"orch.", L::orch}, {"fault.", L::fault},
        {"sampler", L::telemetry}, {"invariant_audit", L::telemetry},
    };
    for (const Rule &r : rules) {
        if (name.substr(0, r.prefix.size()) == r.prefix)
            return r.layer;
    }
    return Layer::other;
}

const char *
LayerProbe::layerName(Layer layer)
{
    static constexpr const char *names[numLayers] = {
        "server_completion", "server_governor", "network_flow",
        "network_governor",  "sched",           "wheel",
        "orch",              "fault",           "telemetry",
        "other",
    };
    return names[static_cast<std::size_t>(layer)];
}

std::size_t
LayerProbe::home(const Slot &key) const
{
    std::uint64_t h = (key.head * 0x9e3779b97f4a7c15ull) ^
                      ((key.tail + key.size) * 0xc2b2ae3d27d4eb4full);
    return h >> _slotShift;
}

void
LayerProbe::rebuildSlots(std::size_t slots)
{
    std::vector<Slot> old = std::move(_slots);
    _slots.assign(slots, Slot{});
    _slotShift = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (const Slot &s : old) {
        if (s.type == noType)
            continue;
        std::size_t i = home(s);
        while (_slots[i].type != noType)
            i = (i + 1) & (slots - 1);
        _slots[i] = s;
    }
}

LayerProbe::Slot &
LayerProbe::slotOf(const std::string &name)
{
    Slot key;
    key.size = static_cast<std::uint32_t>(name.size());
    if (name.size() >= 8) {
        std::memcpy(&key.head, name.data(), 8);
        std::memcpy(&key.tail, name.data() + name.size() - 8, 8);
    } else {
        std::memcpy(&key.head, name.data(), name.size());
    }
    std::size_t i = home(key);
    for (; _slots[i].type != noType; i = (i + 1) & (_slots.size() - 1)) {
        const Slot &s = _slots[i];
        if (s.head == key.head && s.tail == key.tail && s.size == key.size &&
            (name.size() <= 16 || _types[s.type].name == name))
            return _slots[i];
    }
    key.type = static_cast<std::uint32_t>(_types.size());
    _types.push_back(EventType{name, layerOf(name)});
    _slots[i] = key;
    // Keep the table at most half full so probes stay short.
    if (2 * _types.size() <= _slots.size())
        return _slots[i];
    rebuildSlots(2 * _slots.size());
    return slotOf(name);
}

const std::vector<LayerProbe::EventType> &
LayerProbe::eventTypes() const
{
    for (const Slot &s : _slots) {
        if (s.type != noType)
            _types[s.type].count = s.count;
    }
    return _types;
}

void
LayerProbe::beginEvent(const Event &ev, std::size_t queued)
{
    if (_gapOpen) {
        _gapNs += (Clock::now() - _lastEnd) / std::chrono::nanoseconds(1);
        ++_gaps;
        _gapOpen = false;
    }
    Slot &slot = slotOf(ev.name());
    ++slot.count;
    _recent[_events % recentCapacity] = {ev.when(), queued, slot.type};
    ++_events;
    _peakDepth = std::max(_peakDepth, queued);
    if (--_untilTimed == 0) {
        _untilTimed = timingStride;
        _timing = true;
        _current = slot.type;
        _start = Clock::now();
    }
}

void
LayerProbe::endEvent()
{
    if (!_timing)
        return;
    _lastEnd = Clock::now();
    EventType &t = _types[_current];
    ++t.timed;
    t.timedNs += (_lastEnd - _start) / std::chrono::nanoseconds(1);
    _timing = false;
    _gapOpen = true;
}

void
LayerProbe::dumpRecent(std::ostream &os) const
{
    std::uint64_t n = _events > recentCapacity ? _events - recentCapacity : 0;
    for (; n < _events; ++n) {
        const RecentEvent &r = _recent[n % recentCapacity];
        os << "  tick " << r.tick << "  depth " << r.queued << "  "
           << _types[r.type].name << '\n';
    }
}

void
LayerProbe::dump(std::ostream &os, const EventQueue &queue,
                 const TimerWheel *wheel) const
{
    // profile.type.* rows go by name, as a std::map would order them.
    const std::vector<EventType> &types = eventTypes();
    std::vector<const EventType *> rows;
    for (const EventType &t : types)
        rows.push_back(&t);
    std::sort(rows.begin(), rows.end(),
              [](auto *a, auto *b) { return a->name < b->name; });
    std::array<double, numLayers> layer_ns{};
    double events_ns = 0.0;
    for (const EventType &t : types) {
        layer_ns[static_cast<std::size_t>(t.layer)] += t.hostNs();
        events_ns += t.hostNs();
    }
    // Kernel time between events: the timed gaps' mean times all gaps.
    const double kernel =
        _gaps ? static_cast<double>(_gapNs) * (_events - 1) / _gaps : 0.0;

    StatGroup group("profile");
    group.add("events_observed", _events);
    group.add("event_types", static_cast<std::uint64_t>(types.size()));
    group.add("peak_queue_depth", static_cast<std::uint64_t>(_peakDepth));
    group.add("host_seconds", events_ns * 1e-9);
    for (const EventType *t : rows) {
        group.add("type." + t->name + ".count", t->count);
        group.add("type." + t->name + ".host_us", t->hostNs() * 1e-3);
    }
    auto addLayer = [&](const std::string &name, double ns) {
        group.add("layer." + name + ".host_us", ns * 1e-3);
        group.add("layer." + name + ".host_share",
                  ns > 0.0 ? ns / (events_ns + kernel) : 0.0);
    };
    for (std::size_t l = 0; l < numLayers; ++l)
        addLayer(layerName(static_cast<Layer>(l)), layer_ns[l]);
    addLayer("kernel", kernel);
    addQueueStats(group, queue);
    if (wheel)
        addWheelStats(group, *wheel);
    group.dump(os);

    // The "# " table: event types, hottest first.
    std::sort(rows.begin(), rows.end(), [](auto *a, auto *b) {
        if (a->hostNs() != b->hostNs())
            return a->hostNs() > b->hostNs();
        if (a->count != b->count)
            return a->count > b->count;
        return a->name < b->name;
    });
    const std::ios::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << "# kernel hot events (host time inside process(), 1 in "
       << timingStride << " events timed)\n"
       << "# " << std::left << std::setw(32) << "event" << std::setw(18)
       << "layer" << std::right << std::setw(12) << "count"
       << std::setw(14) << "host_us" << std::setw(10) << "avg_ns" << '\n';
    std::string other;
    for (const EventType *t : rows) {
        os << "# " << std::left << std::setw(32) << t->name << std::setw(18)
           << layerName(t->layer) << std::right << std::setw(12) << t->count
           << std::setw(14) << std::fixed << std::setprecision(1)
           << t->hostNs() * 1e-3 << std::setw(10) << std::setprecision(0)
           << t->hostNs() / static_cast<double>(t->count) << '\n';
        if (t->layer == Layer::other)
            other += ' ' + t->name;
    }
    if (!other.empty())
        os << "# other:" << other << '\n';
    os.flags(flags);
    os.precision(precision);
}

} // namespace holdcsim
