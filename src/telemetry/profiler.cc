#include "profiler.hh"

#include <algorithm>
#include <iomanip>

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
    group.add("queue.peak_occupancy",
              static_cast<std::uint64_t>(c.peakSize));
    group.add("queue.bucket_width_ticks",
              static_cast<std::uint64_t>(queue.bucketWidth()));
}

void
addWheelStats(StatGroup &group, const TimerWheel &wheel)
{
    const TimerWheel::Stats &s = wheel.stats();
    group.add("wheel.granularity_ticks",
              static_cast<std::uint64_t>(wheel.granularity()));
    group.add("wheel.slots",
              static_cast<std::uint64_t>(wheel.numSlots()));
    group.add("wheel.armed", s.armed);
    group.add("wheel.cancelled", s.cancelled);
    group.add("wheel.fired", s.fired);
    group.add("wheel.tick_events", s.tickEvents);
    group.add("wheel.max_batch", s.maxBatch);
    group.add("wheel.overflow_migrations", s.overflowMigrations);
    group.add("wheel.max_live", s.maxLive);
}

} // namespace

void
KernelProfiler::beginEvent(const Event &ev, std::size_t queued)
{
    if (queued > _peakDepth)
        _peakDepth = queued;
    _currentName = ev.name();
    if (_recent.size() < recentCapacity) {
        _recent.push_back(RecentEvent{ev.when(), queued, _currentName});
    } else {
        RecentEvent &slot = _recent[_recentNext];
        slot.tick = ev.when();
        slot.queued = queued;
        slot.name = _currentName;
        _recentNext = (_recentNext + 1) % recentCapacity;
    }
    _currentStart = Clock::now();
}

void
KernelProfiler::dumpRecent(std::ostream &os) const
{
    // _recentNext is the oldest slot once the ring has wrapped.
    std::size_t start = _recent.size() < recentCapacity ? 0 : _recentNext;
    for (std::size_t i = 0; i < _recent.size(); ++i) {
        const RecentEvent &r = _recent[(start + i) % _recent.size()];
        os << "  tick " << r.tick << "  depth " << r.queued << "  "
           << r.name << '\n';
    }
}

void
KernelProfiler::endEvent()
{
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - _currentStart)
                  .count();
    TypeStats &ts = _byType[_currentName];
    ++ts.count;
    ts.hostNs += static_cast<std::uint64_t>(ns);
    ++_events;
}

std::uint64_t
KernelProfiler::totalHostNs() const
{
    std::uint64_t total = 0;
    for (const auto &[name, ts] : _byType)
        total += ts.hostNs;
    return total;
}

std::vector<std::pair<std::string, KernelProfiler::TypeStats>>
KernelProfiler::hottest() const
{
    std::vector<std::pair<std::string, TypeStats>> rows(
        _byType.begin(), _byType.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.hostNs != b.second.hostNs)
                      return a.second.hostNs > b.second.hostNs;
                  if (a.second.count != b.second.count)
                      return a.second.count > b.second.count;
                  return a.first < b.first;
              });
    return rows;
}

void
KernelProfiler::addStats(StatGroup &group) const
{
    group.add("events_observed", _events);
    group.add("event_types", static_cast<std::uint64_t>(_byType.size()));
    group.add("peak_queue_depth",
              static_cast<std::uint64_t>(_peakDepth));
    group.add("host_seconds", static_cast<double>(totalHostNs()) * 1e-9);
    for (const auto &[name, ts] : _byType) {
        group.add("type." + name + ".count", ts.count);
        group.add("type." + name + ".host_us",
                  static_cast<double>(ts.hostNs) * 1e-3);
    }
}

void
KernelProfiler::dumpHotTable(std::ostream &os) const
{
    os << "# kernel hot events (by host time inside process())\n";
    os << "# " << std::left << std::setw(40) << "event" << std::right
       << std::setw(12) << "count" << std::setw(14) << "host_us"
       << std::setw(10) << "avg_ns" << '\n';
    for (const auto &[name, ts] : hottest()) {
        double avg =
            ts.count ? static_cast<double>(ts.hostNs) / ts.count : 0.0;
        os << "# " << std::left << std::setw(40) << name << std::right
           << std::setw(12) << ts.count << std::setw(14) << std::fixed
           << std::setprecision(1)
           << static_cast<double>(ts.hostNs) * 1e-3 << std::setw(10)
           << std::setprecision(0) << avg << '\n';
    }
    os.unsetf(std::ios::floatfield);
    os << std::setprecision(6);
}

void
KernelProfiler::dump(std::ostream &os, const EventQueue &queue,
                     const TimerWheel *wheel) const
{
    StatGroup group("profile");
    addStats(group);
    addQueueStats(group, queue);
    if (wheel)
        addWheelStats(group, *wheel);
    group.dump(os);
    dumpHotTable(os);
}

void
KernelProfiler::reset()
{
    _events = 0;
    _peakDepth = 0;
    _byType.clear();
    _currentName.clear();
    _recent.clear();
    _recentNext = 0;
}

} // namespace holdcsim
