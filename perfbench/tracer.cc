#include "tracer.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

bool
startsWith(std::string_view name, std::string_view prefix)
{
    return name.substr(0, prefix.size()) == prefix;
}

/** Hash of a short name from its length and its first and last 8 bytes. */
std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t head = 0, tail = 0;
    std::size_t n = name.size();
    std::memcpy(&head, name.data(), n < 8 ? n : 8);
    if (n > 8)
        std::memcpy(&tail, name.data() + n - 8, 8);
    return (head * 0x9e3779b97f4a7c15ull) ^
           ((tail + n) * 0xc2b2ae3d27d4eb4full);
}

} // namespace

std::uint64_t
stamp()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

bool
layerOf(std::string_view name, Layer &layer)
{
    struct Rule {
        std::string_view prefix;
        Layer layer;
    };
    static constexpr Rule rules[] = {
        {"core.completion", Layer::serverCompletion},
        {"core.", Layer::serverGovernor},
        {"delayTimer.", Layer::serverGovernor},
        {"deepSleep.", Layer::serverGovernor},
        {"dvfs.", Layer::serverGovernor},
        {"server.", Layer::serverGovernor},
        {"flow.", Layer::networkFlow},
        {"net.", Layer::networkFlow},
        {"port.", Layer::networkGovernor},
        {"linecard.", Layer::networkGovernor},
        {"switch.", Layer::networkGovernor},
        {"pump.", Layer::sched},
        {"sched.", Layer::sched},
        {"wheel.tick", Layer::wheel},
    };
    for (const Rule &r : rules) {
        if (startsWith(name, r.prefix)) {
            layer = r.layer;
            return true;
        }
    }
    return false;
}

Tracer::Tracer() : _clockStart(Clock::now()), _stampStart(stamp())
{
    _slots.fill(noType);
}

double
Tracer::secondsPerTick() const
{
    double seconds =
        std::chrono::duration<double>(Clock::now() - _clockStart).count();
    std::uint64_t ticks = stamp() - _stampStart;
    return ticks == 0 ? 0.0 : seconds / static_cast<double>(ticks);
}

std::uint32_t
Tracer::intern(const std::string &name)
{
    const std::size_t mask = _slots.size() - 1;
    for (std::size_t i = nameHash(name) >> 56;; i = (i + 1) & mask) {
        std::uint32_t id = _slots[i];
        if (id == noType) {
            // Keep the table at most half full so probes stay short.
            if (_types.size() >= _slots.size() / 2)
                throw std::runtime_error("too many distinct event names");
            id = static_cast<std::uint32_t>(_types.size());
            EventType &t = _types.emplace_back();
            t.name = name;
            t.known = layerOf(t.name, t.layer);
            _slots[i] = id;
            return id;
        }
        if (_types[id].name == name)
            return id;
    }
}

void
Tracer::beginEvent(const holdcsim::Event &ev, std::size_t)
{
    // Intern before the stamp, so the name lookup lands in the kernel
    // gap, where calibrate() measures it, and not in the event's time.
    _current = intern(ev.name());
    _nestedTicks[0] = _nestedTicks[1] = _nestedTicks[2] = 0;
    _inEvent = true;
    _eventStart = stamp();
    if (_lastEnd != 0)
        _kernelTicks += _eventStart - _lastEnd;
}

void
Tracer::endEvent()
{
    // The bookkeeping below runs after this stamp and lands in the next
    // kernel gap, where calibrate() measures it; one read per boundary
    // keeps the probe cheap.
    _lastEnd = stamp();
    std::uint64_t ticks = _lastEnd - _eventStart;
    EventType &t = _types[_current];
    ++t.count;
    t.ticks += ticks;
    std::uint64_t workload = _nestedTicks[static_cast<int>(Span::makeJob)] +
                             _nestedTicks[static_cast<int>(Span::nextArrival)];
    std::uint64_t pick = _nestedTicks[static_cast<int>(Span::pick)];
    // Dispatch time of job intake keeps its picks; every other layer
    // hands nested picks to the scheduler.
    if (t.layer == Layer::sched) {
        t.selfTicks += ticks - workload;
        _pickTicksInSched += pick;
    } else {
        t.selfTicks += ticks - workload - pick;
    }
    ++_events;
    _inEvent = false;
}

void
Tracer::endSpan(Span kind, std::uint64_t start)
{
    std::uint64_t ticks = stamp() - start;
    auto k = static_cast<int>(kind);
    ++_spans[k].count;
    _spans[k].ticks += ticks;
    if (_inEvent) {
        _nestedTicks[k] += ticks;
        _spanTicksInEvents[k] += ticks;
    }
}

ProbeCost
calibrate(const Tracer &traced)
{
    std::vector<std::unique_ptr<holdcsim::EventFunctionWrapper>> events;
    for (const Tracer::EventType &t : traced.eventTypes()) {
        events.push_back(
            std::make_unique<holdcsim::EventFunctionWrapper>([] {}, t.name));
    }
    if (events.empty())
        return {};

    constexpr int rounds = 7;
    constexpr std::size_t pairs = 1 << 14;
    std::vector<double> in, gap;
    for (int r = 0; r < rounds; ++r) {
        Tracer t;
        // Call through the base, as the simulator does.
        holdcsim::KernelProbe &probe = t;
        std::size_t next = 0;
        for (std::size_t i = 0; i < pairs; ++i) {
            probe.beginEvent(*events[next], 0);
            probe.endEvent();
            if (++next == events.size())
                next = 0;
        }
        std::uint64_t ticks = 0;
        for (const Tracer::EventType &e : t.eventTypes())
            ticks += e.ticks;
        in.push_back(static_cast<double>(ticks) / pairs);
        gap.push_back(static_cast<double>(t.kernelTicks()) / (pairs - 1));
    }
    auto median = [](std::vector<double> &v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    return {median(in), median(gap)};
}

std::size_t
TimedPolicy::pick(const std::vector<std::size_t> &candidates,
                  const std::vector<holdcsim::Server *> &servers,
                  const holdcsim::DispatchContext &ctx)
{
    std::uint64_t start = _tracer.beginSpan();
    std::size_t choice = _inner->pick(candidates, servers, ctx);
    _tracer.endSpan(Span::pick, start);
    return choice;
}

holdcsim::Job
TimedGenerator::buildJob(holdcsim::JobId id, holdcsim::Tick arrival)
{
    std::uint64_t start = _tracer.beginSpan();
    holdcsim::Job job = _inner.makeJob(arrival, id);
    _tracer.endSpan(Span::makeJob, start);
    return job;
}

holdcsim::Tick
TimedArrival::nextArrival()
{
    std::uint64_t start = _tracer.beginSpan();
    holdcsim::Tick t = _inner->nextArrival();
    _tracer.endSpan(Span::nextArrival, start);
    return t;
}

} // namespace perfbench
