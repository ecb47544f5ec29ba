/**
 * @file
 * Benchmark-side tracing: a KernelProbe that splits host time by
 * layer, plus decorators that time calls into the scheduler's
 * dispatch policy and the workload's generator and arrival process.
 *
 * Everything here observes the simulator through its public hooks
 * (Simulator::setProbe, GlobalScheduler::setPolicy, the JobGenerator
 * and ArrivalProcess handed to a pump); nothing inside the simulator
 * changes. The probe interns each event name once and keeps flat
 * per-name counters, so its own cost per event is two timestamp
 * reads and a probe of a small open-addressed table of names.
 * calibrate() measures that fixed cost, so it can be taken out of the
 * layer times it lands in.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/dispatch_policy.hh"
#include "sim/simulator.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * Cheap monotonic timestamp, in ticks: the TSC on x86-64, where it
 * costs half a steady_clock read; steady_clock nanoseconds elsewhere.
 * Tracer::secondsPerTick() converts.
 */
std::uint64_t stamp();

/** Where an event's host time is booked. */
enum class Layer : std::uint8_t {
    /** core.completion: task completion and what it triggers. */
    serverCompletion,
    /** Other core/delay-timer/DVFS/server power events. */
    serverGovernor,
    /** flow.* and net.*: flow activation, completion, packets. */
    networkFlow,
    /** port.*, linecard.*, switch.*: fabric power governors. */
    networkGovernor,
    /** pump.* and sched.*: job intake, dispatch, retries. */
    sched,
    /** wheel.tick: shared governor timer wheel batches. */
    wheel,
};

/**
 * Layer of an event name, by prefix. Returns false for a name the
 * map does not know: the caller must treat that as an error rather
 * than book the time to a catch-all bucket.
 */
bool layerOf(std::string_view name, Layer &layer);

/** Decorator spans the tracer keeps apart from event time. */
enum class Span : std::uint8_t { pick, makeJob, nextArrival };

/** Probe + span sink for one traced run. All times are in ticks. */
class Tracer : public holdcsim::KernelProbe
{
  public:
    struct EventType {
        std::string name;
        Layer layer = Layer::sched;
        bool known = false;
        std::uint64_t count = 0;
        /** Time inside process(), decorator spans included. */
        std::uint64_t ticks = 0;
        /** Same, minus the decorator spans nested inside it. */
        std::uint64_t selfTicks = 0;
    };

    struct SpanStats {
        std::uint64_t count = 0;
        std::uint64_t ticks = 0;
    };

    Tracer();

    void beginEvent(const holdcsim::Event &ev, std::size_t queued) override;
    void endEvent() override;

    /** Open a decorator span; pass the result to endSpan(). */
    std::uint64_t beginSpan() const { return stamp(); }
    void endSpan(Span kind, std::uint64_t start);

    /** Tick length, measured against steady_clock since construction. */
    double secondsPerTick() const;

    /** Interned event names, in first-seen order. */
    const std::vector<EventType> &eventTypes() const { return _types; }
    const SpanStats &span(Span kind) const
    {
        return _spans[static_cast<int>(kind)];
    }
    /** Span time that ran inside some event's process(). */
    std::uint64_t spanTicksInEvents(Span kind) const
    {
        return _spanTicksInEvents[static_cast<int>(kind)];
    }
    /** Pick spans that ran inside pump.* or sched.* events. */
    std::uint64_t pickTicksInSched() const { return _pickTicksInSched; }
    /** Time between one event's end and the next one's start. */
    std::uint64_t kernelTicks() const { return _kernelTicks; }
    std::uint64_t events() const { return _events; }

  private:
    static constexpr std::uint32_t noType = 0xffffffffu;

    std::uint32_t intern(const std::string &name);

    std::vector<EventType> _types;
    /** Open-addressed name table of indices into _types. */
    std::array<std::uint32_t, 256> _slots;
    SpanStats _spans[3];
    std::uint64_t _spanTicksInEvents[3] = {0, 0, 0};
    std::uint64_t _pickTicksInSched = 0;
    std::uint64_t _kernelTicks = 0;
    std::uint64_t _events = 0;

    Clock::time_point _clockStart;
    std::uint64_t _stampStart;

    bool _inEvent = false;
    std::uint32_t _current = 0;
    std::uint64_t _eventStart = 0;
    /** End of the previous event (0 before the first one). */
    std::uint64_t _lastEnd = 0;
    /** Span time nested inside the current event, by kind. */
    std::uint64_t _nestedTicks[3] = {0, 0, 0};
};

/** The probe's own fixed cost per event, in ticks. */
struct ProbeCost {
    /** Booked inside each event's time: the begin stamp to the end stamp. */
    double inEvent = 0.0;
    /** Booked to the kernel gap after an event: the rest of both calls. */
    double gap = 0.0;
};

/**
 * Time begin/end pairs with no event work between them, cycling
 * through the event names @p traced interned, on a fresh Tracer; the
 * median per-pair cost over a few rounds.
 */
ProbeCost calibrate(const Tracer &traced);

/** Times every DispatchPolicy::pick of the wrapped policy. */
class TimedPolicy : public holdcsim::DispatchPolicy
{
  public:
    TimedPolicy(std::unique_ptr<holdcsim::DispatchPolicy> inner,
                Tracer &tracer)
        : _inner(std::move(inner)), _tracer(tracer)
    {}

    std::size_t pick(const std::vector<std::size_t> &candidates,
                     const std::vector<holdcsim::Server *> &servers,
                     const holdcsim::DispatchContext &ctx) override;

  private:
    std::unique_ptr<holdcsim::DispatchPolicy> _inner;
    Tracer &_tracer;
};

/**
 * Times job construction. Forwards the id this generator drew, so
 * the wrapped generator sees exactly the ids it would have drawn.
 */
class TimedGenerator : public holdcsim::JobGenerator
{
  public:
    TimedGenerator(holdcsim::JobGenerator &inner, Tracer &tracer)
        : _inner(inner), _tracer(tracer)
    {}

  protected:
    holdcsim::Job buildJob(holdcsim::JobId id,
                           holdcsim::Tick arrival) override;

  private:
    holdcsim::JobGenerator &_inner;
    Tracer &_tracer;
};

/** Times every draw of the wrapped arrival process. */
class TimedArrival : public holdcsim::ArrivalProcess
{
  public:
    TimedArrival(std::unique_ptr<holdcsim::ArrivalProcess> inner,
                 Tracer &tracer)
        : _inner(std::move(inner)), _tracer(tracer)
    {}

    holdcsim::Tick nextArrival() override;
    bool exhausted() const override { return _inner->exhausted(); }

  private:
    std::unique_ptr<holdcsim::ArrivalProcess> _inner;
    Tracer &_tracer;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
