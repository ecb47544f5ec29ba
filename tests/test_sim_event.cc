/**
 * @file
 * Unit tests for the event queue and simulation engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/one_shot.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

using namespace holdcsim;

namespace {

/** Collects the order in which tagged events fire. */
struct TraceEvent : Event {
    TraceEvent(std::vector<int> &log, int tag, int prio = defaultPriority)
        : Event("trace", prio), log(log), tag(tag)
    {}
    void process() override { log.push_back(tag); }
    std::vector<int> &log;
    int tag;
};

} // namespace

TEST(EventQueue, OrdersByTick)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2), c(log, 3);
    sim.schedule(b, 20);
    sim.schedule(c, 30);
    sim.schedule(a, 10);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.curTick(), 30u);
}

TEST(EventQueue, FifoAmongSimultaneous)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2), c(log, 3), d(log, 4);
    sim.schedule(a, 5);
    sim.schedule(b, 5);
    sim.schedule(c, 5);
    sim.schedule(d, 5);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, PriorityBeatsFifoWithinTick)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent normal(log, 1, Event::defaultPriority);
    TraceEvent power(log, 2, Event::powerPriority);
    TraceEvent stats(log, 3, Event::statsPriority);
    sim.schedule(stats, 7);
    sim.schedule(normal, 7);
    sim.schedule(power, 7);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2);
    sim.schedule(a, 10);
    sim.schedule(b, 20);
    sim.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2);
    sim.schedule(a, 10);
    sim.schedule(b, 20);
    sim.reschedule(a, 30);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(sim.curTick(), 30u);
}

TEST(EventQueue, RescheduleOfUnscheduledSchedules)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1);
    sim.reschedule(a, 15);
    EXPECT_TRUE(a.scheduled());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue q;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2);
    EXPECT_TRUE(q.empty());
    q.schedule(a, 1);
    q.schedule(b, 2);
    EXPECT_EQ(q.size(), 2u);
    q.deschedule(a);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(&q.pop(), &b);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyRedundantReschedulesStayCorrect)
{
    // Exercises lazy deletion: stale heap entries must be skipped.
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1);
    for (int i = 0; i < 1000; ++i)
        sim.reschedule(a, 1000 + static_cast<Tick>(i));
    EXPECT_EQ(sim.eventQueue().size(), 1u);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(sim.curTick(), 1999u);
}

TEST(Simulator, LambdaEventsAndSelfRescheduling)
{
    Simulator sim;
    int count = 0;
    EventFunctionWrapper tick(
        [&] {
            ++count;
            if (count < 5)
                sim.scheduleAfter(tick, 10);
        },
        "tick");
    sim.schedule(tick, 0);
    sim.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.curTick(), 40u);
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2), c(log, 3);
    sim.schedule(a, 10);
    sim.schedule(b, 20);
    sim.schedule(c, 30);
    Tick t = sim.runUntil(20);
    EXPECT_EQ(t, 20u);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_TRUE(sim.hasPendingEvents());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1);
    sim.schedule(a, 10);
    Tick t = sim.runUntil(100);
    EXPECT_EQ(t, 100u);
    EXPECT_EQ(sim.curTick(), 100u);
}

TEST(Simulator, StopAbortsRun)
{
    Simulator sim;
    std::vector<int> log;
    EventFunctionWrapper stopper([&] { sim.stop(); }, "stopper");
    TraceEvent late(log, 9);
    sim.schedule(stopper, 5);
    sim.schedule(late, 10);
    sim.run();
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(sim.hasPendingEvents());
    EXPECT_EQ(sim.curTick(), 5u);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{9}));
}

TEST(Simulator, EventsProcessedCounts)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2);
    sim.schedule(a, 1);
    sim.schedule(b, 2);
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 2u);
}

TEST(Simulator, EventScheduledDuringProcessingRuns)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent child(log, 2);
    EventFunctionWrapper parent(
        [&] {
            log.push_back(1);
            sim.scheduleAfter(child, 0); // same-tick child
        },
        "parent");
    sim.schedule(parent, 10);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.curTick(), 10u);
}

namespace {

/**
 * A deferred-timer entity whose last pending transition is set from
 * outside: it never settles, so it reports each change itself.
 */
struct FixedDeferred : DeferredTimers {
    explicit FixedDeferred(Tick last) : last(last) {}
    Tick lastDeferredTick() const override { return last; }
    void
    set(Simulator &sim, Tick at)
    {
        last = at;
        sim.deferredChanged(*this);
    }
    Tick last;
};

} // namespace

TEST(Simulator, ReservedDeferredSlotsFillFromThreads)
{
    Simulator sim;
    FixedDeferred first(5);
    sim.addDeferred(first);
    std::vector<std::unique_ptr<FixedDeferred>> fleet;
    for (Tick t = 0; t < 64; ++t)
        fleet.push_back(std::make_unique<FixedDeferred>(10 + t % 7));
    const std::size_t slot = sim.reserveDeferred(fleet.size());
    EXPECT_EQ(slot, 1u);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < fleet.size(); i += 4)
                sim.addDeferredAt(*fleet[i], slot + i);
        });
    }
    for (std::thread &t : threads)
        t.join();
    // The list appending each in turn would have built.
    ASSERT_EQ(sim.deferred().size(), 65u);
    EXPECT_EQ(sim.deferred()[0], &first);
    for (std::size_t i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(sim.deferred()[slot + i], fleet[i].get()) << i;
    EXPECT_EQ(sim.run(), 16u);

    // Removal still moves the last entry into the hole.
    sim.removeDeferred(*fleet[3]);
    ASSERT_EQ(sim.deferred().size(), 64u);
    EXPECT_EQ(sim.deferred()[slot + 3], fleet.back().get());
    fleet.back()->set(sim, 40);
    EXPECT_EQ(sim.run(), 40u);
}

TEST(Simulator, DrainReadsRecordedHorizons)
{
    // A drain evaluates each entity once, then reads the horizon it
    // recorded until the entity reports a change; removal carries the
    // moved entity's horizon into the hole.
    Simulator sim;
    FixedDeferred a(5), b(9), c(7);
    sim.addDeferred(a);
    sim.addDeferred(b);
    sim.addDeferred(c);
    EXPECT_EQ(sim.run(), 9u);
    EXPECT_EQ(sim.horizonRefreshes(), 3u);
    a.last = 30; // unreported: the recorded 5 stands
    EXPECT_EQ(sim.deferredHorizon(), 9u);
    EXPECT_EQ(sim.horizonRefreshes(), 3u);
    a.set(sim, 20);
    EXPECT_EQ(sim.run(), 20u);
    EXPECT_EQ(sim.horizonRefreshes(), 4u);
    c.set(sim, 40);
    sim.removeDeferred(a); // c moves into a's slot, still stale
    EXPECT_EQ(sim.run(), 40u);
    EXPECT_EQ(sim.horizonRefreshes(), 5u);
    sim.removeDeferred(c);
    EXPECT_EQ(sim.deferredHorizon(), 9u);
}

TEST(Simulator, EmptyReservedSlotsAreSkipped)
{
    // As a fleet build that threw leaves them: the drain skips the
    // empty slots, and removals drop those behind the last entry.
    Simulator sim;
    FixedDeferred a(7), b(3);
    const std::size_t slot = sim.reserveDeferred(4);
    sim.addDeferredAt(a, slot + 1);
    sim.addDeferredAt(b, slot + 3);
    EXPECT_EQ(sim.run(), 7u);
    sim.removeDeferred(a);
    sim.removeDeferred(b);
    for (const DeferredTimers *d : sim.deferred())
        EXPECT_EQ(d, nullptr);
    FixedDeferred c(9);
    sim.addDeferred(c);
    EXPECT_EQ(sim.run(), 9u);
}

TEST(Types, UnitConversions)
{
    EXPECT_EQ(sec, 1000u * msec);
    EXPECT_EQ(msec, 1000u * usec);
    EXPECT_DOUBLE_EQ(toSeconds(2 * sec + 500 * msec), 2.5);
    EXPECT_EQ(fromSeconds(0.001), msec);
    EXPECT_DOUBLE_EQ(energyOver(100.0, 10 * sec), 1000.0);
}

TEST(Types, SerializationDelay)
{
    // 1500 bytes at 1 Gb/s = 12 us.
    EXPECT_EQ(serializationDelay(1500, 1e9), 12 * usec);
    // 100 MB at 1 Gb/s = 0.8 s.
    EXPECT_EQ(serializationDelay(100'000'000ull, 1e9), 800 * msec);
    EXPECT_EQ(serializationDelay(0, 1e9), 0u);
    // Tiny payloads still advance time.
    EXPECT_GE(serializationDelay(1, 1e12), 1u);
}

TEST(EventQueue, DescheduleMidHeapPreservesOrder)
{
    // Components destroyed or crashed mid-simulation deschedule
    // events sitting anywhere in the heap; the remaining schedule
    // must be untouched.
    Simulator sim;
    std::vector<int> log;
    std::deque<TraceEvent> evs;
    for (int i = 0; i < 32; ++i) {
        evs.emplace_back(log, i);
        sim.schedule(evs.back(), static_cast<Tick>(10 * (i + 1)));
    }
    sim.deschedule(evs[10]);
    sim.deschedule(evs[20]);
    sim.deschedule(evs[25]);
    EXPECT_FALSE(evs[10].scheduled());
    sim.run();

    EXPECT_EQ(log.size(), 29u);
    for (std::size_t i = 1; i < log.size(); ++i)
        EXPECT_LT(log[i - 1], log[i]);
    for (int victim : {10, 20, 25})
        EXPECT_EQ(std::count(log.begin(), log.end(), victim), 0);
}

TEST(EventQueue, DescheduledEventReschedulesCleanly)
{
    // A crashed component's pending event may be re-armed by the
    // repair path: the same Event object must go around again.
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2);
    sim.schedule(a, 10);
    sim.schedule(b, 20);
    sim.deschedule(a);
    EXPECT_FALSE(a.scheduled());

    sim.schedule(a, 30);
    EXPECT_TRUE(a.scheduled());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(sim.curTick(), 30u);

    // And once fired it is free to be scheduled yet again.
    sim.schedule(a, 40);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1, 1}));
}

TEST(EventQueue, ChurnPropertyPreservesCountsAndFifo)
{
    // Property test: arbitrary schedule/deschedule/reschedule churn
    // over a mix of background and foreground events must keep
    // size()/foregroundCount() consistent with a shadow model, and
    // draining must fire events in exact (tick, priority, schedule
    // sequence) order -- FIFO among equal (tick, priority) pairs.
    // The same trace runs in lockstep through the calendar and the
    // binary-heap backends, which must pop in identical order.
    struct ModelEntry {
        Tick when;
        int priority;
        std::uint64_t sequence;
        std::size_t index;
    };
    constexpr std::size_t n_events = 48;
    constexpr int n_ops = 3000;
    const int priorities[] = {Event::powerPriority,
                              Event::defaultPriority,
                              Event::statsPriority};

    for (std::uint64_t trial = 0; trial < 4; ++trial) {
        Rng rng(1000 + trial, "churn");
        EventQueue cal(EventQueue::Backend::calendar);
        EventQueue heap(EventQueue::Backend::binaryHeap);
        std::vector<std::unique_ptr<EventFunctionWrapper>> calEvents;
        std::vector<std::unique_ptr<EventFunctionWrapper>> heapEvents;
        std::vector<bool> isBackground;
        for (std::size_t i = 0; i < n_events; ++i) {
            int prio = priorities[i % 3];
            bool bg = i % 4 == 0;
            for (auto *events : {&calEvents, &heapEvents}) {
                events->push_back(
                    std::make_unique<EventFunctionWrapper>(
                        [] {}, "churn." + std::to_string(i), prio));
                events->back()->setBackground(bg);
            }
            isBackground.push_back(bg);
        }

        std::vector<ModelEntry> model; // scheduled events only
        std::uint64_t next_sequence = 0;
        auto modelFind = [&](std::size_t i) {
            for (std::size_t m = 0; m < model.size(); ++m) {
                if (model[m].index == i)
                    return m;
            }
            return model.size();
        };

        for (int op = 0; op < n_ops; ++op) {
            std::size_t i = rng.uniformInt(0, n_events - 1);
            // Few distinct ticks, so collisions are the common case.
            Tick when = rng.uniformInt(0, 40);
            ASSERT_EQ(calEvents[i]->scheduled(),
                      heapEvents[i]->scheduled());
            if (!calEvents[i]->scheduled()) {
                cal.schedule(*calEvents[i], when);
                heap.schedule(*heapEvents[i], when);
                model.push_back(
                    {when, calEvents[i]->priority(), next_sequence++,
                     i});
            } else if (rng.bernoulli(0.5)) {
                cal.deschedule(*calEvents[i]);
                heap.deschedule(*heapEvents[i]);
                model.erase(model.begin() + modelFind(i));
            } else {
                cal.reschedule(*calEvents[i], when);
                heap.reschedule(*heapEvents[i], when);
                std::size_t m = modelFind(i);
                // Mirror the same-tick early-out: the event keeps its
                // FIFO position when the tick is unchanged.
                if (model[m].when != when) {
                    model.erase(model.begin() + m);
                    model.push_back({when, calEvents[i]->priority(),
                                     next_sequence++, i});
                }
            }

            ASSERT_EQ(cal.size(), model.size());
            ASSERT_EQ(heap.size(), model.size());
            std::size_t foreground = 0;
            for (const ModelEntry &m : model)
                foreground += !isBackground[m.index];
            ASSERT_EQ(cal.foregroundCount(), foreground);
            ASSERT_EQ(heap.foregroundCount(), foreground);
        }

        // Drain: both backends must agree with the model's total order.
        std::stable_sort(model.begin(), model.end(),
                         [](const ModelEntry &a, const ModelEntry &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             if (a.priority != b.priority)
                                 return a.priority < b.priority;
                             return a.sequence < b.sequence;
                         });
        for (const ModelEntry &m : model) {
            ASSERT_FALSE(cal.empty());
            ASSERT_FALSE(heap.empty());
            EXPECT_EQ(cal.nextTick(), m.when);
            EXPECT_EQ(heap.nextTick(), m.when);
            Event &cev = cal.pop();
            Event &hev = heap.pop();
            EXPECT_EQ(&cev, calEvents[m.index].get());
            EXPECT_EQ(&hev, heapEvents[m.index].get());
        }
        EXPECT_TRUE(cal.empty());
        EXPECT_TRUE(heap.empty());
        EXPECT_EQ(cal.foregroundCount(), 0u);
        EXPECT_EQ(heap.foregroundCount(), 0u);
    }
}

TEST(EventQueue, HoldAndChurnAcrossBucketsMatchHeap)
{
    // The hold model (each pop re-arms the popped event) over 1024
    // events whose gaps span four buckets' worth of ticks, with a
    // 1-in-128 ~1 s tail that spills into the overflow heap; the churn
    // variant also cancels and re-arms (every 16th pop) or moves
    // (every 32nd) a random event. Calendar and heap replay the same
    // trace in lockstep and must pop the same event at the same tick,
    // while the calendar rebases, spills and recalibrates under it.
    struct IndexedEvent : Event {
        explicit IndexedEvent(std::size_t i) : Event("hold"), idx(i) {}
        void process() override {}
        std::size_t idx;
    };
    constexpr std::size_t n = 1024;
    constexpr int n_ops = 50'000;
    auto nextGap = [](Rng &rng) -> Tick {
        if (rng.uniformInt(0, 127) == 0)
            return 1 * sec + rng.uniformInt(0, msec);
        return rng.uniformInt(1, 4 * n);
    };

    for (bool churn : {false, true}) {
        SCOPED_TRACE(churn ? "churn" : "hold");
        Rng rng(churn ? 43 : 42, "hold");
        EventQueue cal(EventQueue::Backend::calendar);
        EventQueue heap(EventQueue::Backend::binaryHeap);
        std::deque<IndexedEvent> calEvents;
        std::deque<IndexedEvent> heapEvents;
        auto schedule = [&](std::size_t i, Tick when) {
            cal.schedule(calEvents[i], when);
            heap.schedule(heapEvents[i], when);
        };
        for (std::size_t i = 0; i < n; ++i) {
            calEvents.emplace_back(i);
            heapEvents.emplace_back(i);
            schedule(i, nextGap(rng));
        }
        for (int op = 0; op < n_ops; ++op) {
            auto &cev = static_cast<IndexedEvent &>(cal.pop());
            auto &hev = static_cast<IndexedEvent &>(heap.pop());
            if (cev.idx != hev.idx || cev.when() != hev.when()) {
                ADD_FAILURE() << "pop " << op << ": calendar event "
                              << cev.idx << " at " << cev.when()
                              << ", heap event " << hev.idx << " at "
                              << hev.when();
                break;
            }
            Tick now = cev.when();
            schedule(cev.idx, now + nextGap(rng));
            if (!churn)
                continue;
            if (op % 16 == 0) {
                std::size_t v = rng.uniformInt(0, n - 1);
                if (calEvents[v].scheduled()) {
                    cal.deschedule(calEvents[v]);
                    heap.deschedule(heapEvents[v]);
                    schedule(v, now + nextGap(rng));
                }
            } else if (op % 32 == 1) {
                std::size_t v = rng.uniformInt(0, n - 1);
                if (calEvents[v].scheduled()) {
                    Tick when = now + nextGap(rng);
                    cal.reschedule(calEvents[v], when);
                    heap.reschedule(heapEvents[v], when);
                }
            }
        }
        EXPECT_EQ(cal.auditConsistency(), "");
        EXPECT_GT(cal.counters().heapSchedules, 0u);
        EXPECT_GT(cal.counters().rebases, 0u);
        EXPECT_GT(cal.counters().recalibrations, 0u);
        for (std::size_t i = 0; i < n; ++i) {
            if (calEvents[i].scheduled())
                cal.deschedule(calEvents[i]);
            if (heapEvents[i].scheduled())
                heap.deschedule(heapEvents[i]);
        }
    }
}

TEST(EventQueue, AdversarialAllSameTick)
{
    // Every event collides on one (tick, priority) pair: the calendar
    // degenerates to one bucket and must still drain in exact FIFO
    // order, matching the heap backend.
    constexpr std::size_t n = 512;
    EventQueue cal(EventQueue::Backend::calendar);
    EventQueue heap(EventQueue::Backend::binaryHeap);
    std::vector<std::unique_ptr<EventFunctionWrapper>> calEvents;
    std::vector<std::unique_ptr<EventFunctionWrapper>> heapEvents;
    for (std::size_t i = 0; i < n; ++i) {
        calEvents.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "same"));
        heapEvents.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "same"));
        cal.schedule(*calEvents.back(), 7);
        heap.schedule(*heapEvents.back(), 7);
    }
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(&cal.pop(), calEvents[i].get());
        EXPECT_EQ(&heap.pop(), heapEvents[i].get());
        if (i == 0) {
            // The first pop must have spilled the oversized bucket to
            // the overflow heap: the burst then drains at O(log n)
            // per pop instead of an O(n) bucket scan per pop.
            EXPECT_GT(cal.counters().headSpills, 0u);
            EXPECT_GE(cal.counters().spilledEntries, n - 1);
            EXPECT_EQ(cal.auditConsistency(), "");
        }
    }
    EXPECT_TRUE(cal.empty());
}

TEST(EventQueue, SameTickBurstWithInterleavedInserts)
{
    // Drain a spilled same-tick burst while new events keep arriving
    // at the same tick (the bulk-load + event-handler pattern): the
    // fresh inserts land in the head bucket, the spilled ones sit in
    // the overflow heap, and FIFO order must hold across the two
    // containers.
    constexpr std::size_t n = 300;
    EventQueue cal(EventQueue::Backend::calendar);
    EventQueue heap(EventQueue::Backend::binaryHeap);
    std::vector<std::unique_ptr<EventFunctionWrapper>> calEvents;
    std::vector<std::unique_ptr<EventFunctionWrapper>> heapEvents;
    auto add = [&](Tick when) {
        calEvents.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "burst"));
        heapEvents.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "burst"));
        cal.schedule(*calEvents.back(), when);
        heap.schedule(*heapEvents.back(), when);
    };
    for (std::size_t i = 0; i < n; ++i)
        add(11);
    for (std::size_t i = 0; i < 2 * n; ++i) {
        if (i < n)
            add(11); // arrives after the spill; sequence keeps order
        std::size_t ci = calEvents.size() - cal.size();
        EXPECT_EQ(&cal.pop(), calEvents[ci].get());
        EXPECT_EQ(&heap.pop(), heapEvents[ci].get());
    }
    EXPECT_TRUE(cal.empty());
    EXPECT_TRUE(heap.empty());
    EXPECT_GT(cal.counters().headSpills, 0u);
    EXPECT_EQ(cal.auditConsistency(), "");
}

TEST(EventQueue, SparseFarFutureSpillsAndMigrates)
{
    // Events spaced out to hours force the calendar to spill into
    // the overflow heap and to migrate entries back as the window
    // rebases; ordering must survive both.
    EventQueue cal(EventQueue::Backend::calendar);
    EventQueue heap(EventQueue::Backend::binaryHeap);
    std::vector<std::unique_ptr<EventFunctionWrapper>> calEvents;
    std::vector<std::unique_ptr<EventFunctionWrapper>> heapEvents;
    std::vector<Tick> whens;
    Tick t = 0;
    Tick gap = 1;
    for (int i = 0; i < 64; ++i) {
        whens.push_back(t);
        t += gap;
        gap *= 2; // 1 ns doubling up to ~2.5 hours
        if (gap > 2 * 3600 * sec)
            gap = 1;
    }
    // Schedule in a scrambled order so heap spills interleave with
    // near-future bucket inserts.
    for (std::size_t i = 0; i < whens.size(); ++i) {
        std::size_t j = (i * 37) % whens.size();
        calEvents.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "sparse"));
        heapEvents.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "sparse"));
        cal.schedule(*calEvents.back(), whens[j]);
        heap.schedule(*heapEvents.back(), whens[j]);
    }
    EXPECT_GT(cal.counters().heapSchedules, 0u);
    Tick prev = 0;
    for (std::size_t i = 0; i < whens.size(); ++i) {
        Event &cev = cal.pop();
        Event &hev = heap.pop();
        EXPECT_GE(cev.when(), prev);
        EXPECT_EQ(cev.when(), hev.when());
        // Same scramble index => same event identity across backends.
        auto cit = std::find_if(calEvents.begin(), calEvents.end(),
                                [&](const auto &e) {
                                    return e.get() == &cev;
                                });
        auto hit = std::find_if(heapEvents.begin(), heapEvents.end(),
                                [&](const auto &e) {
                                    return e.get() == &hev;
                                });
        EXPECT_EQ(cit - calEvents.begin(), hit - heapEvents.begin());
        prev = cev.when();
    }
    EXPECT_TRUE(cal.empty());
    EXPECT_GT(cal.counters().rebases, 0u);
    EXPECT_GT(cal.counters().migratedEntries, 0u);
}

TEST(EventQueue, BucketWidthRecalibrates)
{
    // A steady millisecond-spaced hold pattern is 1000x wider than
    // the initial 1024-tick buckets; after a calibration window the
    // queue must rehash to a wider bucket and keep popping in order.
    EventQueue q;
    Tick initial_width = q.bucketWidth();
    EventFunctionWrapper ev([] {}, "hold");
    Tick t = 0;
    for (int i = 0; i < 10000; ++i) {
        q.schedule(ev, t);
        Event &popped = q.pop();
        EXPECT_EQ(&popped, &ev);
        EXPECT_EQ(popped.when(), t);
        t += msec;
    }
    EXPECT_GT(q.counters().recalibrations, 0u);
    EXPECT_GT(q.bucketWidth(), initial_width);
}

TEST(EventQueue, SplitCountersCountOnlySchedules)
{
    // A population that outgrows the ring (doubling rehashes) and
    // overruns the window (heap spills), then a hold pattern far wider
    // than the buckets (width recalibration): rehash() re-buckets
    // every live entry, and none of that may count as a schedule.
    EventQueue q;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 4000; ++i) {
        events.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "grow"));
        q.schedule(*events.back(), static_cast<Tick>(i) * 50 * usec);
    }
    Tick t = 0;
    for (int i = 0; i < 8000; ++i) {
        Event &ev = q.pop();
        t = ev.when();
        if (i % 2 == 0)
            q.schedule(ev, t + 3 * msec);
    }
    while (!q.empty())
        q.pop();

    const EventQueue::Counters &c = q.counters();
    EXPECT_GT(c.recalibrations, 0u);
    EXPECT_GT(c.heapSchedules, 0u);
    EXPECT_GT(c.bucketSchedules, 0u);
    EXPECT_EQ(c.bucketSchedules + c.heapSchedules + c.clampedSchedules,
              c.schedules);
}

TEST(EventQueue, RescheduleSameTickKeepsFifoPosition)
{
    // reschedule() to the identical tick is a no-op: the event must
    // not lose its FIFO slot to a later-scheduled peer.
    Simulator sim;
    std::vector<int> log;
    TraceEvent a(log, 1), b(log, 2);
    sim.schedule(a, 10);
    sim.schedule(b, 10);
    sim.reschedule(a, 10); // early-out; a stays ahead of b
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));

    // Moving to a different tick still re-orders as a fresh insert.
    log.clear();
    sim.schedule(a, 20);
    sim.schedule(b, 20);
    sim.reschedule(a, 21);
    sim.reschedule(a, 20); // distinct tick hop => behind b now
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(Simulator, RunUntilDrainsSameTickChainsAtLimit)
{
    // runUntil(limit) is inclusive: events AT the limit run, and
    // same-tick children they spawn at the limit run too before
    // control returns. An event one tick past the limit stays queued.
    Simulator sim;
    std::vector<int> log;
    TraceEvent grandchild(log, 3);
    TraceEvent beyond(log, 9);
    EventFunctionWrapper child(
        [&] {
            log.push_back(2);
            sim.scheduleAfter(grandchild, 0);
        },
        "child");
    EventFunctionWrapper at_limit(
        [&] {
            log.push_back(1);
            sim.scheduleAfter(child, 0);
        },
        "atLimit");
    sim.schedule(at_limit, 50);
    sim.schedule(beyond, 51);
    Tick t = sim.runUntil(50);
    EXPECT_EQ(t, 50u);
    EXPECT_EQ(sim.curTick(), 50u);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(beyond.scheduled());
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 9}));
}

TEST(Simulator, StopDuringRunUntilKeepsClockAtStopTick)
{
    // stop() inside runUntil() must leave the clock at the tick that
    // requested the stop -- not jump it forward to the limit -- so a
    // caller can resume from where the simulation actually paused.
    Simulator sim;
    std::vector<int> log;
    EventFunctionWrapper stopper([&] { sim.stop(); }, "stopper");
    TraceEvent late(log, 9);
    sim.schedule(stopper, 5);
    sim.schedule(late, 7);
    Tick t = sim.runUntil(100);
    EXPECT_EQ(t, 5u);
    EXPECT_EQ(sim.curTick(), 5u);
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(sim.hasPendingEvents());
    sim.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{9}));
    EXPECT_EQ(sim.curTick(), 100u);
}

TEST(OneShotPool, FiresOnceAndRecycles)
{
    Simulator sim;
    OneShotPool pool(sim, "test");
    std::vector<int> log;
    pool.schedule(10, [&] { log.push_back(1); });
    pool.schedule(20, [&] { log.push_back(2); });
    pool.schedule(20, [&] { log.push_back(3); });
    EXPECT_EQ(pool.pending(), 3u);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(pool.pending(), 0u);
    EXPECT_EQ(pool.freeCount(), 3u);

    // Steady state reuses the free list instead of allocating.
    pool.schedule(5, [&] { log.push_back(4); });
    EXPECT_EQ(pool.pending(), 1u);
    EXPECT_EQ(pool.freeCount(), 2u);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(pool.freeCount(), 3u);
}

TEST(OneShotPool, OwnerDestructionCancelsPendingShots)
{
    Simulator sim;
    std::vector<int> log;
    TraceEvent survivor(log, 1);
    {
        OneShotPool pool(sim, "doomed");
        pool.schedule(10, [&] { log.push_back(99); });
        pool.schedule(30, [&] { log.push_back(98); });
        EXPECT_EQ(pool.pending(), 2u);
    } // owner dies with shots in flight
    sim.schedule(survivor, 20);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(sim.curTick(), 20u);
}

TEST(OneShotPool, ShotMayRearmFromItsOwnCallback)
{
    // A shot's callback scheduling another shot is the common
    // self-perpetuating pattern (retry loops); the recycled slot must
    // be safely reusable from inside the firing callback.
    Simulator sim;
    OneShotPool pool(sim, "rearm");
    int fired = 0;
    std::function<void()> tick = [&] {
        ++fired;
        if (fired < 5)
            pool.schedule(10, tick);
    };
    pool.schedule(10, tick);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(pool.pending(), 0u);
    // The chain reused one recycled slot instead of allocating five.
    EXPECT_EQ(pool.freeCount(), 1u);
}

// ------------------------------------------------------- queue consistency

TEST(EventQueueAudit, ConsistentThroughoutMixedWorkload)
{
    // The structural audit must hold at every point of a workload
    // that exercises both calendar buckets and the overflow heap
    // (far-future events), plus deschedules and reschedules.
    Simulator sim;
    Rng rng(7, "audit");
    std::deque<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 200; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [] {}, "audit_ev"));
        Tick when = static_cast<Tick>(rng.next() %
                                      (i % 3 == 0 ? 1000000000ULL
                                                  : 1000ULL));
        sim.schedule(*events.back(), sim.curTick() + when);
        if (i % 7 == 0 && events.size() > 3) {
            auto &victim = *events[events.size() / 2];
            if (victim.scheduled())
                sim.deschedule(victim);
        }
        if (i % 20 == 0)
            EXPECT_EQ(sim.eventQueue().auditConsistency(), "");
    }
    EXPECT_EQ(sim.eventQueue().auditConsistency(), "");
    sim.run();
    EXPECT_EQ(sim.eventQueue().auditConsistency(), "");
}

TEST(EventQueueAudit, BothBackendsPassWhenPopulated)
{
    for (auto backend : {EventQueue::Backend::calendar,
                         EventQueue::Backend::binaryHeap}) {
        Simulator sim(backend);
        std::vector<std::unique_ptr<EventFunctionWrapper>> events;
        for (int i = 0; i < 50; ++i) {
            events.push_back(std::make_unique<EventFunctionWrapper>(
                [] {}, "ev"));
            sim.schedule(*events.back(),
                         static_cast<Tick>(i) * 37 % 500);
        }
        EXPECT_EQ(sim.eventQueue().auditConsistency(), "");
        sim.run();
        EXPECT_EQ(sim.eventQueue().auditConsistency(), "");
    }
}
