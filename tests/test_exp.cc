/**
 * @file
 * Tests for the experiment layer: parallelFor and orderedPipeline
 * (nested calls run inline), the campaign runner's grid
 * (deterministic replica seeding, parallel == sequential), sweep
 * expansion and cross-replica aggregation.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/aggregate.hh"
#include "exp/campaign.hh"
#include "exp/parallel_for.hh"
#include "exp/sweep.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

// ------------------------------------------------------------ parallelFor

TEST(ParallelFor, DefaultWorkersHonoursAffinity)
{
    // Pin a thread of its own (not the test process) to the first CPU
    // it may run on: one CPU means one worker.
    unsigned pinned = 0;
    int rc = -1;
    std::thread([&] {
        cpu_set_t cpus;
        CPU_ZERO(&cpus);
        ASSERT_EQ(sched_getaffinity(0, sizeof cpus, &cpus), 0);
        int first = 0;
        while (!CPU_ISSET(first, &cpus))
            ++first;
        CPU_ZERO(&cpus);
        CPU_SET(first, &cpus);
        rc = pthread_setaffinity_np(pthread_self(), sizeof cpus, &cpus);
        pinned = defaultWorkers();
    }).join();
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_GE(defaultWorkers(), 1u);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (unsigned workers : {1u, 4u, 64u}) {
        std::vector<std::atomic<int>> seen(50);
        parallelFor(workers, seen.size(),
                    [&](std::size_t i) { ++seen[i]; });
        for (const std::atomic<int> &s : seen)
            EXPECT_EQ(s.load(), 1) << "workers=" << workers;
    }
    int calls = 0;
    parallelFor(4, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RunsEveryIndexOfALargeGrid)
{
    std::atomic<int> hits{0};
    parallelFor(4, 1000, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 1000);
}

TEST(ParallelFor, SingleWorkerRunsInlineInIndexOrder)
{
    // workers == 1 is the sequential reference: the calling thread,
    // index order, no other threads.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(1, 100, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ThrowingIndexDoesNotStopOthers)
{
    // Every index still runs, and the exception rethrown after the
    // join is the lowest throwing index's -- whatever the completion
    // order, at every worker count.
    for (unsigned workers : {1u, 4u}) {
        std::atomic<int> hits{0};
        try {
            parallelFor(workers, 200, [&](std::size_t i) {
                if (i % 10 == 3)
                    throw std::runtime_error("boom " + std::to_string(i));
                ++hits;
            });
            FAIL() << "expected a rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 3") << "workers=" << workers;
        }
        EXPECT_EQ(hits.load(), 180) << "workers=" << workers;
    }
}

TEST(ParallelFor, NestedCallRunsOnTheOuterWorker)
{
    // A call from a worker thread (a campaign cell that dumps a big
    // fleet's stats) runs inline on that worker, in index order,
    // instead of starting threads of its own.
    EXPECT_FALSE(inParallelWorker());
    std::vector<std::vector<std::size_t>> order(8);
    std::vector<int> foreign(8, 0);
    parallelFor(4, order.size(), [&](std::size_t i) {
        EXPECT_TRUE(inParallelWorker());
        const std::thread::id outer = std::this_thread::get_id();
        parallelFor(4, 10, [&](std::size_t j) {
            foreign[i] += std::this_thread::get_id() != outer;
            order[i].push_back(j);
        });
    });
    EXPECT_FALSE(inParallelWorker());
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(foreign[i], 0) << "outer index " << i;
        ASSERT_EQ(order[i].size(), 10u);
        for (std::size_t j = 0; j < 10; ++j)
            EXPECT_EQ(order[i][j], j);
    }
}

// ------------------------------------------------------- orderedPipeline

TEST(OrderedPipeline, ConsumesEveryChunkInOrderOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned workers : {0u, 1u, 3u, 8u}) {
        for (std::size_t slots : {1u, 2u, 6u}) {
            std::vector<std::size_t> buffer(slots, 0);
            std::atomic<int> in_flight{0};
            std::atomic<int> peak{0};
            std::vector<std::size_t> order;
            orderedPipeline(
                workers, 300, slots,
                [&](std::size_t i, std::size_t slot) {
                    const int now = ++in_flight;
                    int seen = peak.load();
                    while (now > seen && !peak.compare_exchange_weak(seen, now))
                        ;
                    buffer[slot] = i;
                },
                [&](std::size_t i, std::size_t slot) {
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                    EXPECT_EQ(slot, i % slots);
                    EXPECT_EQ(buffer[slot], i);
                    order.push_back(i);
                    --in_flight;
                });
            const std::string at = "workers=" + std::to_string(workers) +
                                   " slots=" + std::to_string(slots);
            ASSERT_EQ(order.size(), 300u) << at;
            for (std::size_t i = 0; i < order.size(); ++i)
                EXPECT_EQ(order[i], i) << at;
            // A chunk waits for its slot: never more than `slots`
            // produced and not yet consumed.
            EXPECT_LE(peak.load(), static_cast<int>(slots)) << at;
        }
    }
    int calls = 0;
    orderedPipeline(
        3, 0, 2, [&](std::size_t, std::size_t) { ++calls; },
        [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(OrderedPipeline, ThrowRethrowsLowestChunkWithoutHanging)
{
    // A throwing produce (a server's finishStats failing on a dump
    // worker) reaches the caller once the threads have joined: the
    // lowest throwing chunk's exception, after every chunk below it
    // was consumed in order, at every worker and slot count.
    for (unsigned workers : {0u, 1u, 3u, 8u}) {
        for (std::size_t slots : {1u, 2u, 6u}) {
            std::vector<std::size_t> consumed;
            try {
                orderedPipeline(
                    workers, 400, slots,
                    [&](std::size_t i, std::size_t) {
                        if (i >= 37 && i % 5 == 2)
                            throw std::runtime_error("boom " +
                                                     std::to_string(i));
                    },
                    [&](std::size_t i, std::size_t) {
                        consumed.push_back(i);
                    });
                FAIL() << "expected a rethrow";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "boom 37")
                    << "workers=" << workers << " slots=" << slots;
            }
            ASSERT_EQ(consumed.size(), 37u);
            for (std::size_t i = 0; i < consumed.size(); ++i)
                EXPECT_EQ(consumed[i], i);
        }
    }
}

TEST(OrderedPipeline, ThrowingConsumeStopsTheWorkers)
{
    for (unsigned workers : {0u, 3u}) {
        std::atomic<std::size_t> produced{0};
        try {
            orderedPipeline(
                workers, 1000, 4,
                [&](std::size_t, std::size_t) { ++produced; },
                [&](std::size_t i, std::size_t) {
                    if (i == 10)
                        throw std::runtime_error("sink full");
                });
            FAIL() << "expected a rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "sink full");
        }
        // Chunks 0..10 were produced; at most `slots` more started.
        EXPECT_GE(produced.load(), 11u);
        EXPECT_LE(produced.load(), 11u + 4u) << "workers=" << workers;
    }
}

TEST(OrderedPipeline, NestedCallRunsInline)
{
    std::vector<int> foreign(4, 0);
    parallelFor(4, foreign.size(), [&](std::size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        std::size_t next = 0;
        orderedPipeline(
            3, 20, 2,
            [&](std::size_t c, std::size_t) {
                foreign[i] += std::this_thread::get_id() != outer;
                foreign[i] += c != next;
            },
            [&](std::size_t, std::size_t) { ++next; });
        EXPECT_EQ(next, 20u);
    });
    for (int f : foreign)
        EXPECT_EQ(f, 0);
}

TEST(ParallelFor, ManySimulatorsInParallel)
{
    // The whole point: independent Simulators are shared-nothing and
    // race-free when run concurrently.
    std::vector<std::uint64_t> events(32, 0);
    parallelFor(0, events.size(), [&](std::size_t i) {
        Simulator sim;
        std::uint64_t count = 0;
        EventFunctionWrapper tick(
            [&] {
                if (++count < 5000)
                    sim.scheduleAfter(tick, 1);
            },
            "tick");
        sim.schedule(tick, 0);
        sim.run();
        events[i] = sim.eventsProcessed();
    });
    for (std::uint64_t e : events)
        EXPECT_EQ(e, 5000u);
}

// --------------------------------------------------------- replica seeding

TEST(ReplicaSeed, ZeroKeepsBaseSeed)
{
    EXPECT_EQ(replicaSeed(42, 0), 42u);
    EXPECT_EQ(replicaSeed(7, 0), 7u);
}

TEST(ReplicaSeed, DistinctAcrossReplicasAndSeeds)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {1ULL, 42ULL, 0xdeadbeefULL}) {
        for (std::uint64_t r = 0; r < 64; ++r)
            seen.insert(replicaSeed(base, r));
    }
    EXPECT_EQ(seen.size(), 3u * 64u);
}

TEST(ReplicaSeed, StreamsAreUncorrelated)
{
    Rng a(replicaSeed(9, 1), "x"), b(replicaSeed(9, 2), "x");
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LE(same, 1);
}

// ------------------------------------------------------- the grid runner

namespace {

/** A small stochastic "simulation": deterministic given its seed. */
MetricRow
fakeRun(std::size_t point, std::size_t, std::uint64_t seed,
        const ReplicaLimits & = {})
{
    Rng rng(seed, "fake");
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i)
        acc += rng.exponential(1.0 + static_cast<double>(point));
    return {{"acc", acc}, {"draws", 1000.0}};
}

/** Run a points x replicas grid of @p fn with one attempt per cell. */
CampaignResult
runGrid(unsigned jobs, std::size_t points, std::size_t replicas,
        std::uint64_t base_seed,
        const CampaignRunner::RunFn &fn = fakeRun)
{
    CampaignOptions opts;
    opts.jobs = jobs;
    opts.replicas = replicas;
    opts.baseSeed = base_seed;
    opts.retry.maxAttempts = 1;
    return CampaignRunner(opts).run(points, "grid", fn);
}

} // namespace

TEST(CampaignGrid, ParallelIdenticalToSequential)
{
    auto a = runGrid(1, 3, 8, 1234).records;
    auto b = runGrid(8, 3, 8, 1234).records;
    ASSERT_EQ(a.size(), 24u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].point, b[i].point);
        EXPECT_EQ(a[i].replica, b[i].replica);
        EXPECT_EQ(a[i].seed, b[i].seed);
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
            EXPECT_EQ(a[i].metrics[m].first, b[i].metrics[m].first);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(a[i].metrics[m].second, b[i].metrics[m].second);
        }
    }
}

TEST(CampaignGrid, RecordsArriveInGridOrder)
{
    auto records = runGrid(4, 2, 3, 1).records;
    ASSERT_EQ(records.size(), 6u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].point, i / 3);
        EXPECT_EQ(records[i].replica, i % 3);
    }
}

TEST(CampaignGrid, ThrowingReplicaQuarantinesOnlyThatCell)
{
    setQuiet(true);
    CampaignResult res = runGrid(
        4, 2, 3, 5,
        [](std::size_t point, std::size_t replica, std::uint64_t seed,
           const ReplicaLimits &) {
            if (point == 1 && replica == 1)
                throw std::runtime_error("replica died");
            return fakeRun(point, replica, seed);
        });
    setQuiet(false);
    // One attempt per cell: the throwing cell is quarantined at once,
    // every other cell completes.
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].point, 1u);
    EXPECT_EQ(res.quarantined[0].replica, 1u);
    EXPECT_EQ(res.quarantined[0].error, "replica died");
    EXPECT_EQ(res.retries, 0u);
    ASSERT_EQ(res.records.size(), 5u);
    for (const ReplicaRecord &r : res.records) {
        EXPECT_FALSE(r.point == 1 && r.replica == 1);
        EXPECT_FALSE(r.metrics.empty());
    }

    // The quarantined cell contributes no samples to the aggregate.
    ResultTable table;
    tabulate(res.records, table);
    EXPECT_EQ(table.values(1, "acc").size(), 2u);
    EXPECT_EQ(table.values(0, "acc").size(), 3u);
}

TEST(CampaignGrid, SameReplicaSameSeedAcrossPoints)
{
    auto records = runGrid(2, 2, 2, 99).records;
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].seed, records[2].seed);
    EXPECT_EQ(records[1].seed, records[3].seed);
    EXPECT_NE(records[0].seed, records[1].seed);
}

// -------------------------------------------------------------------- sweep

TEST(SweepSpec, EmptySweepIsOnePoint)
{
    SweepSpec spec;
    EXPECT_EQ(spec.numPoints(), 1u);
    EXPECT_TRUE(spec.point(0).assignments.empty());
    EXPECT_EQ(spec.point(0).label(), "");
}

TEST(SweepSpec, CrossProductExpansion)
{
    SweepSpec spec;
    spec.add("a", {"1", "2", "3"});
    spec.add("b", {"x", "y"});
    ASSERT_EQ(spec.numPoints(), 6u);
    // Last key varies fastest (odometer order).
    EXPECT_EQ(spec.point(0).label(), "a=1 b=x");
    EXPECT_EQ(spec.point(1).label(), "a=1 b=y");
    EXPECT_EQ(spec.point(2).label(), "a=2 b=x");
    EXPECT_EQ(spec.point(5).label(), "a=3 b=y");
}

TEST(SweepSpec, AddFlagParsesKeyAndValues)
{
    SweepSpec spec;
    spec.addFlag("server.tau_ms=250, 500,1000");
    ASSERT_EQ(spec.numPoints(), 3u);
    EXPECT_EQ(spec.point(1).label(), "server.tau_ms=500");
}

TEST(SweepSpec, FromConfigPicksUpSweepSection)
{
    Config cfg = Config::parseString(
        "[sweep]\n"
        "datacenter.servers = 10, 20\n"
        "server.tau_ms = 100, 200\n");
    SweepSpec spec = SweepSpec::fromConfig(cfg);
    EXPECT_EQ(spec.numKeys(), 2u);
    EXPECT_EQ(spec.numPoints(), 4u);
}

TEST(SweepSpec, ApplyOverridesConfig)
{
    Config cfg = Config::parseString(
        "[datacenter]\nservers = 5\n[sweep]\ndatacenter.servers = 10, 20\n");
    SweepSpec spec = SweepSpec::fromConfig(cfg);
    Config point1 = cfg;
    spec.apply(point1, 1);
    EXPECT_EQ(point1.getInt("datacenter.servers"), 20);
    EXPECT_EQ(cfg.getInt("datacenter.servers"), 5);
}

// -------------------------------------------------------------- aggregation

TEST(Aggregate, SummaryMeanStddevCi)
{
    Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_EQ(s.n, 8u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_NEAR(s.stddev, 2.138, 0.001);
    // t(7, 0.975) = 2.365; ci = t * s / sqrt(n)
    EXPECT_NEAR(s.ci95, 2.365 * s.stddev / std::sqrt(8.0), 1e-9);
}

TEST(Aggregate, SummaryDegenerateCases)
{
    EXPECT_EQ(summarize({}).n, 0u);
    Summary one = summarize({3.5});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 3.5);
    EXPECT_DOUBLE_EQ(one.stddev, 0.0);
    EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

TEST(Aggregate, ResultTableRoundTrip)
{
    ResultTable t;
    t.setPointLabel(0, "tau=250");
    t.add(0, 0, "latency", 1.5);
    t.add(0, 1, "latency", 2.5);
    t.add(0, 0, "energy", 10.0);
    EXPECT_EQ(t.numPoints(), 1u);
    auto vals = t.values(0, "latency");
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_DOUBLE_EQ(vals[0], 1.5);
    EXPECT_DOUBLE_EQ(vals[1], 2.5);
    Summary s = t.summary(0, "latency");
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
    ASSERT_EQ(t.metrics().size(), 2u);
    EXPECT_EQ(t.metrics()[0], "latency");
}

TEST(Aggregate, CsvIsStableAndRoundTrippable)
{
    ResultTable t;
    t.setPointLabel(0, "p");
    t.add(0, 0, "x", 1.0 / 3.0);
    std::ostringstream a, b;
    t.writeCsv(a);
    t.writeCsv(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("point,label,replica,metric,value\n"),
              std::string::npos);
    // Full-precision value: parsing it back yields the exact double.
    std::string line = a.str().substr(a.str().find('\n') + 1);
    std::string value = line.substr(line.rfind(',') + 1);
    EXPECT_EQ(std::stod(value), 1.0 / 3.0);
}

TEST(Aggregate, EngineTabulateFillsTable)
{
    auto records = runGrid(4, 2, 4, 7).records;
    ResultTable table;
    tabulate(records, table);
    EXPECT_EQ(table.numPoints(), 2u);
    EXPECT_EQ(table.values(0, "acc").size(), 4u);
    EXPECT_EQ(table.summary(1, "draws").mean, 1000.0);
}
