/**
 * @file
 * Heap budget of plant construction. This binary replaces the global
 * operator new/delete with counting wrappers around malloc/free, then
 * builds a 1,000-server plant configured like perfbench's
 * warehouse_100k (4 cores, delay-timer governors on a 100 us timer
 * wheel) and bounds the bytes and allocations its construction
 * requests per server. A footprint regression then fails here, not
 * only in a benchmark's peak RSS. It records the sizes of the two
 * blocks a server is made of and checks that building one requests
 * exactly those two. It also bounds the bytes one
 * dispatch requests, which must not grow with the fleet, checks
 * that an empty local queue requests none, checks that a server
 * builds its cores' busy state on its first task and never again,
 * and bounds the allocations of a stats dump, which must not grow
 * with the fleet either, checks that a bare Simulator allocates no
 * more than its event queue at any timer granularity, and that an
 * idle plant run to drain processes no kernel event. Last, it bounds
 * the allocations of one job on a warmed-up three-tier plant, from
 * building the job to shipping its results, which reuses the
 * scheduler's job slots, and records the kernel events per job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <streambuf>
#include <vector>

#include "dc/datacenter.hh"
#include "exp/parallel_for.hh"
#include "network/network.hh"
#include "server/local_scheduler.hh"
#include "server/server.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"
#include "workload/service.hh"

namespace {

bool counting = false;
std::size_t bytesRequested = 0;
std::size_t allocations = 0;
/** Counts requests of exactly watchedSize bytes while counting. */
std::size_t watchedSize = 0;
std::size_t watchedHits = 0;

void *
countedAlloc(std::size_t n)
{
    if (counting) {
        bytesRequested += n;
        ++allocations;
        watchedHits += n == watchedSize;
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form is replaced, so new/delete pairs stay matched
// under ASan's allocation-mismatch check.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace holdcsim;

namespace {

/** A 4-core, delay-timer, 100 us wheel plant like warehouse_100k. */
DataCenterConfig
wheelPlant(std::size_t servers)
{
    DataCenterConfig cfg;
    cfg.nServers = servers;
    cfg.nCores = 4;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 50 * msec;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    cfg.timerMode = DataCenterConfig::TimerMode::wheel;
    cfg.wheelGranularity = 100 * usec;
    return cfg;
}

} // namespace

TEST(AllocBudget, WheelPlantConstructionPerServer)
{
    constexpr std::size_t servers = 1000;
    const DataCenterConfig cfg = wheelPlant(servers);

    bytesRequested = allocations = 0;
    counting = true;
    auto dc = std::make_unique<DataCenter>(cfg);
    counting = false;

    ASSERT_EQ(dc->numServers(), servers);
    // No core has run a task, so no server holds busy state. (Asked
    // directly: a Server can be as large as a 4-core busy block.)
    for (std::size_t i = 0; i < servers; ++i)
        EXPECT_FALSE(dc->server(i).holdsBusyBlock()) << "server " << i;
    // The servers and their core slots live in the fleet block, which
    // is mapped, not allocated: its bytes count here too. So do the
    // simulator's deferred-timer list and horizon array, which come
    // from calloc (ZeroedAllocator), not operator new.
    const double fleetPerServer =
        static_cast<double>(dc->fleetBytes()) / servers;
    const std::size_t registry = dc->sim().deferred().capacity() *
                                 (sizeof(DeferredTimers *) + sizeof(Tick));
    const double perServer =
        static_cast<double>(bytesRequested + dc->fleetBytes() + registry) /
        servers;
    const double allocsPerServer =
        static_cast<double>(allocations) / servers;
    RecordProperty("bytes_per_server", static_cast<int>(perServer));
    RecordProperty("fleet_bytes_per_server",
                   static_cast<int>(fleetPerServer));
    char allocs[32];
    std::snprintf(allocs, sizeof allocs, "%.3f", allocsPerServer);
    RecordProperty("allocations_per_server", allocs);
    // A server and its core slots are one stride of the fleet block
    // (the delay timer is two fields of the server); the fleet vectors
    // add a fraction more, and no server allocates. No timer is armed:
    // idle ladders are computed, not scheduled.
    EXPECT_GE(fleetPerServer, sizeof(Server) + CorePool::slotBlockBytes(4));
    EXPECT_LE(perServer, 680.0)
        << allocations << " allocations, " << bytesRequested << " bytes, "
        << dc->fleetBytes() << " fleet bytes, " << registry
        << " registry bytes";
    // 13 allocations for 1,000 servers: the fleet vectors are sized
    // once. A fleet under two 2 MiB extents builds on this thread; a
    // build worker would add at least two (its state and the vector
    // of threads).
    EXPECT_LE(allocsPerServer, 0.0153)
        << allocations << " allocations, " << bytesRequested << " bytes";
}

TEST(AllocBudget, ServerLayoutBytes)
{
    // What a server is made of: its own object and one block of core
    // slots. Their sizes are bounded at compile time next to the types
    // (server.hh, core.hh, and event.hh for the wake event a server
    // embeds); CI's footprint summary prints what is recorded here.
    RecordProperty("server_bytes", static_cast<int>(sizeof(Server)));
    RecordProperty("core_slot_bytes",
                   static_cast<int>(CorePool::slotBlockBytes(1)));
    RecordProperty("event_bytes", static_cast<int>(sizeof(Event)));
    RecordProperty("server_stride_bytes",
                   static_cast<int>(sizeof(Server) +
                                    CorePool::slotBlockBytes(4)));

    // Building a 4-core server with a shared profile and a delay timer
    // requests exactly those two blocks. (The simulator's deferred-
    // timer list and horizon array are calloc'd, not counted here.)
    Simulator sim(EventQueue::Backend::calendar, 100 * usec);
    const auto profile = std::make_shared<const ServerPowerProfile>();
    ServerConfig cfg;
    cfg.nCores = 4;
    std::vector<std::unique_ptr<Server>> fleet;
    for (unsigned i = 0; i < 1000; ++i)
        fleet.push_back(std::make_unique<Server>(sim, cfg, profile));
    fleet.reserve(fleet.size() + 1);
    bytesRequested = allocations = 0;
    counting = true;
    fleet.push_back(std::make_unique<Server>(sim, cfg, profile));
    fleet.back()->setDelayTimer(50 * msec);
    counting = false;
    EXPECT_EQ(allocations, 2u);
    EXPECT_EQ(bytesRequested,
              sizeof(Server) + CorePool::slotBlockBytes(cfg.nCores));
}

TEST(AllocBudget, IdleFleetSchedulesNothing)
{
    // The same plant with no jobs: every server walks its core C-state
    // ladder and suspends tau after construction, yet an idle server
    // costs nothing between interactions: no kernel event. The
    // drained run still ends at the last suspend, tau.
    const DataCenterConfig cfg = wheelPlant(1000);
    DataCenter dc(cfg);
    EXPECT_EQ(dc.run(), cfg.delayTimerTau);
    const Simulator &sim = dc.sim();
    RecordProperty("idle_plant_events",
                   static_cast<int>(sim.eventsProcessed()));
    EXPECT_EQ(sim.eventsProcessed(), 0u);
    for (std::size_t i = 0; i < dc.numServers(); ++i) {
        ASSERT_TRUE(dc.server(i).isAsleep()) << "server " << i;
        ASSERT_EQ(dc.server(i).sleepTransitions(), 1u) << "server " << i;
    }
}

TEST(AllocBudget, FirstTaskBuildsBusyStateOnce)
{
    Simulator sim(EventQueue::Backend::calendar, 100 * usec);
    ServerConfig cfg;
    cfg.nCores = 4;
    Server server(sim, cfg, ServerPowerProfile{});
    const TaskRef task{1, 0, 5 * msec, 1.0, 0};
    watchedSize = CorePool::busyBlockBytes(cfg.nCores);
    RecordProperty("busy_block_bytes", static_cast<int>(watchedSize));

    // Paths that never start a task build no busy state.
    watchedHits = 0;
    counting = true;
    sim.runUntil(1 * msec);
    server.fail();
    server.repair();
    server.cancelTask(task.job, task.task);
    server.sleep(SState::s3);
    server.wakeUp();
    sim.run(); // the wake completes and the cores settle in C6
    counting = false;
    EXPECT_EQ(watchedHits, 0u);

    // The first task builds the block for all four cores, and the
    // server holds it only while a core runs ...
    counting = true;
    server.submit(task);
    counting = false;
    EXPECT_EQ(watchedHits, 1u);
    EXPECT_TRUE(server.holdsBusyBlock());
    sim.run();
    ASSERT_EQ(server.tasksCompleted(), 1u);
    EXPECT_FALSE(server.holdsBusyBlock());
    EXPECT_EQ(sim.blockCache().spares(), 1u);

    // ... and neither a second task nor a full server builds another:
    // they take the one the first handed back.
    counting = true;
    for (TaskId t = 1; t <= 5; ++t)
        server.submit(TaskRef{2, t, 5 * msec, 1.0, 0});
    sim.run();
    counting = false;
    EXPECT_EQ(watchedHits, 1u);
    EXPECT_EQ(server.tasksCompleted(), 6u);
    EXPECT_FALSE(server.holdsBusyBlock());
}

TEST(AllocBudget, BusyBlocksFollowPeakNotFleet)
{
    // One 2 ms task on each of the first 1,000 servers of a 2,000-
    // server plant in turn, one every millisecond: with the 0.7 ms of
    // core and package C6 exit, at most three servers are busy at
    // once, so three busy blocks serve all 1,000.
    // The drained run re-evaluates the horizons of the servers the
    // tasks touched and no other.
    constexpr std::size_t servers = 2000;
    constexpr std::size_t touched = 1000;
    DataCenter dc(wheelPlant(servers));
    SingleTaskGenerator gen(std::make_shared<FixedService>(2 * msec));
    std::vector<Tick> arrivals;
    for (std::size_t i = 0; i < touched; ++i)
        arrivals.push_back(i * msec);
    dc.pumpTrace(std::move(arrivals), gen);

    watchedSize = CorePool::busyBlockBytes(4);
    watchedHits = 0;
    const std::uint64_t refreshes = dc.sim().horizonRefreshes();
    counting = true;
    const Tick end = dc.run();
    counting = false;
    const std::uint64_t drained = dc.sim().horizonRefreshes() - refreshes;
    RecordProperty("busy_blocks_built", static_cast<int>(watchedHits));
    RecordProperty("drain_horizon_refreshes", static_cast<int>(drained));
    EXPECT_EQ(watchedHits, 3u);
    EXPECT_EQ(dc.sim().blockCache().spares(), 3u);
    EXPECT_EQ(drained, touched);
    for (std::size_t i = 0; i < servers; ++i) {
        ASSERT_EQ(dc.server(i).tasksCompleted(), i < touched ? 1u : 0u)
            << "server " << i;
        ASSERT_FALSE(dc.server(i).holdsBusyBlock()) << "server " << i;
    }
    // The last server suspends tau after its task.
    EXPECT_GT(end, (touched - 1) * msec + 2 * msec + 50 * msec);
}

TEST(AllocBudget, BareSimulatorAllocatesNoWheelRing)
{
    // Every Simulator owns a timer wheel, which only places deadlines:
    // at any granularity a bare Simulator requests no more heap than
    // its event queue.
    const auto bytesOf = [](auto build) {
        bytesRequested = allocations = 0;
        counting = true;
        build();
        counting = false;
        return bytesRequested;
    };
    const std::size_t queue = bytesOf([] { EventQueue q; });
    const std::size_t exact = bytesOf([] { Simulator sim; });
    const std::size_t coarse = bytesOf(
        [] { Simulator sim(EventQueue::Backend::calendar, 100 * usec); });
    EXPECT_EQ(exact, queue);
    EXPECT_EQ(coarse, queue);
}

TEST(AllocBudget, EmptyLocalSchedulerRequestsNoHeap)
{
    for (LocalQueueMode mode :
         {LocalQueueMode::unified, LocalQueueMode::perCore}) {
        bytesRequested = allocations = 0;
        counting = true;
        LocalScheduler local(mode, CorePickPolicy::leastLoaded, 4);
        counting = false;
        EXPECT_EQ(bytesRequested, 0u) << static_cast<int>(mode);
        EXPECT_EQ(local.pending(), 0u);
        EXPECT_FALSE(local.hasWorkFor(3));
    }
}

namespace {

/** Heap bytes per job that submitJob requests on a round-robin fleet
 *  of @p servers, for @p jobs single-task jobs arriving at tick 0. */
double
dispatchBytesPerJob(std::size_t servers, std::size_t jobs)
{
    DataCenterConfig cfg;
    cfg.nServers = servers;
    cfg.nCores = 4;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    DataCenter dc(cfg);

    std::vector<Job> batch;
    for (JobId id = 0; id <= jobs; ++id) {
        Job j(id, 0);
        j.addTask(TaskSpec{10 * msec, 0, 1.0});
        j.validate();
        batch.push_back(std::move(j));
    }
    // The first dispatch builds the per-type candidate list, O(N)
    // once; keep it out of the per-job count.
    dc.scheduler().submitJob(std::move(batch[0]));
    bytesRequested = allocations = 0;
    counting = true;
    for (std::size_t i = 1; i <= jobs; ++i)
        dc.scheduler().submitJob(std::move(batch[i]));
    counting = false;
    return static_cast<double>(bytesRequested) / jobs;
}

} // namespace

TEST(AllocBudget, DispatchHeapIsIndependentOfFleetSize)
{
    const double small = dispatchBytesPerJob(1000, 500);
    const double large = dispatchBytesPerJob(10000, 500);
    RecordProperty("bytes_per_job_1k", static_cast<int>(small));
    RecordProperty("bytes_per_job_10k", static_cast<int>(large));
    EXPECT_LE(std::abs(large - small), 64.0)
        << small << " B/job at 1,000 servers, " << large
        << " B/job at 10,000";
}

namespace {

/** Discards what it is given, so only dumpStats itself allocates. */
class NullBuf : public std::streambuf
{
  protected:
    int_type overflow(int_type c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** Heap allocations of one dumpStats on a @p servers wheel plant. */
std::size_t
statsDumpAllocations(std::size_t servers)
{
    DataCenter dc(wheelPlant(servers));
    SingleTaskGenerator gen(std::make_shared<FixedService>(5 * msec));
    dc.pumpTrace({0, 1 * msec, 2 * msec}, gen);
    dc.run();
    NullBuf sink;
    std::ostream os(&sink);
    allocations = 0;
    counting = true;
    dc.dumpStats(os);
    counting = false;
    return allocations;
}

} // namespace

TEST(AllocBudget, StatsDumpAllocationsDoNotScaleWithServers)
{
    // Both plants take the same dump path with the same worker count
    // and fill every buffer of its ring: two chunks of servers per
    // hardware thread at least.
    const std::size_t servers = std::max<std::size_t>(
        1000, 2 * DataCenter::statsChunkServers * defaultWorkers());
    const std::size_t small = statsDumpAllocations(servers);
    const std::size_t large = statsDumpAllocations(4 * servers);
    RecordProperty("stats_dump_allocations", static_cast<int>(large));
    // The server rows go through a ring of two reused buffers per dump
    // worker; beyond the workers' threads and buffers, only the fixed
    // groups allocate.
    const unsigned workers = defaultWorkers() - 1;
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 16u + 4u * workers);
}

namespace {

/** What one job of the three-tier plant costs. */
struct ThreeTierJobCost {
    /** Heap allocations per measured job. */
    double allocations = 0.0;
    /** Kernel events per job over the whole run. */
    double events = 0.0;
};

/**
 * The perfbench three_tier plant at small scale: 12 servers typed
 * web/app/db behind one star switch, least-loaded dispatch, Poisson
 * web -> app -> db chains whose two edges ship 64 KB over the fabric.
 * After @p warmup jobs have arrived, counts the heap allocations made
 * while the next @p measured arrive, per job: building each job,
 * dispatching its tasks, running them and shipping both results.
 */
ThreeTierJobCost
threeTierJobCost(std::size_t warmup, std::size_t measured)
{
    Simulator sim;
    Network net(sim, Topology::star(12, 1e9, 5 * usec),
                SwitchPowerProfile::cisco2960_24());
    ServerPowerProfile profile;
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> fleet;
    for (unsigned i = 0; i < 12; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 4;
        cfg.taskTypes = {1 + static_cast<int>(i / 4)};
        owned.push_back(std::make_unique<Server>(sim, cfg, profile));
        fleet.push_back(owned.back().get());
    }
    GlobalScheduler sched(sim, fleet, std::make_unique<LeastLoadedPolicy>(),
                          GlobalSchedulerConfig{}, &net);
    ChainJobGenerator gen(
        {std::make_shared<ExponentialService>(1 * msec, Rng(1, "web")),
         std::make_shared<ExponentialService>(4 * msec, Rng(1, "app")),
         std::make_shared<ExponentialService>(8 * msec, Rng(1, "db"))},
        {1, 2, 3}, 64 * 1024);
    PoissonArrival arrivals(600.0, Rng(1, "arrivals"));

    std::size_t arrived = 0;
    std::function<void()> onArrival;
    EventFunctionWrapper arrive([&] { onArrival(); }, "pump.arrival");
    onArrival = [&] {
        // Count from arrival number warmup to arrival number
        // warmup + measured, each time before the job is built.
        if (arrived == warmup) {
            allocations = 0;
            counting = true;
        } else if (arrived == warmup + measured) {
            counting = false;
            return;
        }
        ++arrived;
        sched.submitJob(gen.makeJob(sim.curTick()));
        sim.schedule(arrive,
                     std::max(sim.curTick(), arrivals.nextArrival()));
    };
    sim.schedule(arrive, arrivals.nextArrival());
    sim.run();
    counting = false;
    EXPECT_EQ(sched.jobsCompleted(), warmup + measured);
    return {static_cast<double>(allocations) / measured,
            static_cast<double>(sim.eventsProcessed()) /
                static_cast<double>(warmup + measured)};
}

} // namespace

TEST(AllocBudget, ThreeTierJobAllocations)
{
    const ThreeTierJobCost cost = threeTierJobCost(2000, 2000);
    const double perJob = cost.allocations;
    char text[32];
    std::snprintf(text, sizeof text, "%.2f", perJob);
    RecordProperty("allocations_per_three_tier_job", text);
    // Arrivals, completions and flow events: governor timers add none.
    std::snprintf(text, sizeof text, "%.2f", cost.events);
    RecordProperty("three_tier_events_per_job", text);
    // The job's three arrays (tasks, index, edge bytes; the edges wait
    // in the index until validate()) and the amortized growth of the
    // latency samples. Job and flow state, routes and transfer
    // callbacks reuse warm memory; one more allocation per job or per
    // flow fails here.
    EXPECT_LE(perJob, 4.0);
}
