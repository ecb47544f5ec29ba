/**
 * @file
 * Tests for the container orchestration layer: placement policies,
 * live migration over the modeled fabric (dirty-page byte accounting,
 * downtime, aborts), co-location interference, remote-memory
 * penalties, crash rescheduling, task deferral, determinism, and the
 * no-[orch] byte-identity guarantee.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dc/datacenter.hh"
#include "orch/placement.hh"
#include "sim/logging.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

/** Total bytes the dirty-page model ships for one migration. */
Bytes
expectedMigrationBytes(Bytes mem, double dirty_frac, Bytes stop_copy,
                       unsigned max_rounds)
{
    Bytes total = 0;
    for (unsigned r = 0;; ++r) {
        auto bytes = static_cast<Bytes>(std::llround(
            static_cast<double>(mem) *
            std::pow(dirty_frac, static_cast<double>(r))));
        total += std::max<Bytes>(bytes, 1);
        if (bytes <= stop_copy || r + 1 >= max_rounds)
            return total;
    }
}

/** Baseline orchestration config: 8 x 4-core servers, no fabric. */
DataCenterConfig
orchConfig()
{
    DataCenterConfig cfg;
    cfg.nServers = 8;
    cfg.nCores = 4;
    cfg.seed = 11;
    cfg.orch.enabled = true;
    cfg.orch.replicas = 4;
    cfg.orch.containerCores = 1.0;
    return cfg;
}

std::string
dumpString(DataCenter &dc)
{
    std::ostringstream os;
    dc.dumpStats(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------------
// Placement policies (pure logic over handcrafted candidate views)
// ---------------------------------------------------------------------------

TEST(Placement, BinPackPicksFullestServer)
{
    auto policy = makePlacementPolicy("bin_pack");
    std::vector<ServerView> views{
        {0, 3.0, 100, 0, 1}, {1, 1.0, 100, 0, 3}, {2, 2.0, 100, 0, 2}};
    ContainerSpec spec;
    auto pick = policy->place(spec, views);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u); // least free cores
}

TEST(Placement, SpreadPicksEmptiestServer)
{
    auto policy = makePlacementPolicy("spread");
    std::vector<ServerView> views{
        {0, 1.0, 100, 0, 2}, {1, 4.0, 100, 0, 0}, {2, 2.0, 100, 0, 1}};
    ContainerSpec spec;
    auto pick = policy->place(spec, views);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u); // fewest containers
}

TEST(Placement, AffinityPrefersSameDeployment)
{
    auto policy = makePlacementPolicy("affinity");
    std::vector<ServerView> views{
        {0, 4.0, 100, 0, 0}, {1, 1.0, 100, 2, 3}, {2, 3.0, 100, 1, 1}};
    ContainerSpec spec;
    auto pick = policy->place(spec, views);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u); // most same-deployment neighbors
}

TEST(Placement, TiesBreakTowardLowestIndex)
{
    auto policy = makePlacementPolicy("bin_pack");
    std::vector<ServerView> views{
        {3, 2.0, 100, 0, 0}, {5, 2.0, 100, 0, 0}};
    ContainerSpec spec;
    EXPECT_EQ(policy->place(spec, views).value(), 3u);
    EXPECT_FALSE(policy->place(spec, {}).has_value());
}

TEST(Placement, UnknownPolicyIsFatal)
{
    EXPECT_THROW(makePlacementPolicy("best_fit"), FatalError);
}

// ---------------------------------------------------------------------------
// Placement through the orchestrator (occupancy shapes)
// ---------------------------------------------------------------------------

TEST(Orchestrator, BinPackConsolidatesSpreadDisperses)
{
    {
        DataCenterConfig cfg = orchConfig();
        cfg.orch.placement = "bin_pack";
        DataCenter dc(cfg);
        Orchestrator &orch = *dc.orchestrator();
        ASSERT_EQ(orch.numContainers(), 4u);
        // 4 x 1-core replicas bin-pack onto the first 4-core server.
        EXPECT_EQ(orch.containersOn(0).size(), 4u);
        EXPECT_EQ(orch.stats().placements, 4u);
    }
    {
        DataCenterConfig cfg = orchConfig();
        cfg.orch.placement = "spread";
        DataCenter dc(cfg);
        Orchestrator &orch = *dc.orchestrator();
        for (std::size_t s = 0; s < 4; ++s)
            EXPECT_EQ(dc.orchestrator()->containersOn(s).size(), 1u)
                << "server " << s;
        EXPECT_EQ(orch.containersOn(4).size(), 0u);
    }
}

TEST(Orchestrator, AntiAffinityForcesDistinctServers)
{
    DataCenterConfig cfg = orchConfig();
    cfg.orch.placement = "bin_pack"; // would co-locate on its own
    cfg.orch.antiAffinity = true;
    DataCenter dc(cfg);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(dc.orchestrator()->containersOn(s).size(), 1u);
}

TEST(Orchestrator, PendingWhenNothingFits)
{
    DataCenterConfig cfg = orchConfig();
    cfg.nServers = 1;
    cfg.orch.replicas = 2;
    cfg.orch.containerCores = 3.0; // second replica cannot fit
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();
    EXPECT_EQ(orch.container(0).state, ContainerState::running);
    EXPECT_EQ(orch.container(1).state, ContainerState::pending);
    EXPECT_EQ(orch.stats().placements, 1u);
}

// ---------------------------------------------------------------------------
// Live migration
// ---------------------------------------------------------------------------

namespace {

/** Star-fabric config for migration tests. */
DataCenterConfig
migrationConfig()
{
    DataCenterConfig cfg = orchConfig();
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.orch.replicas = 1;
    cfg.orch.containerMemBytes = static_cast<Bytes>(32) << 20;
    cfg.orch.migrationDirtyFrac = 0.25;
    cfg.orch.migrationStopCopyBytes = static_cast<Bytes>(1) << 20;
    cfg.orch.migrationMaxRounds = 8;
    return cfg;
}

} // namespace

TEST(Orchestrator, MigrationBytesFollowDirtyPageModel)
{
    DataCenterConfig cfg = migrationConfig();
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();
    ASSERT_EQ(orch.container(0).server, 0u);

    ASSERT_TRUE(orch.migrate(0, 5));
    EXPECT_EQ(orch.container(0).state, ContainerState::migrating);
    dc.run();

    const Orchestrator::Stats &s = orch.stats();
    EXPECT_EQ(s.migrationsStarted, 1u);
    EXPECT_EQ(s.migrationsCompleted, 1u);
    EXPECT_EQ(s.migrationsAborted, 0u);
    EXPECT_EQ(s.migratedBytes,
              expectedMigrationBytes(cfg.orch.containerMemBytes,
                                     cfg.orch.migrationDirtyFrac,
                                     cfg.orch.migrationStopCopyBytes,
                                     cfg.orch.migrationMaxRounds));
    // The stop-and-copy window has nonzero, bounded duration.
    EXPECT_GT(s.totalDowntime, 0u);
    EXPECT_LT(toSeconds(s.totalDowntime), 1.0);

    const Container &c = orch.container(0);
    EXPECT_EQ(c.state, ContainerState::running);
    EXPECT_EQ(c.server, 5u);
    EXPECT_EQ(c.memHome, 0u); // memory home stays at first placement
    EXPECT_EQ(orch.containersOn(0).size(), 0u);
    EXPECT_EQ(orch.containersOn(5).size(), 1u);
}

TEST(Orchestrator, MigrationRejectsBadTargets)
{
    DataCenterConfig cfg = migrationConfig();
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();
    EXPECT_FALSE(orch.migrate(0, 0));   // already there
    EXPECT_FALSE(orch.migrate(0, 99));  // no such server
    EXPECT_EQ(orch.stats().migrationsStarted, 0u);
}

TEST(Orchestrator, MigrationAbortsCleanlyOnLinkFailure)
{
    DataCenterConfig cfg = migrationConfig();
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();
    Network &net = *dc.network();

    ASSERT_TRUE(orch.migrate(0, 5));
    // Sever the source's uplink mid-copy; the flow crossing it dies.
    Route r = net.routing().route(net.topology().serverNode(0),
                                  net.topology().serverNode(5));
    ASSERT_FALSE(r.links.empty());
    EXPECT_EQ(net.failLink(r.links.front()), 1u);

    const Orchestrator::Stats &s = orch.stats();
    EXPECT_EQ(s.migrationsAborted, 1u);
    EXPECT_EQ(s.migrationsCompleted, 0u);
    // The container fell back to its (healthy) source...
    const Container &c = orch.container(0);
    EXPECT_EQ(c.state, ContainerState::running);
    EXPECT_EQ(c.server, 0u);
    // ...and the destination reservation was released: after repair
    // the same migration succeeds.
    net.repairLink(r.links.front());
    ASSERT_TRUE(orch.migrate(0, 5));
    dc.run();
    EXPECT_EQ(orch.stats().migrationsCompleted, 1u);
    EXPECT_EQ(orch.container(0).server, 5u);
}

TEST(Orchestrator, RemoteMemoryPenaltyAfterMigratingAway)
{
    DataCenterConfig cfg = migrationConfig();
    cfg.orch.remoteMemFrac = 0.5;
    cfg.orch.remoteMemPenaltyPerUs = 0.01;
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();

    // At home: no penalty.
    EXPECT_DOUBLE_EQ(orch.remoteMemScale(orch.container(0)), 1.0);
    ASSERT_TRUE(orch.migrate(0, 5));
    dc.run();
    // Away from home: scale = 1 + frac * penalty * path_us, with the
    // star path crossing two 5 us links.
    EXPECT_NEAR(orch.remoteMemScale(orch.container(0)),
                1.0 + 0.5 * 0.01 * 10.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Interference and task routing
// ---------------------------------------------------------------------------

TEST(Orchestrator, InterferenceInflatesColocatedTasks)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    cfg.nCores = 2;
    cfg.seed = 3;
    cfg.orch.enabled = true;
    cfg.orch.placement = "bin_pack";
    cfg.orch.overcommit = 2.0;
    cfg.orch.interference = 0.5;
    cfg.orch.replicas = 2;
    cfg.orch.containerCores = 2.0;
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();
    // Both 2-core replicas pack onto the 2-core server 0: reserved 4
    // cores on 2 physical ones -> scale 1 + 0.5 * (4-2)/2 = 1.5.
    ASSERT_EQ(orch.containersOn(0).size(), 2u);
    EXPECT_DOUBLE_EQ(orch.interferenceScale(0), 1.5);
    EXPECT_DOUBLE_EQ(orch.interferenceScale(1), 1.0);

    // A 100 ms task routed through the deployment runs for 150 ms.
    auto service = std::make_shared<FixedService>(100 * msec);
    SingleTaskGenerator jobs(service);
    dc.pumpTrace({0}, jobs);
    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 1u);
    // 150 ms inflated service plus a few us of dispatch overhead.
    EXPECT_NEAR(dc.scheduler().jobLatency().mean(), 0.150, 1e-4);
    EXPECT_NEAR(orch.stats().interferenceInflatedSec, 0.050, 1e-9);
    EXPECT_EQ(orch.stats().tasksRouted, 1u);
}

TEST(Orchestrator, UntaggedJobsBypassTheOrchestrator)
{
    DataCenterConfig cfg = orchConfig();
    cfg.orch.tagJobs = false;
    DataCenter dc(cfg);
    auto service = std::make_shared<FixedService>(10 * msec);
    SingleTaskGenerator jobs(service);
    dc.pumpTrace({0, 1 * msec, 2 * msec}, jobs);
    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 3u);
    EXPECT_EQ(dc.orchestrator()->stats().tasksRouted, 0u);
}

TEST(Orchestrator, TasksDeferDuringDowntimeAndResumeAfter)
{
    DataCenterConfig cfg = migrationConfig();
    cfg.orch.migrationMaxRounds = 1; // whole copy is stop-and-copy
    cfg.orch.containerMemBytes = static_cast<Bytes>(64) << 20;
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();

    ASSERT_TRUE(orch.migrate(0, 3));
    EXPECT_EQ(orch.container(0).state, ContainerState::downtime);

    // A tagged job arriving mid-downtime stalls instead of running.
    auto service = std::make_shared<FixedService>(10 * msec);
    SingleTaskGenerator jobs(service);
    dc.pumpTrace({10 * msec}, jobs);
    dc.runUntil(50 * msec);
    EXPECT_EQ(dc.scheduler().deferredTasks(), 1u);
    EXPECT_EQ(orch.stats().tasksDeferred, 1u);
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 0u);

    // Switch-over releases the parked task onto the new host.
    dc.run();
    EXPECT_EQ(orch.stats().migrationsCompleted, 1u);
    EXPECT_EQ(dc.scheduler().deferredTasks(), 0u);
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 1u);
}

// ---------------------------------------------------------------------------
// Crash response
// ---------------------------------------------------------------------------

TEST(Orchestrator, ServerCrashReschedulesItsContainers)
{
    std::string trace = ::testing::TempDir() + "orch_crash_trace.txt";
    {
        std::ofstream f(trace);
        f << "server 0 1.0 2.0\n";
    }
    DataCenterConfig cfg = orchConfig();
    cfg.orch.replicas = 2;
    cfg.orch.containerCores = 2.0; // both replicas pack on server 0
    cfg.fault.enabled = true;
    cfg.fault.faultTrace = trace;
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();
    ASSERT_EQ(orch.containersOn(0).size(), 2u);

    auto service = std::make_shared<FixedService>(5 * msec);
    SingleTaskGenerator jobs(service);
    std::vector<Tick> arrivals;
    for (Tick t = 0; t < 3 * sec; t += 100 * msec)
        arrivals.push_back(t);
    dc.pumpTrace(std::move(arrivals), jobs);

    dc.runUntil(1500 * msec); // inside the down window
    EXPECT_EQ(orch.stats().reschedules, 2u);
    EXPECT_EQ(orch.containersOn(0).size(), 0u);
    // Both replacements landed on the next server, and keep serving.
    EXPECT_EQ(orch.containersOn(1).size(), 2u);

    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 30u);
    EXPECT_EQ(dc.scheduler().jobsFailed(), 0u);
    // No auto-failback: the containers stay where they recovered.
    EXPECT_EQ(orch.containersOn(1).size(), 2u);
}

// ---------------------------------------------------------------------------
// Rolling updates and autoscaling
// ---------------------------------------------------------------------------

TEST(Orchestrator, RollingUpdateReplacesEveryReplica)
{
    DataCenterConfig cfg = orchConfig();
    cfg.orch.replicas = 3;
    cfg.orch.reconcilePeriod = 100 * msec;
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();

    auto service = std::make_shared<FixedService>(5 * msec);
    SingleTaskGenerator jobs(service);
    std::vector<Tick> arrivals;
    for (Tick t = 0; t < 2 * sec; t += 50 * msec)
        arrivals.push_back(t);
    dc.pumpTrace(std::move(arrivals), jobs);

    orch.beginRollingUpdate(0, 2);
    EXPECT_TRUE(orch.updateInProgress(0));
    dc.run();

    EXPECT_FALSE(orch.updateInProgress(0));
    EXPECT_EQ(orch.runningReplicas(0), 3u);
    // 3 initial + 3 surge placements; every running replica is v2.
    EXPECT_EQ(orch.stats().placements, 6u);
    for (std::size_t i = 0; i < orch.numContainers(); ++i) {
        const Container &c = orch.container(i);
        if (c.state != ContainerState::stopped)
            EXPECT_EQ(c.version, 2);
    }
    EXPECT_EQ(dc.scheduler().jobsFailed(), 0u);
}

TEST(Orchestrator, AutoscalerAddsReplicasUnderLoad)
{
    DataCenterConfig cfg = orchConfig();
    cfg.orch.replicas = 1;
    cfg.orch.minReplicas = 1;
    cfg.orch.maxReplicas = 6;
    cfg.orch.autoscale = true;
    cfg.orch.autoscaleHigh = 0.75;
    cfg.orch.autoscaleLow = 0.25;
    cfg.orch.reconcilePeriod = 100 * msec;
    DataCenter dc(cfg);

    // Far more concurrent work than one 1-core container should take.
    auto service = std::make_shared<FixedService>(400 * msec);
    SingleTaskGenerator jobs(service);
    std::vector<Tick> arrivals;
    for (Tick t = 0; t < 4 * sec; t += 40 * msec)
        arrivals.push_back(t);
    dc.pumpTrace(std::move(arrivals), jobs);
    dc.run();

    const Orchestrator::Stats &s = dc.orchestrator()->stats();
    EXPECT_GT(s.autoscaleUps, 0u);
    EXPECT_LE(dc.orchestrator()->deploymentSpec(0).replicas, 6u);
    EXPECT_EQ(dc.scheduler().jobsFailed(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism and the no-[orch] guarantee
// ---------------------------------------------------------------------------

namespace {

std::string
runOrchWorkload(std::uint64_t seed)
{
    DataCenterConfig cfg = orchConfig();
    cfg.seed = seed;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.orch.autoscale = true;
    cfg.orch.reconcilePeriod = 200 * msec;
    cfg.orch.interference = 0.3;
    cfg.orch.overcommit = 2.0;
    DataCenter dc(cfg);

    auto service = std::make_shared<ExponentialService>(
        20 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(service);
    dc.pump(std::make_unique<Mmpp2Arrival>(300.0, 60.0, 0.5, 1.0,
                                           dc.makeRng("arrivals")),
            jobs, static_cast<std::size_t>(-1), 3 * sec);
    dc.runUntil(1 * sec);
    dc.orchestrator()->drainServer(0);
    dc.runUntil(2 * sec);
    dc.orchestrator()->beginRollingUpdate(0, 2);
    dc.run();
    return dumpString(dc);
}

} // namespace

TEST(Orchestrator, SameSeedSameResult)
{
    std::string a = runOrchWorkload(123);
    std::string b = runOrchWorkload(123);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("orch.placements"), std::string::npos);
}

TEST(Orchestrator, DisabledOrchIsByteIdentical)
{
    auto runIt = [](bool configure_knobs) {
        DataCenterConfig cfg;
        cfg.nServers = 4;
        cfg.nCores = 2;
        cfg.seed = 9;
        if (configure_knobs) {
            // Knobs set but the layer switched off: nothing may leak.
            cfg.orch.enabled = false;
            cfg.orch.placement = "spread";
            cfg.orch.interference = 0.9;
            cfg.orch.autoscale = true;
            cfg.orch.replicas = 7;
        }
        DataCenter dc(cfg);
        auto service = std::make_shared<ExponentialService>(
            10 * msec, dc.makeRng("service"));
        SingleTaskGenerator jobs(service);
        dc.pump(std::make_unique<PoissonArrival>(
                    100.0, dc.makeRng("arrivals")),
                jobs, static_cast<std::size_t>(-1), 1 * sec);
        dc.run();
        return dumpString(dc);
    };
    std::string base = runIt(false);
    std::string knobs = runIt(true);
    EXPECT_EQ(base, knobs);
    EXPECT_EQ(base.find("orch."), std::string::npos);
}

TEST(Orchestrator, ConfigRoundTrip)
{
    auto cfg = Config::parseString(R"(
[datacenter]
servers = 6
[orch]
placement = spread
overcommit = 1.5
interference = 0.25
replicas = 3
container_cores = 2
autoscale = true
remote_mem_frac = 0.125
container_mem_mb = 2
)");
    DataCenterConfig dc_cfg = DataCenterConfig::fromConfig(cfg);
    EXPECT_TRUE(dc_cfg.orch.enabled); // implied by orch.* presence
    EXPECT_EQ(dc_cfg.orch.placement, "spread");
    EXPECT_DOUBLE_EQ(dc_cfg.orch.overcommit, 1.5);
    EXPECT_DOUBLE_EQ(dc_cfg.orch.interference, 0.25);
    EXPECT_EQ(dc_cfg.orch.replicas, 3u);
    EXPECT_DOUBLE_EQ(dc_cfg.orch.containerCores, 2.0);
    EXPECT_TRUE(dc_cfg.orch.autoscale);
    EXPECT_DOUBLE_EQ(dc_cfg.orch.remoteMemFrac, 0.125);
    EXPECT_EQ(dc_cfg.orch.containerMemBytes, static_cast<Bytes>(2) << 20);

    // Explicit veto wins over key presence.
    cfg.set("orch.enabled", "false");
    EXPECT_FALSE(DataCenterConfig::fromConfig(cfg).orch.enabled);

    // Bad knobs are rejected at validation time.
    cfg.set("orch.enabled", "true");
    cfg.set("orch.placement", "best_fit");
    EXPECT_THROW(DataCenterConfig::fromConfig(cfg), FatalError);
}
