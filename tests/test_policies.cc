/**
 * @file
 * Tests for the case-study policies: provisioning (IV-A), dual
 * delay timers (IV-B), workload-adaptive pools (IV-C) and the
 * network-aware placement policy (IV-D).
 */

#include <gtest/gtest.h>

#include <memory>

#include "network/network.hh"
#include "sched/adaptive_policy.hh"
#include "sched/dispatch_policy.hh"
#include "sched/global_scheduler.hh"
#include "sched/provisioning.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

struct PolicyFixture : ::testing::Test {
    Simulator sim;
    ServerPowerProfile prof;
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    std::unique_ptr<GlobalScheduler> sched;

    void
    makeFleet(unsigned n, unsigned cores = 1)
    {
        for (unsigned i = 0; i < n; ++i) {
            ServerConfig cfg;
            cfg.id = i;
            cfg.nCores = cores;
            owned.push_back(
                std::make_unique<Server>(sim, cfg, prof));
            servers.push_back(owned.back().get());
        }
        sched = std::make_unique<GlobalScheduler>(
            sim, servers, std::make_unique<LeastLoadedPolicy>());
    }

    Job
    job(JobId id, Tick service)
    {
        Job j(id, sim.curTick());
        j.addTask(TaskSpec{service, 0, 1.0});
        j.validate();
        return j;
    }

    /** Submit @p per_burst jobs every @p gap, @p bursts times. */
    void
    scheduleBursts(unsigned bursts, unsigned per_burst, Tick gap,
                   Tick service, std::vector<
                       std::unique_ptr<EventFunctionWrapper>> &events)
    {
        static JobId next_id = 1000;
        for (unsigned b = 0; b < bursts; ++b) {
            auto ev = std::make_unique<EventFunctionWrapper>(
                [this, per_burst, service] {
                    for (unsigned i = 0; i < per_burst; ++i)
                        sched->submitJob(job(next_id++, service));
                },
                "burst");
            sim.schedule(*ev, b * gap);
            events.push_back(std::move(ev));
        }
    }
};

} // namespace

// ----------------------------------------------------------- provisioning

TEST_F(PolicyFixture, ProvisioningParksIdleServers)
{
    makeFleet(10);
    ProvisioningConfig cfg;
    cfg.minLoadPerServer = 0.5;
    cfg.maxLoadPerServer = 2.0;
    cfg.checkInterval = 10 * msec;
    ProvisioningPolicy prov(*sched, cfg);
    prov.start();
    // No load at all: servers are parked one per check until one
    // remains, and parked servers suspend.
    sim.runUntil(2 * sec);
    EXPECT_EQ(prov.activeServers(), 1u);
    EXPECT_GE(prov.parkEvents(), 9u);
    std::size_t asleep = 0;
    for (Server *s : servers)
        asleep += s->isAsleep();
    EXPECT_EQ(asleep, 9u);
    prov.stop();
}

TEST_F(PolicyFixture, ProvisioningActivatesUnderLoad)
{
    makeFleet(4);
    ProvisioningConfig cfg;
    cfg.minLoadPerServer = 0.5;
    cfg.maxLoadPerServer = 2.0;
    cfg.checkInterval = 10 * msec;
    ProvisioningPolicy prov(*sched, cfg);
    // Park everything but one first.
    prov.start();
    sim.runUntil(1 * sec);
    ASSERT_EQ(prov.activeServers(), 1u);
    // Now slam the single active server with long jobs.
    for (JobId i = 0; i < 12; ++i)
        sched->submitJob(job(i, 300 * msec));
    sim.runUntil(1 * sec + 100 * msec);
    EXPECT_GT(prov.activeServers(), 1u);
    EXPECT_GE(prov.activateEvents(), 1u);
    prov.stop();
    sim.run();
}

TEST_F(PolicyFixture, ProvisioningRejectsBadThresholds)
{
    makeFleet(2);
    ProvisioningConfig cfg;
    cfg.minLoadPerServer = 2.0;
    cfg.maxLoadPerServer = 1.0;
    EXPECT_THROW(ProvisioningPolicy(*sched, cfg), FatalError);
}

// ------------------------------------------------------------ dual timers

TEST_F(PolicyFixture, DualTimerPreferredPoolAbsorbsLoad)
{
    makeFleet(6);
    DualTimerConfig cfg;
    cfg.highPoolSize = 2;
    cfg.tauHigh = 2 * sec;
    cfg.tauLow = 20 * msec;
    configureDualTimers(*sched, cfg);
    // Light load: only the high pool should serve.
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    scheduleBursts(20, 2, 50 * msec, 10 * msec, events);
    // Mid-run: high-pool servers are kept awake by tauHigh > the
    // inter-burst gap while low-pool servers already suspended.
    sim.runUntil(990 * msec);
    EXPECT_FALSE(servers[0]->isAsleep());
    for (std::size_t i = 2; i < 6; ++i)
        EXPECT_TRUE(servers[i]->isAsleep());
    sim.run();
    EXPECT_EQ(servers[0]->tasksCompleted() +
                  servers[1]->tasksCompleted(),
              40u);
    // Low-pool servers never ran anything.
    for (std::size_t i = 2; i < 6; ++i)
        EXPECT_EQ(servers[i]->tasksCompleted(), 0u);
    // After draining, even the high pool suspends (tauHigh elapsed).
    EXPECT_TRUE(servers[0]->isAsleep());
}

TEST_F(PolicyFixture, DualTimerSpillsUnderBurst)
{
    makeFleet(4);
    DualTimerConfig cfg;
    cfg.highPoolSize = 1;
    cfg.tauHigh = 2 * sec;
    cfg.tauLow = 20 * msec;
    configureDualTimers(*sched, cfg);
    // 8 simultaneous jobs >> 1 high-pool core: must spill.
    for (JobId i = 0; i < 8; ++i)
        sched->submitJob(job(i, 50 * msec));
    sim.run();
    std::uint64_t spill = 0;
    for (std::size_t i = 1; i < 4; ++i)
        spill += servers[i]->tasksCompleted();
    EXPECT_GT(spill, 0u);
}

// ---------------------------------------------------------- adaptive pools

TEST_F(PolicyFixture, AdaptivePromotesUnderLoad)
{
    makeFleet(5);
    AdaptiveConfig cfg;
    cfg.wakeupThreshold = 1.5;
    cfg.sleepThreshold = 0.3;
    cfg.deepSleepAfter = 50 * msec;
    cfg.initialActive = 1;
    AdaptivePoolPolicy wasp(*sched, cfg);
    wasp.start();
    EXPECT_EQ(wasp.activePoolSize(), 1u);
    for (JobId i = 0; i < 10; ++i)
        sched->submitJob(job(i, 100 * msec));
    // Load estimator sees 10 pending on 1 server: promotions follow.
    sim.runUntil(200 * msec);
    EXPECT_GT(wasp.activePoolSize(), 1u);
    EXPECT_GE(wasp.promotions(), 1u);
    wasp.stop();
    sim.run();
}

TEST_F(PolicyFixture, AdaptiveDemotesWhenQuiet)
{
    makeFleet(4);
    AdaptiveConfig cfg;
    cfg.wakeupThreshold = 1.5;
    cfg.sleepThreshold = 0.3;
    cfg.deepSleepAfter = 30 * msec;
    cfg.checkInterval = 10 * msec;
    cfg.initialActive = 4;
    AdaptivePoolPolicy wasp(*sched, cfg);
    wasp.start();
    sim.runUntil(2 * sec);
    EXPECT_EQ(wasp.activePoolSize(), 1u);
    EXPECT_GE(wasp.demotions(), 3u);
    // Demoted servers reached system sleep through their timers.
    std::size_t asleep = 0;
    for (Server *s : servers)
        asleep += s->isAsleep();
    EXPECT_EQ(asleep, 3u);
}

TEST_F(PolicyFixture, AdaptiveSleepPoolServersStayShallowWhenActive)
{
    makeFleet(2);
    AdaptiveConfig cfg;
    cfg.initialActive = 1;
    cfg.deepSleepAfter = 10 * msec;
    cfg.checkInterval = 500 * msec; // effectively hands-off
    cfg.sleepThreshold = 0.0;       // never demote below load 0
    AdaptivePoolPolicy wasp(*sched, cfg);
    // Active-pool server 0 idles but must never suspend (tau
    // disabled); sleep-pool server 1 suspends quickly.
    sim.runUntil(300 * msec);
    EXPECT_FALSE(servers[0]->isAsleep());
    EXPECT_TRUE(servers[1]->isAsleep());
    // Server 0 still reaches package C6 (shallow sleep).
    EXPECT_EQ(servers[0]->pkgState(), PkgCState::pc6);
}

TEST_F(PolicyFixture, AdaptiveRejectsBadConfig)
{
    makeFleet(2);
    AdaptiveConfig cfg;
    cfg.wakeupThreshold = 0.2;
    cfg.sleepThreshold = 0.5;
    EXPECT_THROW(AdaptivePoolPolicy(*sched, cfg), FatalError);
    cfg = AdaptiveConfig{};
    cfg.initialActive = 0;
    EXPECT_THROW(AdaptivePoolPolicy(*sched, cfg), FatalError);
}

// ----------------------------------------------------------- network aware

TEST_F(PolicyFixture, NetworkAwarePrefersAwakePaths)
{
    // Fat tree k=4; switches sleep aggressively.
    Simulator lsim;
    auto net = std::make_unique<Network>(
        lsim, Topology::fatTree(4, 1e9, 5 * usec),
        SwitchPowerProfile::cisco2960_24(),
        NetworkConfig{.switchSleepDelay = 50 * msec});
    std::vector<std::unique_ptr<Server>> lowned;
    std::vector<Server *> lservers;
    for (unsigned i = 0; i < 16; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 1;
        lowned.push_back(std::make_unique<Server>(lsim, cfg, prof));
        lservers.push_back(lowned.back().get());
    }
    // Let all switches fall asleep.
    lsim.runUntil(1 * sec);
    ASSERT_EQ(net->sleepingSwitches(), 20u);

    // Server 0 busy; a dependent task must engage a new server: the
    // cheapest is one under the same edge switch (server 1).
    NetworkAwarePolicy policy(*net);
    for (Server *s : lservers)
        s->submit(TaskRef{99, 0, 10 * sec, 1.0, 0}); // all busy
    TaskRef t{1, 1, 1 * msec, 1.0, 0};
    DispatchContext ctx{t, std::size_t{0}};
    std::vector<std::size_t> cands;
    for (std::size_t i = 1; i < 16; ++i)
        cands.push_back(i);
    std::size_t pick = policy.pick(cands, lservers, ctx);
    EXPECT_EQ(pick, 1u); // same edge switch as server 0
    lsim.run();
}

TEST_F(PolicyFixture, NetworkAwarePrefersFreeCapacityFirst)
{
    Simulator lsim;
    auto net = std::make_unique<Network>(
        lsim, Topology::star(4, 1e9, 5 * usec),
        SwitchPowerProfile::cisco2960_24());
    std::vector<std::unique_ptr<Server>> lowned;
    std::vector<Server *> lservers;
    for (unsigned i = 0; i < 4; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 1;
        lowned.push_back(std::make_unique<Server>(lsim, cfg, prof));
        lservers.push_back(lowned.back().get());
    }
    lservers[0]->submit(TaskRef{0, 0, 10 * msec, 1.0, 0});
    NetworkAwarePolicy policy(*net);
    TaskRef t{1, 0, 1 * msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    // Server 0 is busy; an idle awake server wins regardless of
    // network cost.
    std::size_t pick = policy.pick({0, 1, 2, 3}, lservers, ctx);
    EXPECT_NE(pick, 0u);
    lsim.run();
}
