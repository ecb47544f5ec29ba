/**
 * @file
 * Tests for dispatch policies and the global scheduler, including
 * DAG dependence handling, the global task queue and network
 * transfers between dependent tasks.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/retry_policy.hh"
#include "network/network.hh"
#include "sched/dispatch_policy.hh"
#include "sched/global_scheduler.hh"
#include "server/server.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "workload/job.hh"

using namespace holdcsim;

namespace {

struct SchedFixture : ::testing::Test {
    Simulator sim;
    ServerPowerProfile prof;
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    std::unique_ptr<Network> net;
    std::unique_ptr<GlobalScheduler> sched;
    std::vector<std::pair<JobId, Tick>> finished;

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
    }

    void
    makeScheduler(std::unique_ptr<DispatchPolicy> policy,
                  GlobalSchedulerConfig cfg = {},
                  Network *network = nullptr)
    {
        sched = std::make_unique<GlobalScheduler>(
            sim, servers, std::move(policy), cfg, network);
        sched->setJobDoneCallback([this](JobId id, Tick lat) {
            finished.emplace_back(id, lat);
        });
    }

    Job
    singleTaskJob(JobId id, Tick service, Tick arrival = 0)
    {
        Job j(id, arrival);
        j.addTask(TaskSpec{service, 0, 1.0});
        j.validate();
        return j;
    }
};

} // namespace

// ---------------------------------------------------------- dispatch policies

TEST_F(SchedFixture, RoundRobinCycles)
{
    makeFleet(3);
    RoundRobinPolicy p;
    std::vector<std::size_t> all{0, 1, 2};
    TaskRef t{0, 0, msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    EXPECT_EQ(p.pick(all, servers, ctx), 0u);
    EXPECT_EQ(p.pick(all, servers, ctx), 1u);
    EXPECT_EQ(p.pick(all, servers, ctx), 2u);
    EXPECT_EQ(p.pick(all, servers, ctx), 0u);
}

TEST_F(SchedFixture, RoundRobinSkipsIneligible)
{
    makeFleet(4);
    RoundRobinPolicy p;
    TaskRef t{0, 0, msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    std::vector<std::size_t> some{1, 3};
    EXPECT_EQ(p.pick(some, servers, ctx), 1u);
    EXPECT_EQ(p.pick(some, servers, ctx), 3u);
    EXPECT_EQ(p.pick(some, servers, ctx), 1u);
}

TEST_F(SchedFixture, LeastLoadedPicksMin)
{
    makeFleet(3, 2);
    servers[0]->submit(TaskRef{0, 0, 10 * msec, 1.0, 0});
    servers[0]->submit(TaskRef{1, 0, 10 * msec, 1.0, 0});
    servers[1]->submit(TaskRef{2, 0, 10 * msec, 1.0, 0});
    LeastLoadedPolicy p;
    TaskRef t{9, 0, msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    EXPECT_EQ(p.pick({0, 1, 2}, servers, ctx), 2u);
    sim.run();
}

TEST_F(SchedFixture, RandomStaysInCandidates)
{
    makeFleet(5);
    RandomPolicy p(Rng(3, "test"));
    TaskRef t{0, 0, msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    std::vector<std::size_t> some{1, 3, 4};
    for (int i = 0; i < 100; ++i) {
        std::size_t c = p.pick(some, servers, ctx);
        EXPECT_TRUE(c == 1 || c == 3 || c == 4);
    }
}

TEST_F(SchedFixture, PreferredPoolSpillsOnlyWhenDeeplyQueued)
{
    makeFleet(4, 1);
    PreferredPoolPolicy p({0, 1}, /*spill_depth=*/2.0);
    TaskRef t{0, 0, msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    std::vector<std::size_t> all{0, 1, 2, 3};
    // Preferred pool first.
    EXPECT_EQ(p.pick(all, servers, ctx), 0u);
    servers[0]->submit(TaskRef{0, 0, 100 * msec, 1.0, 0});
    EXPECT_EQ(p.pick(all, servers, ctx), 1u);
    servers[1]->submit(TaskRef{1, 0, 100 * msec, 1.0, 0});
    // Both preferred busy: moderate queuing is still preferred over
    // engaging the low pool (load < spill_depth * cores).
    std::size_t c = p.pick(all, servers, ctx);
    EXPECT_TRUE(c == 0 || c == 1);
    servers[0]->submit(TaskRef{2, 0, 100 * msec, 1.0, 0});
    servers[1]->submit(TaskRef{3, 0, 100 * msec, 1.0, 0});
    // Queues at the spill threshold: now work spills to the low
    // pool (both its servers are awake with free cores).
    c = p.pick(all, servers, ctx);
    EXPECT_TRUE(c == 2 || c == 3);
    sim.run();
}

TEST_F(SchedFixture, PreferredPoolSpillPrefersAwakeServers)
{
    makeFleet(4, 1);
    PreferredPoolPolicy p({0}, /*spill_depth=*/1.0);
    TaskRef t{0, 0, msec, 1.0, 0};
    DispatchContext ctx{t, std::nullopt};
    std::vector<std::size_t> all{0, 1, 2, 3};
    // Saturate the preferred server and suspend server 2.
    servers[0]->submit(TaskRef{0, 0, 100 * msec, 1.0, 0});
    ASSERT_TRUE(servers[2]->sleep());
    // Spill must pick an awake low-pool server, never sleeping 2.
    for (int i = 0; i < 10; ++i) {
        std::size_t c = p.pick(all, servers, ctx);
        EXPECT_TRUE(c == 1 || c == 3);
    }
    sim.run();
}

// ----------------------------------------------------------- scheduler core

TEST_F(SchedFixture, SingleJobCompletesWithLatency)
{
    makeFleet(2);
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    sched->submitJob(singleTaskJob(7, 5 * msec));
    sim.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].first, 7u);
    EXPECT_EQ(finished[0].second, 5 * msec);
    EXPECT_EQ(sched->jobsCompleted(), 1u);
    EXPECT_NEAR(sched->jobLatency().mean(), 0.005, 1e-9);
    EXPECT_EQ(sched->activeJobs(), 0u);
}

TEST_F(SchedFixture, ChainRunsSequentially)
{
    makeFleet(2);
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    Job j(1, 0);
    TaskId a = j.addTask(TaskSpec{4 * msec, 0, 1.0});
    TaskId b = j.addTask(TaskSpec{6 * msec, 0, 1.0});
    j.addEdge(a, b, 0);
    j.validate();
    sched->submitJob(std::move(j));
    sim.run();
    ASSERT_EQ(finished.size(), 1u);
    // 4 + 6 ms of service; the second stage lands on the other
    // (cold) server and pays core C6 + package C6 exit latencies.
    EXPECT_EQ(finished[0].second,
              10 * msec + prof.c6ExitLatency + prof.pc6ExitLatency);
}

TEST_F(SchedFixture, DiamondDagJoinsAtAggregator)
{
    makeFleet(4);
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    Job j(2, 0);
    TaskId a = j.addTask(TaskSpec{2 * msec, 0, 1.0});
    TaskId b = j.addTask(TaskSpec{10 * msec, 0, 1.0});
    TaskId c = j.addTask(TaskSpec{3 * msec, 0, 1.0});
    TaskId d = j.addTask(TaskSpec{1 * msec, 0, 1.0});
    j.addEdge(a, b, 0);
    j.addEdge(a, c, 0);
    j.addEdge(b, d, 0);
    j.addEdge(c, d, 0);
    j.validate();
    sched->submitJob(std::move(j));
    sim.run();
    ASSERT_EQ(finished.size(), 1u);
    // Critical path a(2) -> b(10) -> d(1) = 13 ms, plus up to one
    // cold-core wake (core C6 + package C6 exit) per stage.
    EXPECT_GE(finished[0].second, 13 * msec);
    EXPECT_LE(finished[0].second,
              13 * msec +
                  3 * (prof.c6ExitLatency + prof.pc6ExitLatency));
}

TEST_F(SchedFixture, ManyJobsLoadBalanced)
{
    makeFleet(4, 1);
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    for (JobId i = 0; i < 8; ++i)
        sched->submitJob(singleTaskJob(i, 10 * msec));
    sim.run();
    EXPECT_EQ(finished.size(), 8u);
    // Perfectly balanced: each server ran two tasks back to back.
    for (Server *s : servers)
        EXPECT_EQ(s->tasksCompleted(), 2u);
}

TEST_F(SchedFixture, EligibilityRestrictsDispatch)
{
    makeFleet(3);
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    sched->setEligible(0, false);
    sched->setEligible(2, false);
    EXPECT_EQ(sched->numEligible(), 1u);
    for (JobId i = 0; i < 4; ++i)
        sched->submitJob(singleTaskJob(i, 1 * msec));
    sim.run();
    EXPECT_EQ(servers[1]->tasksCompleted(), 4u);
    EXPECT_EQ(servers[0]->tasksCompleted(), 0u);
    EXPECT_EQ(servers[2]->tasksCompleted(), 0u);
}

TEST_F(SchedFixture, TypeRestrictedServers)
{
    // Server 0 serves type 1, server 1 serves type 2.
    for (unsigned i = 0; i < 2; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 1;
        cfg.taskTypes = {static_cast<int>(i + 1)};
        owned.push_back(std::make_unique<Server>(sim, cfg, prof));
        servers.push_back(owned.back().get());
    }
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    Job j(0, 0);
    TaskId a = j.addTask(TaskSpec{2 * msec, 1, 1.0});
    TaskId b = j.addTask(TaskSpec{2 * msec, 2, 1.0});
    j.addEdge(a, b, 0);
    j.validate();
    sched->submitJob(std::move(j));
    sim.run();
    EXPECT_EQ(finished.size(), 1u);
    EXPECT_EQ(servers[0]->tasksCompleted(), 1u);
    EXPECT_EQ(servers[1]->tasksCompleted(), 1u);
}

TEST_F(SchedFixture, NumEligibleFollowsRandomFlipsAndCrashes)
{
    makeFleet(40);
    makeScheduler(std::make_unique<RoundRobinPolicy>());
    Rng rng(7, "eligibility-flips");
    for (int k = 0; k < 2000; ++k) {
        const std::size_t i = rng.uniformInt(0, servers.size() - 1);
        if (rng.bernoulli(0.1)) {
            // A crash leaves the pool alone; it only leaves the lists.
            if (servers[i]->failed()) {
                servers[i]->repair();
                sched->onServerRepaired(i);
            } else {
                sched->onServerFailed(i, servers[i]->fail());
            }
        } else {
            sched->setEligible(i, rng.bernoulli(0.5));
        }
        std::size_t eligible = 0;
        std::vector<std::size_t> healthy;
        for (std::size_t s = 0; s < servers.size(); ++s) {
            eligible += sched->eligible(s);
            if (sched->eligible(s) && !servers[s]->failed())
                healthy.push_back(s);
        }
        ASSERT_EQ(sched->numEligible(), eligible) << "after step " << k;
        ASSERT_EQ(sched->candidates(0), healthy) << "after step " << k;
    }
}

TEST_F(SchedFixture, DefaultFleetCandidatesReadNoServer)
{
    // Untyped, healthy servers: the candidate lists come from the
    // scheduler's own dispatch state. Only server 0 is adopted, so
    // reading any other Server would dereference null.
    makeFleet(1);
    GlobalScheduler big(sim, 100'000, std::make_unique<RoundRobinPolicy>());
    big.adopt(0, *servers[0]);
    const std::vector<std::size_t> &all = big.candidates(3);
    ASSERT_EQ(all.size(), 100'000u);
    EXPECT_EQ(all.front(), 0u);
    EXPECT_EQ(all.back(), 99'999u);
    big.setEligible(5, false);
    EXPECT_EQ(big.candidates(3).size(), 99'999u);
    EXPECT_EQ(big.numEligible(), 99'999u);
}

TEST_F(SchedFixture, GlobalQueueHoldsTasksUntilCapacity)
{
    makeFleet(2, 1);
    GlobalSchedulerConfig cfg;
    cfg.useGlobalQueue = true;
    makeScheduler(std::make_unique<LeastLoadedPolicy>(), cfg);
    for (JobId i = 0; i < 6; ++i)
        sched->submitJob(singleTaskJob(i, 10 * msec));
    // Two run, four wait centrally (not in server queues).
    EXPECT_EQ(sched->globalQueueLength(), 4u);
    EXPECT_EQ(servers[0]->pendingTasks(), 0u);
    EXPECT_EQ(servers[1]->pendingTasks(), 0u);
    sim.run();
    ASSERT_EQ(finished.size(), 6u);
    EXPECT_EQ(sched->globalQueueLength(), 0u);
    // 6 jobs over 2 single-core servers: the last job waits through
    // two service times before its own 10 ms.
    EXPECT_EQ(finished.back().second, 30 * msec);
}

TEST_F(SchedFixture, GlobalQueueFifoOrder)
{
    makeFleet(1, 1);
    GlobalSchedulerConfig cfg;
    cfg.useGlobalQueue = true;
    makeScheduler(std::make_unique<LeastLoadedPolicy>(), cfg);
    for (JobId i = 0; i < 4; ++i)
        sched->submitJob(singleTaskJob(i, 1 * msec));
    sim.run();
    ASSERT_EQ(finished.size(), 4u);
    for (JobId i = 0; i < 4; ++i)
        EXPECT_EQ(finished[i].first, i);
}

TEST_F(SchedFixture, TransfersDelayDependentTasks)
{
    makeFleet(16, 1);
    net = std::make_unique<Network>(
        sim, Topology::fatTree(4, 1e9, 5 * usec),
        SwitchPowerProfile::cisco2960_24());
    makeScheduler(std::make_unique<RoundRobinPolicy>(), {}, net.get());
    Job j(0, 0);
    TaskId a = j.addTask(TaskSpec{1 * msec, 0, 1.0});
    TaskId b = j.addTask(TaskSpec{1 * msec, 0, 1.0});
    j.addEdge(a, b, 12'500'000); // 100 Mb -> 0.1 s at 1 Gb/s
    j.validate();
    sched->submitJob(std::move(j));
    sim.run();
    ASSERT_EQ(finished.size(), 1u);
    // 1 ms + ~100 ms transfer + 1 ms.
    EXPECT_GT(finished[0].second, 100 * msec);
    EXPECT_LT(finished[0].second, 110 * msec);
    EXPECT_EQ(sched->transfersStarted(), 1u);
}

TEST_F(SchedFixture, SameServerTasksSkipTransfer)
{
    makeFleet(1, 1);
    net = std::make_unique<Network>(
        sim, Topology::star(1, 1e9, 5 * usec),
        SwitchPowerProfile::cisco2960_24());
    makeScheduler(std::make_unique<LeastLoadedPolicy>(), {},
                  net.get());
    Job j(0, 0);
    TaskId a = j.addTask(TaskSpec{1 * msec, 0, 1.0});
    TaskId b = j.addTask(TaskSpec{1 * msec, 0, 1.0});
    j.addEdge(a, b, 100 << 20);
    j.validate();
    sched->submitJob(std::move(j));
    sim.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].second, 2 * msec);
    EXPECT_EQ(sched->transfersStarted(), 0u);
}

TEST_F(SchedFixture, AbandonedJobsLateTransfersSkipItsReusedSlot)
{
    // Job 1 fans three parents on servers 0-2 into a child on server
    // 3 and is abandoned with two of its transfers still in flight.
    // Job 2 then takes its slab slot, with the same task ids, attempt
    // numbers and states, and fans three parents on server 4 into a
    // child on server 5. Job 1's late abort and late completion must
    // reach neither job.
    for (unsigned i = 0; i < 6; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 4;
        cfg.taskTypes = {static_cast<int>(i) + 1};
        owned.push_back(std::make_unique<Server>(sim, cfg, prof));
        servers.push_back(owned.back().get());
    }
    net = std::make_unique<Network>(sim, Topology::star(6, 1e9, 5 * usec),
                                    SwitchPowerProfile::cisco2960_24());
    makeScheduler(std::make_unique<LeastLoadedPolicy>(), {}, net.get());
    RetryPolicy once;
    once.maxAttempts = 1;
    sched->setRetryPolicy(once);
    std::vector<JobId> failed;
    sched->setJobFailedCallback([&](JobId id) { failed.push_back(id); });

    const auto fanIn = [](JobId id, Tick arrival, std::vector<int> types,
                          int child_type, std::vector<Bytes> bytes) {
        Job j(id, arrival);
        for (int type : types)
            j.addTask(TaskSpec{1 * msec, type, 1.0});
        TaskId child = j.addTask(TaskSpec{1 * msec, child_type, 1.0});
        for (TaskId p = 0; p < types.size(); ++p)
            j.addEdge(p, child, bytes[p]);
        j.validate();
        return j;
    };
    // The first link of a route from server s is s's uplink.
    const Topology &topo = net->topology();
    const LinkId uplink0 =
        net->routing().route(topo.serverNode(0), topo.serverNode(3)).links[0];
    const LinkId uplink1 =
        net->routing().route(topo.serverNode(1), topo.serverNode(3)).links[0];

    // 125 MB each: the three share server 3's downlink for ~3 s.
    sched->submitJob(fanIn(1, 0, {1, 2, 3}, 4,
                           {125'000'000, 125'000'000, 125'000'000}));
    sim.runUntil(100 * msec);
    ASSERT_EQ(sched->transfersStarted(), 3u);
    net->failLink(uplink0);
    ASSERT_EQ(failed, std::vector<JobId>{1});
    EXPECT_EQ(sched->transfersAborted(), 1u);
    EXPECT_EQ(sched->activeJobs(), 0u);

    // Job 2's child may start only after all three of its edges land.
    // They share server 4's 1 Gb/s uplink, so the last lands at least
    // 376 MB / 1 Gb/s = 3.008 s after they start.
    sched->submitJob(fanIn(2, sim.curTick(), {5, 5, 5}, 6,
                           {1'000'000, 125'000'000, 250'000'000}));
    sim.runUntil(1 * sec);
    ASSERT_EQ(sched->transfersStarted(), 6u);
    net->failLink(uplink1); // job 1's late abort
    EXPECT_EQ(sched->transfersAborted(), 1u);
    sim.run(); // job 1's transfer from server 2 lands late

    EXPECT_EQ(failed, std::vector<JobId>{1});
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].first, 2u);
    EXPECT_GT(finished[0].second, 3 * sec);
    EXPECT_EQ(sched->transfersAborted(), 1u);
    EXPECT_EQ(sched->activeJobs(), 0u);
    const GlobalScheduler::TaskCensus c = sched->taskCensus();
    EXPECT_EQ(c.created, 8u);
    EXPECT_EQ(c.finished, 7u); // job 1's parents and all of job 2
    EXPECT_EQ(c.aborted, 1u);  // job 1's child
    EXPECT_EQ(c.live, 0u);
}

TEST_F(SchedFixture, ChildThatFailsItsJobEndsTheWake)
{
    // No server serves the first child's type, so waking it burns the
    // job's only attempt and fails the job inside the completion of
    // its root; the failure hook submits a job that reuses the freed
    // slot. The second child must never be dispatched.
    for (unsigned i = 0; i < 2; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.taskTypes = {1};
        owned.push_back(std::make_unique<Server>(sim, cfg, prof));
        servers.push_back(owned.back().get());
    }
    makeScheduler(std::make_unique<RoundRobinPolicy>());
    RetryPolicy once;
    once.maxAttempts = 1;
    sched->setRetryPolicy(once);
    std::vector<JobId> failed;
    sched->setJobFailedCallback([&](JobId id) {
        failed.push_back(id);
        Job next(2, sim.curTick());
        next.addTask(TaskSpec{1 * msec, 1, 1.0});
        next.validate();
        sched->submitJob(std::move(next));
    });

    Job j(1, 0);
    TaskId root = j.addTask(TaskSpec{1 * msec, 1, 1.0});
    TaskId orphan = j.addTask(TaskSpec{1 * msec, 9, 1.0});
    TaskId sibling = j.addTask(TaskSpec{1 * msec, 1, 1.0});
    j.addEdge(root, orphan, 0);
    j.addEdge(root, sibling, 0);
    j.validate();
    sched->submitJob(std::move(j));
    sim.run();

    EXPECT_EQ(failed, std::vector<JobId>{1});
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].first, 2u);
    EXPECT_EQ(sched->tasksDispatched(), 2u); // job 1's root, job 2
    const GlobalScheduler::TaskCensus c = sched->taskCensus();
    EXPECT_EQ(c.created, 4u);
    EXPECT_EQ(c.finished, 2u);
    EXPECT_EQ(c.aborted, 2u);
    EXPECT_EQ(c.live, 0u);
}

TEST_F(SchedFixture, ResetStatsClearsCounters)
{
    makeFleet(1);
    makeScheduler(std::make_unique<LeastLoadedPolicy>());
    sched->submitJob(singleTaskJob(0, 1 * msec));
    sim.run();
    EXPECT_EQ(sched->jobsCompleted(), 1u);
    sched->resetStats();
    EXPECT_EQ(sched->jobsCompleted(), 0u);
    EXPECT_EQ(sched->jobLatency().count(), 0u);
}

TEST_F(SchedFixture, ConstructionValidation)
{
    makeFleet(2);
    EXPECT_THROW(GlobalScheduler(sim, {}, nullptr), FatalError);
    EXPECT_THROW(GlobalScheduler(sim, servers, nullptr), FatalError);
    // Wrong server ids.
    std::vector<Server *> reversed{servers[1], servers[0]};
    EXPECT_THROW(GlobalScheduler(sim, reversed,
                                 std::make_unique<LeastLoadedPolicy>()),
                 FatalError);
}
