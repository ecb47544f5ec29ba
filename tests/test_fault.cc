/**
 * @file
 * Tests for the fault subsystem: fault models (trace + stochastic),
 * the fault manager's injection/repair cycle and availability books,
 * retry/backoff in the global scheduler, and fault-driven flow
 * aborts in the network.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "dc/datacenter.hh"
#include "fault/fault_manager.hh"
#include "fault/fault_model.hh"
#include "fault/retry_policy.hh"
#include "network/network.hh"
#include "sched/dispatch_policy.hh"
#include "sched/global_scheduler.hh"
#include "server/server.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"
#include "workload/job.hh"

using namespace holdcsim;

namespace {

/** Server fleet + scheduler + optional fault manager. */
struct FaultFixture : ::testing::Test {
    Simulator sim;
    ServerPowerProfile prof;
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    std::unique_ptr<GlobalScheduler> sched;
    std::unique_ptr<FaultManager> mgr;
    std::vector<std::pair<JobId, Tick>> finished;
    std::vector<JobId> failed;

    void
    makeFleet(unsigned n, unsigned cores = 1)
    {
        for (unsigned i = 0; i < n; ++i) {
            ServerConfig cfg;
            cfg.id = i;
            cfg.nCores = cores;
            owned.push_back(std::make_unique<Server>(sim, cfg, prof));
            servers.push_back(owned.back().get());
        }
    }

    void
    makeScheduler(const RetryPolicy &rp)
    {
        sched = std::make_unique<GlobalScheduler>(
            sim, servers, std::make_unique<RoundRobinPolicy>());
        sched->setRetryPolicy(rp);
        sched->setJobDoneCallback([this](JobId id, Tick lat) {
            finished.emplace_back(id, lat);
        });
        sched->setJobFailedCallback(
            [this](JobId id) { failed.push_back(id); });
    }

    void
    makeManager(std::unique_ptr<FaultModel> model,
                FaultManagerConfig cfg = {})
    {
        mgr = std::make_unique<FaultManager>(sim, std::move(model),
                                             servers, nullptr,
                                             sched.get(), cfg);
    }

    Job
    singleTaskJob(JobId id, Tick service)
    {
        Job j(id, 0);
        j.addTask(TaskSpec{service, 0, 1.0});
        j.validate();
        return j;
    }
};

/** Deterministic retry policy: no jitter, fixed base. */
RetryPolicy
flatPolicy(unsigned max_attempts, Tick base = 10 * msec)
{
    RetryPolicy rp;
    rp.maxAttempts = max_attempts;
    rp.backoffBase = base;
    rp.backoffMax = 100 * base;
    rp.jitterFrac = 0.0;
    return rp;
}

} // namespace

// --------------------------------------------------------------- RetryPolicy

TEST(RetryPolicy, ExponentialBackoffWithCap)
{
    RetryPolicy rp;
    rp.backoffBase = 10 * msec;
    rp.backoffMax = 80 * msec;
    rp.jitterFrac = 0.0;
    EXPECT_EQ(rp.backoff(1), 10 * msec);
    EXPECT_EQ(rp.backoff(2), 20 * msec);
    EXPECT_EQ(rp.backoff(3), 40 * msec);
    EXPECT_EQ(rp.backoff(4), 80 * msec);
    EXPECT_EQ(rp.backoff(5), 80 * msec);
    // Shift counts far beyond the Tick width must not overflow.
    EXPECT_EQ(rp.backoff(200), 80 * msec);
}

TEST(RetryPolicy, JitterStaysWithinBounds)
{
    RetryPolicy rp;
    rp.backoffBase = 100 * msec;
    rp.backoffMax = 10 * sec;
    rp.jitterFrac = 0.1;
    Rng rng(7, "test.jitter");
    for (int i = 0; i < 200; ++i) {
        Tick b = rp.backoff(1, &rng);
        EXPECT_GE(b, 90 * msec);
        EXPECT_LE(b, 110 * msec);
    }
}

// ------------------------------------------------------------- fault models

TEST(TraceFaultModel, ReplaysSortedEpisodes)
{
    TraceFaultModel m;
    FaultTarget t{FaultKind::server, 0, 0};
    // Added out of order; the model must sort per target.
    m.addFault(t, 300 * msec, 400 * msec);
    m.addFault(t, 100 * msec, 200 * msec);

    auto first = m.nextFault(t, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->downAt, 100 * msec);
    EXPECT_EQ(first->upAt, 200 * msec);

    auto second = m.nextFault(t, 200 * msec);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->downAt, 300 * msec);

    EXPECT_FALSE(m.nextFault(t, 400 * msec).has_value());
    // A different target has no schedule at all.
    EXPECT_FALSE(
        m.nextFault({FaultKind::server, 1, 0}, 0).has_value());
}

TEST(TraceFaultModel, SkipsStaleAndClampsEpisodes)
{
    TraceFaultModel m;
    FaultTarget t{FaultKind::link, 3, 0};
    m.addFault(t, 100 * msec, 200 * msec);
    m.addFault(t, 300 * msec, 500 * msec);

    // Asking from inside the second episode clamps its start to now.
    auto rec = m.nextFault(t, 350 * msec);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->downAt, 350 * msec);
    EXPECT_EQ(rec->upAt, 500 * msec);
}

TEST(TraceFaultModel, RejectsOverlapAndEmptyEpisodes)
{
    FaultTarget t{FaultKind::server, 0, 0};
    {
        TraceFaultModel m;
        EXPECT_THROW(m.addFault(t, 200 * msec, 200 * msec),
                     FatalError);
    }
    {
        TraceFaultModel m;
        m.addFault(t, 100 * msec, 300 * msec);
        m.addFault(t, 200 * msec, 400 * msec);
        EXPECT_THROW(m.finalize(), FatalError);
    }
}

TEST(TraceFaultModel, ParsesTraceFile)
{
    std::string path = ::testing::TempDir() + "holdcsim_faults.txt";
    {
        std::ofstream f(path);
        f << "# component index down_s up_s\n";
        f << "server 2 1.0 2.5\n";
        f << "switch 0 0.5 0.75\n";
        f << "link 7 3.0 3.5\n";
        f << "linecard 1 3 4.0 5.0\n";
    }
    auto m = TraceFaultModel::fromFile(path);

    auto srv = m->nextFault({FaultKind::server, 2, 0}, 0);
    ASSERT_TRUE(srv.has_value());
    EXPECT_EQ(srv->downAt, fromSeconds(1.0));
    EXPECT_EQ(srv->upAt, fromSeconds(2.5));

    auto sw = m->nextFault({FaultKind::swtch, 0, 0}, 0);
    ASSERT_TRUE(sw.has_value());
    EXPECT_EQ(sw->downAt, fromSeconds(0.5));

    auto lc = m->nextFault({FaultKind::linecard, 1, 3}, 0);
    ASSERT_TRUE(lc.has_value());
    EXPECT_EQ(lc->downAt, fromSeconds(4.0));

    EXPECT_THROW(TraceFaultModel::fromFile("/nonexistent/faults"),
                 FatalError);
}

TEST(StochasticFaultModel, SameSeedSameSchedule)
{
    for (auto dist : {StochasticFaultModel::Distribution::exponential,
                      StochasticFaultModel::Distribution::weibull}) {
        StochasticFaultModel a(42, 1 * sec, 100 * msec, dist);
        StochasticFaultModel b(42, 1 * sec, 100 * msec, dist);
        FaultTarget t{FaultKind::server, 5, 0};
        Tick now_a = 0, now_b = 0;
        for (int i = 0; i < 10; ++i) {
            auto ra = a.nextFault(t, now_a);
            auto rb = b.nextFault(t, now_b);
            ASSERT_TRUE(ra.has_value());
            ASSERT_TRUE(rb.has_value());
            EXPECT_EQ(ra->downAt, rb->downAt);
            EXPECT_EQ(ra->upAt, rb->upAt);
            EXPECT_GT(ra->upAt, ra->downAt);
            EXPECT_GE(ra->downAt, now_a);
            now_a = ra->upAt;
            now_b = rb->upAt;
        }
    }
}

TEST(StochasticFaultModel, ComponentsDrawIndependentStreams)
{
    StochasticFaultModel m(42, 10 * sec, 1 * sec);
    auto a = m.nextFault({FaultKind::server, 0, 0}, 0);
    auto b = m.nextFault({FaultKind::server, 1, 0}, 0);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(a->downAt, b->downAt);
}

// ------------------------------------------------- explicit fault schedules

TEST(ScheduleFaultModel, HandsOutEpisodesAndRecordsThem)
{
    FaultTarget s0{FaultKind::server, 0, 0};
    FaultTarget s1{FaultKind::server, 1, 0};
    std::vector<ScheduledFault> sched = {
        {s0, {300 * msec, 400 * msec}},
        {s0, {100 * msec, 200 * msec}},
        {s1, {150 * msec, 250 * msec}},
    };
    ScheduleFaultModel m(sched);

    auto first = m.nextFault(s0, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->downAt, 100 * msec);
    auto other = m.nextFault(s1, 0);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->downAt, 150 * msec);
    auto second = m.nextFault(s0, 200 * msec);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->downAt, 300 * msec);
    EXPECT_FALSE(m.nextFault(s0, 400 * msec).has_value());

    // The hand-out log keeps episodes in hand-out order.
    ASSERT_EQ(m.consumed().size(), 3u);
    EXPECT_EQ(m.consumed()[0].record.downAt, 100 * msec);
    EXPECT_EQ(m.consumed()[1].record.downAt, 150 * msec);
    EXPECT_EQ(m.consumed()[2].record.downAt, 300 * msec);
}

TEST(ScheduleFaultModel, FatalsInsteadOfDriftingFromTheScript)
{
    FaultTarget t{FaultKind::server, 0, 0};
    // Overlapping episodes are a harness bug, not a schedule.
    EXPECT_THROW(ScheduleFaultModel({
                     {t, {100 * msec, 300 * msec}},
                     {t, {200 * msec, 400 * msec}},
                 }),
                 FatalError);
    // An episode the clock has already passed cannot replay exactly
    // as written; TraceFaultModel would clamp, this model refuses.
    ScheduleFaultModel m({{t, {100 * msec, 200 * msec}}});
    EXPECT_THROW(m.nextFault(t, 150 * msec), FatalError);
}

TEST(FaultTraceLine, RoundTripIsTickExact)
{
    // Deliberately awkward tick values: the 9-decimal seconds text
    // must reproduce them exactly (fromSeconds rounds to nearest).
    std::vector<ScheduledFault> faults = {
        {{FaultKind::server, 7, 0}, {123456789, 987654321}},
        {{FaultKind::swtch, 2, 0}, {1, 2}},
        {{FaultKind::linecard, 1, 3}, {999999999, 1000000001}},
    };
    for (const ScheduledFault &f : faults) {
        ScheduledFault parsed;
        ASSERT_TRUE(parseFaultTraceLine(formatFaultTraceLine(f),
                                        "test:1", parsed));
        EXPECT_TRUE(parsed == f) << formatFaultTraceLine(f);
    }
    ScheduledFault ignored;
    EXPECT_FALSE(parseFaultTraceLine("", "test:1", ignored));
    EXPECT_FALSE(parseFaultTraceLine("# comment", "test:1", ignored));
    EXPECT_THROW(parseFaultTraceLine("server x 1.0 2.0", "test:1",
                                     ignored),
                 FatalError);
}

// ------------------------------------------------------------ fault manager

TEST_F(FaultFixture, DowntimeResidencySumsToWallTime)
{
    makeFleet(1);
    auto trace = std::make_unique<TraceFaultModel>();
    trace->addFault({FaultKind::server, 0, 0}, 100 * msec,
                    300 * msec);
    makeManager(std::move(trace));

    sim.runUntil(1 * sec);
    mgr->finishStats();

    const auto &cs = mgr->componentStats(0);
    EXPECT_EQ(cs.faults, 1u);
    EXPECT_EQ(cs.residency.residency(1), 200 * msec);
    EXPECT_EQ(cs.residency.residency(0) + cs.residency.residency(1),
              cs.residency.totalTime());
    EXPECT_EQ(cs.residency.totalTime(), 1 * sec);
    EXPECT_DOUBLE_EQ(mgr->availability(0), 0.8);
    EXPECT_DOUBLE_EQ(mgr->fleetAvailability(), 0.8);
    EXPECT_EQ(mgr->totalDowntime(), 200 * msec);
    EXPECT_EQ(mgr->faultsInjected(), 1u);
    EXPECT_EQ(mgr->currentlyDown(), 0u);
    EXPECT_FALSE(servers[0]->failed());
    EXPECT_EQ(servers[0]->failures(), 1u);
}

TEST_F(FaultFixture, EpisodeLogExportsRealizedScheduleForReplay)
{
    makeFleet(2);
    auto trace = std::make_unique<TraceFaultModel>();
    trace->addFault({FaultKind::server, 0, 0}, 100 * msec,
                    300 * msec);
    trace->addFault({FaultKind::server, 1, 0}, 200 * msec, 10 * sec);
    makeManager(std::move(trace));

    sim.runUntil(1 * sec);

    ASSERT_EQ(mgr->episodeLog().size(), 2u);
    EXPECT_EQ(mgr->episodeLog()[0].downAt, 100 * msec);
    EXPECT_EQ(mgr->episodeLog()[0].upAt, 300 * msec);
    EXPECT_EQ(mgr->episodeLog()[1].downAt, 200 * msec);
    // Server 1 is still down: the log keeps the episode open...
    EXPECT_EQ(mgr->episodeLog()[1].upAt, maxTick);

    // ...and the exported trace closes it one tick past the clock,
    // in text TraceFaultModel (and the mc explorer) can load.
    std::ostringstream os;
    mgr->writeScheduleTrace(os);
    std::istringstream in(os.str());
    std::string line;
    std::vector<ScheduledFault> parsed;
    while (std::getline(in, line)) {
        ScheduledFault f;
        if (parseFaultTraceLine(line, "export", f))
            parsed.push_back(f);
    }
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].record.downAt, 100 * msec);
    EXPECT_EQ(parsed[0].record.upAt, 300 * msec);
    EXPECT_EQ(parsed[1].record.downAt, 200 * msec);
    EXPECT_EQ(parsed[1].record.upAt, sim.curTick() + 1);
}

TEST_F(FaultFixture, AbortDumpNamesTheActiveFaultSchedule)
{
    makeFleet(2);
    auto trace = std::make_unique<TraceFaultModel>();
    trace->addFault({FaultKind::server, 0, 0}, 100 * msec,
                    300 * msec);
    trace->addFault({FaultKind::server, 1, 0}, 200 * msec, 10 * sec);
    makeManager(std::move(trace));
    sim.runUntil(500 * msec);

    // A fault-provoked abort names the faults, not just the damage.
    std::ostringstream os;
    sim.abortDump(os, "test abort");
    const std::string dump = os.str();
    EXPECT_NE(dump.find("context.fault_schedule:"), std::string::npos);
    EXPECT_NE(dump.find("faults_injected: 2"), std::string::npos);
    EXPECT_NE(dump.find("currently_down: server.1"),
              std::string::npos);
    EXPECT_NE(dump.find("pending"), std::string::npos);

    // Deregistration on destruction: no dangling contributor.
    mgr.reset();
    std::ostringstream after;
    sim.abortDump(after, "test abort");
    EXPECT_EQ(after.str().find("context.fault_schedule:"),
              std::string::npos);
}

TEST_F(FaultFixture, CrashedTaskRetriesOnHealthyServer)
{
    makeFleet(2);
    makeScheduler(flatPolicy(3));
    auto trace = std::make_unique<TraceFaultModel>();
    // Round-robin places job 0 on server 0; kill it mid-run.
    trace->addFault({FaultKind::server, 0, 0}, 10 * msec, 50 * msec);
    makeManager(std::move(trace));

    sched->submitJob(singleTaskJob(0, 100 * msec));
    sim.run();

    // Attempt 1 died at 10 ms, backoff 10 ms, attempt 2 runs the
    // full 100 ms on the surviving server.
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].first, 0u);
    // 10 ms until the crash + 10 ms backoff + a full 100 ms re-run
    // (plus sub-ms server wake-up latency).
    EXPECT_GE(finished[0].second, 120 * msec);
    EXPECT_LT(finished[0].second, 125 * msec);
    EXPECT_TRUE(failed.empty());
    EXPECT_EQ(sched->taskRetries(), 1u);
    EXPECT_EQ(sched->jobsFailed(), 0u);
    EXPECT_EQ(servers[0]->tasksKilled(), 1u);
    EXPECT_GT(servers[0]->wastedJoules(), 0.0);
    EXPECT_EQ(servers[1]->tasksCompleted(), 1u);
}

TEST_F(FaultFixture, RetryExhaustionFailsJob)
{
    makeFleet(1);
    makeScheduler(flatPolicy(2));
    auto trace = std::make_unique<TraceFaultModel>();
    // The only server stays down far past the retry budget.
    trace->addFault({FaultKind::server, 0, 0}, 10 * msec, 10 * sec);
    makeManager(std::move(trace));

    sched->submitJob(singleTaskJob(0, 100 * msec));
    sim.run();

    EXPECT_TRUE(finished.empty());
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], 0u);
    EXPECT_EQ(sched->jobsFailed(), 1u);
    EXPECT_TRUE(sched->jobHasFailed(0));
    EXPECT_FALSE(sched->jobHasFailed(1));
    EXPECT_EQ(sched->activeJobs(), 0u);
}

TEST_F(FaultFixture, RepairedServerServesAgain)
{
    makeFleet(1);
    makeScheduler(flatPolicy(5, 100 * msec));
    auto trace = std::make_unique<TraceFaultModel>();
    trace->addFault({FaultKind::server, 0, 0}, 10 * msec, 60 * msec);
    makeManager(std::move(trace));

    sched->submitJob(singleTaskJob(0, 50 * msec));
    sim.run();

    // The 100 ms backoff outlasts the 50 ms repair, so the retry
    // lands on the same (now healthy) server.
    ASSERT_EQ(finished.size(), 1u);
    // 10 ms to the crash + 100 ms backoff + 50 ms re-run, plus the
    // wake-up of the freshly repaired machine.
    EXPECT_GE(finished[0].second, 160 * msec);
    EXPECT_LT(finished[0].second, 165 * msec);
    EXPECT_EQ(servers[0]->tasksCompleted(), 1u);
    EXPECT_EQ(servers[0]->failures(), 1u);
}

TEST_F(FaultFixture, WheelModeFaultCycleLeavesNoZombieTimers)
{
    // Same crash/retry scenario as CrashedTaskRetriesOnHealthyServer,
    // watched through the simulator's governor timer wheel. A server
    // failure forces cores into deep sleep mid-ladder; no stage
    // pending before the crash may survive it -- a zombie would
    // either fire into a failed machine or keep the run alive.
    TimerWheel &wheel = sim.timerWheel();
    makeFleet(2);
    makeScheduler(flatPolicy(3));
    auto trace = std::make_unique<TraceFaultModel>();
    trace->addFault({FaultKind::server, 0, 0}, 10 * msec, 50 * msec);
    trace->addFault({FaultKind::server, 1, 0}, 200 * msec,
                    300 * msec);
    makeManager(std::move(trace));

    sched->submitJob(singleTaskJob(0, 100 * msec));
    sim.run();

    ASSERT_EQ(finished.size(), 1u);
    EXPECT_TRUE(failed.empty());
    EXPECT_EQ(sched->taskRetries(), 1u);
    EXPECT_EQ(servers[0]->tasksKilled(), 1u);
    EXPECT_EQ(servers[1]->tasksCompleted(), 1u);

    // The run drained: every governor ladder ran dry, and no zombie
    // wheel entry survives the fail/repair cycles. Server 1's unused
    // 200 ms fault cycle legitimately remains queued -- injection
    // events are background -- so the check is that nothing
    // *foreground* (i.e. no wheel tick) is left: re-running must not
    // advance the clock.
    EXPECT_EQ(wheel.live(), 0u);
    const Tick done = sim.curTick();
    sim.run();
    EXPECT_EQ(sim.curTick(), done);
    // Server core ladders are computed, never armed on the wheel.
    EXPECT_EQ(wheel.stats().armed, 0u);
    // Every ladder ran dry: each core of both servers sits in C6.
    for (Server *s : servers)
        for (unsigned c = 0; c < s->numCores(); ++c)
            EXPECT_EQ(s->core(c).cstate(), CoreCState::c6);
}

TEST_F(FaultFixture, TaskTimeoutTriggersRetry)
{
    makeFleet(2);
    RetryPolicy rp = flatPolicy(2);
    rp.taskTimeout = 30 * msec;
    makeScheduler(rp);

    // No faults at all: the timeout alone must fire and retry, and
    // the second attempt (also 50 ms > 30 ms) exhausts the budget.
    sched->submitJob(singleTaskJob(0, 50 * msec));
    sim.run();

    EXPECT_TRUE(finished.empty());
    EXPECT_EQ(sched->taskTimeouts(), 2u);
    EXPECT_EQ(sched->jobsFailed(), 1u);
}

// ------------------------------------------------------------ network faults

namespace {

struct NetFaultFixture : ::testing::Test {
    Simulator sim;
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    std::unique_ptr<Network> net;

    void
    make(Topology topo)
    {
        net = std::make_unique<Network>(sim, std::move(topo), prof,
                                        NetworkConfig{});
    }

    LinkId
    accessLink(std::size_t server)
    {
        NodeId n = net->topology().serverNode(server);
        return net->topology().linksAt(n).at(0);
    }
};

} // namespace

TEST_F(NetFaultFixture, LinkFaultAbortsInFlightFlows)
{
    make(Topology::star(4, 1e9, 5 * usec));
    bool done = false, aborted = false;
    net->startFlow(0, 1, 125'000'000, [&] { done = true; },
                   [&] { aborted = true; });
    net->failLink(accessLink(1));

    EXPECT_TRUE(aborted);
    EXPECT_FALSE(done);
    EXPECT_EQ(net->flows().flowsAborted(), 1u);
    EXPECT_FALSE(net->serversReachable(0, 1));
    EXPECT_TRUE(net->serversReachable(0, 2));

    net->repairLink(accessLink(1));
    EXPECT_TRUE(net->serversReachable(0, 1));
    bool done2 = false;
    net->startFlow(0, 1, 1'000'000, [&] { done2 = true; });
    sim.run();
    EXPECT_TRUE(done2);
}

TEST_F(NetFaultFixture, UnreachableFlowAbortsAsynchronously)
{
    make(Topology::star(4, 1e9, 5 * usec));
    net->failLink(accessLink(1));

    bool aborted = false;
    FlowId id = net->startFlow(0, 1, 1'000'000, [] {},
                               [&] { aborted = true; });
    EXPECT_EQ(id, Network::invalidFlow);
    // The abort is delivered from the event loop, not re-entrantly.
    EXPECT_FALSE(aborted);
    sim.run();
    EXPECT_TRUE(aborted);
}

TEST_F(NetFaultFixture, ManagerDrivesSwitchFaults)
{
    make(Topology::star(4, 1e9, 5 * usec));
    auto trace = std::make_unique<TraceFaultModel>();
    trace->addFault({FaultKind::swtch, 0, 0}, 100 * msec, 300 * msec);
    FaultManagerConfig cfg;
    cfg.faultServers = false;
    cfg.faultSwitches = true;
    FaultManager fm(sim, std::move(trace), {}, net.get(), nullptr,
                    cfg);
    EXPECT_EQ(fm.numTargets(), 1u);

    sim.runUntil(200 * msec);
    EXPECT_TRUE(net->switchAt(0).failed());
    EXPECT_FALSE(net->serversReachable(0, 1));
    EXPECT_EQ(fm.currentlyDown(), 1u);

    sim.runUntil(1 * sec);
    EXPECT_FALSE(net->switchAt(0).failed());
    EXPECT_TRUE(net->serversReachable(0, 1));
    EXPECT_EQ(fm.currentlyDown(), 0u);
}

TEST(NetFaultWheel, SwitchFaultCancelsWheelSleepTimers)
{
    // Wheel-mode switch: LPI / line card / switch sleep countdowns
    // all live on the shared wheel. Failing the switch mid-countdown
    // must cancel them (a zombie timer would put a dead switch to
    // sleep), and the repair must restart the ladder cleanly.
    Simulator sim;
    TimerWheel &wheel = sim.timerWheel();
    NetworkConfig net_cfg;
    net_cfg.switchSleepDelay = 50 * msec;
    {
        Network net(sim, Topology::star(4, 1e9, 5 * usec),
                    SwitchPowerProfile::cisco2960_24(), net_cfg);
        auto trace = std::make_unique<TraceFaultModel>();
        trace->addFault({FaultKind::swtch, 0, 0}, 10 * msec,
                        200 * msec);
        FaultManagerConfig cfg;
        cfg.faultServers = false;
        cfg.faultSwitches = true;
        FaultManager fm(sim, std::move(trace), {}, &net, nullptr,
                        cfg);

        sim.runUntil(100 * msec);
        EXPECT_TRUE(net.switchAt(0).failed());
        // Injection events are background, so run() alone would stop
        // before the 200 ms repair: step past it with runUntil, which
        // drains background events too.
        sim.runUntil(400 * msec);
        EXPECT_FALSE(net.switchAt(0).failed());
        EXPECT_TRUE(net.switchAt(0).asleep());
        EXPECT_EQ(wheel.live(), 0u);
        EXPECT_FALSE(sim.hasPendingEvents());
        EXPECT_GT(wheel.stats().fired, 0u);
    }
    // Network destroyed while the wheel is alive: port/card/switch
    // dtors cancelled every handle they still held.
    EXPECT_EQ(wheel.live(), 0u);
}

// -------------------------------------------------------- DataCenter wiring

TEST(DcFault, DisabledByDefaultAndGatedStats)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    cfg.nCores = 1;
    DataCenter dc(cfg);
    EXPECT_EQ(dc.faults(), nullptr);
    std::ostringstream os;
    dc.dumpStats(os);
    EXPECT_EQ(os.str().find("reliability."), std::string::npos);
    EXPECT_EQ(os.str().find("frac_failed"), std::string::npos);
}

TEST(DcFault, ConfigKeysParse)
{
    auto ini = Config::parseString(R"(
[fault]
enabled = true
mttf_hours = 2.5
mttr_minutes = 3
distribution = weibull
weibull_shape = 1.2
fault_servers = true
fault_switches = false
max_retries = 4
retry_backoff_base_ms = 5
retry_backoff_max_ms = 500
task_timeout_ms = 2000
)");
    auto cfg = DataCenterConfig::fromConfig(ini);
    EXPECT_TRUE(cfg.fault.enabled);
    EXPECT_DOUBLE_EQ(cfg.fault.mttfHours, 2.5);
    EXPECT_DOUBLE_EQ(cfg.fault.mttrMinutes, 3.0);
    EXPECT_EQ(cfg.fault.distribution, "weibull");
    EXPECT_DOUBLE_EQ(cfg.fault.weibullShape, 1.2);
    EXPECT_EQ(cfg.fault.maxRetries, 4u);
    EXPECT_EQ(cfg.fault.retryBackoffBase, 5 * msec);
    EXPECT_EQ(cfg.fault.retryBackoffMax, 500 * msec);
    EXPECT_EQ(cfg.fault.taskTimeout, 2 * sec);

    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[fault]\nenabled = true\ndistribution = bogus\n")),
                 FatalError);
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[fault]\nenabled = true\nfault_links = true\n")),
                 FatalError);
}

TEST(DcFault, EnabledRunIsDeterministic)
{
    auto run_once = [](std::ostream &os) {
        DataCenterConfig cfg;
        cfg.nServers = 4;
        cfg.nCores = 1;
        cfg.seed = 11;
        cfg.fault.enabled = true;
        // Aggressive MTTF so a short run sees several faults.
        cfg.fault.mttfHours = 1.0 / 3600.0;  // 1 s
        cfg.fault.mttrMinutes = 0.5 / 60.0;  // 0.5 s
        cfg.fault.maxRetries = 5;
        cfg.fault.retryBackoffBase = 10 * msec;
        DataCenter dc(cfg);
        ASSERT_NE(dc.faults(), nullptr);
        for (JobId id = 0; id < 40; ++id) {
            Job j(id, 0);
            j.addTask(TaskSpec{200 * msec, 0, 1.0});
            j.validate();
            dc.scheduler().submitJob(std::move(j));
        }
        dc.run();
        dc.dumpStats(os);
    };

    std::ostringstream a, b;
    run_once(a);
    run_once(b);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("reliability.fleet_availability"),
              std::string::npos);
    EXPECT_NE(a.str().find("reliability.wasted_joules"),
              std::string::npos);
}
