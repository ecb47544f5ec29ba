/**
 * @file
 * Tests for the fault subsystem: fault models (scripted + stochastic),
 * the fault-trace reader, the fault manager's injection/repair cycle
 * and availability books, retry/backoff in the global scheduler,
 * fault-driven flow aborts in the network, and a warmup reset on a
 * faulted plant.
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

    /** A model replaying @p faults exactly as written. */
    static std::unique_ptr<FaultModel>
    script(const std::vector<ScheduledFault> &faults)
    {
        return std::make_unique<ScriptedFaultModel>(faults);
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

TEST(ScriptedFaultModel, ReplaysSortedEpisodes)
{
    FaultTarget t{FaultKind::server, 0, 0};
    // Given out of order; the model hands the episodes out in time
    // order.
    ScriptedFaultModel m({
        {t, {300 * msec, 400 * msec}},
        {t, {100 * msec, 200 * msec}},
    });

    auto first = m.nextFault(t, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->downAt, 100 * msec);
    EXPECT_EQ(first->upAt, 200 * msec);

    auto second = m.nextFault(t, 200 * msec);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->downAt, 300 * msec);
    EXPECT_EQ(second->upAt, 400 * msec);

    EXPECT_FALSE(m.nextFault(t, 400 * msec).has_value());
    // A different target has no schedule at all.
    EXPECT_FALSE(
        m.nextFault({FaultKind::server, 1, 0}, 0).has_value());
}

TEST(ScriptedFaultModel, HandsOutTargetsIndependently)
{
    FaultTarget s0{FaultKind::server, 0, 0};
    FaultTarget s1{FaultKind::server, 1, 0};
    // Each target keeps its own queue, whatever order the targets ask
    // in.
    ScriptedFaultModel m({
        {s0, {300 * msec, 400 * msec}},
        {s0, {100 * msec, 200 * msec}},
        {s1, {150 * msec, 250 * msec}},
    });

    auto first = m.nextFault(s0, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->downAt, 100 * msec);
    auto other = m.nextFault(s1, 0);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->downAt, 150 * msec);
    EXPECT_EQ(other->upAt, 250 * msec);
    auto second = m.nextFault(s0, 200 * msec);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->downAt, 300 * msec);

    EXPECT_FALSE(m.nextFault(s0, 400 * msec).has_value());
    EXPECT_FALSE(m.nextFault(s1, 250 * msec).has_value());
}

TEST(ScriptedFaultModel, PassedEpisodeIsFatal)
{
    FaultTarget t{FaultKind::link, 3, 0};
    ScriptedFaultModel m({
        {t, {100 * msec, 200 * msec}},
        {t, {300 * msec, 500 * msec}},
    });
    ASSERT_TRUE(m.nextFault(t, 0).has_value());

    // Asking from inside the second episode: it cannot replay as
    // written, and the model neither clamps nor skips it. The message
    // names the target and both ticks.
    try {
        m.nextFault(t, 350 * msec);
        FAIL() << "a passed episode was handed out";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("link.3"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(300 * msec)), std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(350 * msec)), std::string::npos)
            << what;
    }
}

TEST(ScriptedFaultModel, FatalsInsteadOfDriftingFromTheScript)
{
    FaultTarget t{FaultKind::server, 0, 0};
    // Asking exactly at an episode's start still replays it as
    // written.
    {
        ScriptedFaultModel m({{t, {100 * msec, 200 * msec}}});
        auto rec = m.nextFault(t, 100 * msec);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->downAt, 100 * msec);
        EXPECT_EQ(rec->upAt, 200 * msec);
    }
    // One tick later the first episode has passed: the model refuses
    // rather than shift or drop it.
    {
        ScriptedFaultModel m({{t, {100 * msec, 200 * msec}}});
        EXPECT_THROW(m.nextFault(t, 100 * msec + 1), FatalError);
    }
}

TEST(ScriptedFaultModel, RejectsOverlapAndEmptyEpisodes)
{
    FaultTarget t{FaultKind::server, 0, 0};
    EXPECT_THROW(ScriptedFaultModel({{t, {200 * msec, 200 * msec}}}),
                 FatalError);
    EXPECT_THROW(ScriptedFaultModel({
                     {t, {100 * msec, 300 * msec}},
                     {t, {200 * msec, 400 * msec}},
                 }),
                 FatalError);
    // Back to back is not an overlap.
    EXPECT_NO_THROW(ScriptedFaultModel({
        {t, {100 * msec, 200 * msec}},
        {t, {200 * msec, 400 * msec}},
    }));
}

TEST(FaultTrace, ReadsTraceFile)
{
    std::string path = ::testing::TempDir() + "holdcsim_faults.txt";
    {
        std::ofstream f(path);
        f << "# component index down_s up_s\n";
        f << "server 2 1.0 2.5\n";
        f << "\n";
        f << "switch 0 0.5 0.75  # trailing comment\n";
        f << "link 7 3.0 3.5\n";
        f << "linecard 1 3 4.0 5.0\n";
    }
    const std::vector<ScheduledFault> faults = readFaultTrace(path);
    // File order, comments and blank lines dropped.
    const std::vector<ScheduledFault> expect = {
        {{FaultKind::server, 2, 0}, {fromSeconds(1.0), fromSeconds(2.5)}},
        {{FaultKind::swtch, 0, 0}, {fromSeconds(0.5), fromSeconds(0.75)}},
        {{FaultKind::link, 7, 0}, {fromSeconds(3.0), fromSeconds(3.5)}},
        {{FaultKind::linecard, 1, 3}, {fromSeconds(4.0), fromSeconds(5.0)}},
    };
    EXPECT_EQ(faults, expect);

    EXPECT_THROW(readFaultTrace("/nonexistent/faults"), FatalError);
    // A malformed line names its file and line number.
    std::istringstream bad("server 1 0.1 0.2\nlink seven 0.1 0.2\n");
    try {
        readFaultTrace(bad, "bad.trace");
        FAIL() << "a malformed line was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.trace:2"),
                  std::string::npos)
            << e.what();
    }
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
    makeManager(script({
        {{FaultKind::server, 0, 0}, {100 * msec, 300 * msec}},
    }));

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
    makeManager(script({
        {{FaultKind::server, 0, 0}, {100 * msec, 300 * msec}},
        {{FaultKind::server, 1, 0}, {200 * msec, 10 * sec}},
    }));

    sim.runUntil(1 * sec);

    ASSERT_EQ(mgr->episodeLog().size(), 2u);
    EXPECT_EQ(mgr->episodeLog()[0].record.downAt, 100 * msec);
    EXPECT_EQ(mgr->episodeLog()[0].record.upAt, 300 * msec);
    EXPECT_EQ(mgr->episodeLog()[1].record.downAt, 200 * msec);
    // Server 1 is still down: the log keeps the episode open...
    EXPECT_EQ(mgr->episodeLog()[1].record.upAt, maxTick);

    // ...and the exported trace closes it one tick past the clock,
    // in text readFaultTrace (fault_trace, the mc explorer) loads.
    std::ostringstream os;
    mgr->writeScheduleTrace(os);
    std::istringstream in(os.str());
    const std::vector<ScheduledFault> parsed = readFaultTrace(in, "export");
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].record.downAt, 100 * msec);
    EXPECT_EQ(parsed[0].record.upAt, 300 * msec);
    EXPECT_EQ(parsed[1].record.downAt, 200 * msec);
    EXPECT_EQ(parsed[1].record.upAt, sim.curTick() + 1);
}

TEST_F(FaultFixture, ScheduleTraceBytesAreGolden)
{
    // The exported trace is what --fault-schedule-out writes and what
    // fault_trace and --replay-schedule read back: pin its bytes. The
    // episodes are listed in firing order (server 1 first), and server
    // 0's second episode is still open when the trace is written.
    makeFleet(2);
    makeManager(script({
        {{FaultKind::server, 0, 0}, {100 * msec, 300 * msec}},
        {{FaultKind::server, 0, 0}, {400 * msec + 1, 10 * sec}},
        {{FaultKind::server, 1, 0}, {50 * msec, 150 * msec}},
    }));
    sim.runUntil(1 * sec);

    std::ostringstream os;
    mgr->writeScheduleTrace(os);
    EXPECT_EQ(os.str(),
              "# realized fault schedule (3 episodes, exported at tick "
              "1000000000)\n"
              "server 1 0.050000000 0.150000000\n"
              "server 0 0.100000000 0.300000000\n"
              "server 0 0.400000001 1.000000001\n");
}

TEST_F(FaultFixture, AbortDumpNamesTheActiveFaultSchedule)
{
    makeFleet(2);
    makeManager(script({
        {{FaultKind::server, 0, 0}, {100 * msec, 300 * msec}},
        {{FaultKind::server, 1, 0}, {200 * msec, 10 * sec}},
    }));
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
    // Round-robin places job 0 on server 0; kill it mid-run.
    makeManager(script({
        {{FaultKind::server, 0, 0}, {10 * msec, 50 * msec}},
    }));

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
    // The only server stays down far past the retry budget.
    makeManager(script({
        {{FaultKind::server, 0, 0}, {10 * msec, 10 * sec}},
    }));

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
    makeManager(script({
        {{FaultKind::server, 0, 0}, {10 * msec, 60 * msec}},
    }));

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
    // watched through the governor timers' deferred stages. A server
    // failure forces cores into deep sleep mid-ladder; no stage
    // pending before the crash may survive it -- a zombie would
    // either fire into a failed machine or keep the run alive.
    makeFleet(2);
    makeScheduler(flatPolicy(3));
    makeManager(script({
        {{FaultKind::server, 0, 0}, {10 * msec, 50 * msec}},
        {{FaultKind::server, 1, 0}, {200 * msec, 300 * msec}},
    }));

    sched->submitJob(singleTaskJob(0, 100 * msec));
    sim.run();

    ASSERT_EQ(finished.size(), 1u);
    EXPECT_TRUE(failed.empty());
    EXPECT_EQ(sched->taskRetries(), 1u);
    EXPECT_EQ(servers[0]->tasksKilled(), 1u);
    EXPECT_EQ(servers[1]->tasksCompleted(), 1u);

    // The run drained: every governor ladder ran dry, and no zombie
    // stage survives the fail/repair cycles. Server 1's unused 200 ms
    // fault cycle legitimately remains queued -- injection events are
    // background -- so the check is that nothing foreground and no
    // deferred stage is left: re-running must not advance the clock.
    const Tick done = sim.curTick();
    EXPECT_EQ(sim.eventQueue().foregroundCount(), 0u);
    for (const DeferredTimers *d : sim.deferred())
        EXPECT_LE(d->lastDeferredTick(), done);
    sim.run();
    EXPECT_EQ(sim.curTick(), done);
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
    auto trace = std::make_unique<ScriptedFaultModel>(
        std::vector<ScheduledFault>{
            {{FaultKind::swtch, 0, 0}, {100 * msec, 300 * msec}},
        });
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
    // LPI, line card and switch sleep countdowns are the switch's
    // deferred stages. Failing the switch mid-countdown must cancel
    // its sleep (a zombie stage would put a dead switch to sleep), and
    // the repair must restart the ladder cleanly.
    Simulator sim;
    NetworkConfig net_cfg;
    net_cfg.switchSleepDelay = 50 * msec;
    {
        Network net(sim, Topology::star(4, 1e9, 5 * usec),
                    SwitchPowerProfile::cisco2960_24(), net_cfg);
        auto trace = std::make_unique<ScriptedFaultModel>(
            std::vector<ScheduledFault>{
                {{FaultKind::swtch, 0, 0}, {10 * msec, 200 * msec}},
            });
        FaultManagerConfig cfg;
        cfg.faultServers = false;
        cfg.faultSwitches = true;
        FaultManager fm(sim, std::move(trace), {}, &net, nullptr,
                        cfg);

        Switch &sw = net.switchAt(0);
        sim.runUntil(100 * msec);
        EXPECT_TRUE(sw.failed());
        // Ports and the card go idle while the switch is down, but a
        // failed switch starts no sleep countdown: nothing is pending.
        EXPECT_FALSE(sw.asleep());
        EXPECT_EQ(sw.lineCard(0).state(), LineCardState::sleep);
        EXPECT_EQ(sw.lastDeferredTick(), 0u);
        // Injection events are background, so run() alone would stop
        // before the 200 ms repair: step past it with runUntil, which
        // drains background events too.
        sim.runUntil(400 * msec);
        EXPECT_FALSE(sw.failed());
        EXPECT_TRUE(sw.asleep());
        EXPECT_EQ(sw.sleepTransitions(), 1u);
        EXPECT_EQ(sw.lastDeferredTick(), 0u);
        EXPECT_FALSE(sim.hasPendingEvents());
        ASSERT_EQ(sim.deferred().size(), 1u);
    }
    // The destroyed switch left the simulator's deferred list.
    EXPECT_TRUE(sim.deferred().empty());
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

namespace {

/**
 * 8 x 2-core servers on a star (delay timer 5 ms, switch sleep 1 ms)
 * under 16 KiB chain jobs, with server 1 down 0.3-0.7 s, link 2 down
 * 0.2-0.9 s and switch 0 down 1.2-1.3 s.
 */
struct FaultedStar {
    DataCenter dc;
    ConfiguredWorkload wl;

    static DataCenterConfig
    config()
    {
        DataCenterConfig cfg;
        cfg.nServers = 8;
        cfg.nCores = 2;
        cfg.fabric = DataCenterConfig::Fabric::star;
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = 5 * msec;
        cfg.netConfig.switchSleepDelay = 1 * msec;
        cfg.workload.job = DataCenterConfig::WorkloadSettings::Shape::chain;
        cfg.workload.transferBytes = 16 * 1024;
        cfg.workload.duration = 2 * sec;
        cfg.fault.enabled = true;
        cfg.fault.faultSwitches = true;
        cfg.fault.faultLinks = true;
        cfg.fault.schedule = {
            {{FaultKind::server, 1, 0}, {300 * msec, 700 * msec}},
            {{FaultKind::link, 2, 0}, {200 * msec, 900 * msec}},
            {{FaultKind::swtch, 0, 0}, {1200 * msec, 1300 * msec}},
        };
        return cfg;
    }

    FaultedStar()
        : dc(config()), wl(makeWorkload(dc.config().workload, dc.config(),
                                        dc.config().seed))
    {
        dc.pump(std::move(wl.arrivals), *wl.jobs, wl.maxJobs, wl.until);
    }
};

} // namespace

TEST(DcFault, WarmupResetOnFaultedFabricRestartsEveryBook)
{
    FaultedStar plain;
    const Tick plain_end = plain.dc.run();

    FaultedStar warm;
    const Tick reset_at = 500 * msec;
    warm.dc.runUntil(reset_at);
    warm.dc.resetStats();
    const Tick end = warm.dc.run();
    warm.dc.finishStats();

    // The reset changes no event: same end tick, same event count.
    EXPECT_EQ(end, plain_end);
    EXPECT_EQ(warm.dc.sim().eventsProcessed(),
              plain.dc.sim().eventsProcessed());

    // Every residency book covers exactly the measured interval.
    const Tick measured = end - reset_at;
    for (std::size_t i = 0; i < warm.dc.numServers(); ++i)
        EXPECT_EQ(warm.dc.server(i).residency().totalTime(), measured)
            << "server " << i;
    Switch &sw = warm.dc.network()->switchAt(0);
    EXPECT_EQ(sw.residency().totalTime(), measured);
    for (unsigned p = 0; p < sw.numPorts(); ++p)
        EXPECT_EQ(sw.port(p).residency().totalTime(), measured)
            << "port " << p;
    for (unsigned c = 0; c < sw.numLineCards(); ++c)
        EXPECT_EQ(sw.lineCard(c).residency().totalTime(), measured)
            << "line card " << c;
    FaultManager &faults = *warm.dc.faults();
    for (std::size_t i = 0; i < faults.numTargets(); ++i)
        EXPECT_EQ(faults.componentStats(i).residency.totalTime(), measured)
            << toString(faults.componentStats(i).target);

    // Only the switch fault fires after the reset; the server and the
    // link, down across it, reopen their episodes at the reset tick.
    EXPECT_EQ(faults.faultsInjected(), 1u);
    std::ostringstream os;
    faults.writeScheduleTrace(os);
    EXPECT_EQ(os.str(), "# realized fault schedule (3 episodes, exported "
                        "at tick " + std::to_string(end) + ")\n"
                        "server 1 0.500000000 0.700000000\n"
                        "link 2 0.500000000 0.900000000\n"
                        "switch 0 1.200000000 1.300000000\n");
}
