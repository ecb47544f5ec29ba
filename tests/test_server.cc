/**
 * @file
 * Unit and integration tests for the full server model: local
 * queuing, sleep/wake transitions, power controllers and energy
 * accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "server/server.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

struct ServerFixture : ::testing::Test {
    Simulator sim;
    ServerPowerProfile prof;
    std::vector<TaskRef> completed;
    std::vector<Tick> completedAt;
    TaskDoneFn recorder{[this](Server &, const TaskRef &t) {
        completed.push_back(t);
        completedAt.push_back(sim.curTick());
    }};
    std::unique_ptr<Server> server;

    void
    makeServer(ServerConfig cfg = {})
    {
        server = std::make_unique<Server>(sim, cfg, prof);
        server->setTaskSink(&recorder);
    }

    TaskRef
    task(Tick service, JobId job = 0, int type = 0)
    {
        return TaskRef{job, 0, service, 1.0, type};
    }
};

} // namespace

TEST_F(ServerFixture, RunsSingleTask)
{
    makeServer();
    server->submit(task(5 * msec, 42));
    EXPECT_EQ(server->runningTasks(), 1u);
    EXPECT_EQ(server->observableState(), ServerState::active);
    sim.run();
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed[0].job, 42u);
    EXPECT_EQ(server->tasksCompleted(), 1u);
    EXPECT_TRUE(server->isIdle());
}

TEST(Server, TemporaryProfileOutlivesItsArgument)
{
    // The reference constructor copies the profile, so a server built
    // from a temporary reads no freed memory when it runs (ASan
    // builds report the dangling read if it ever stops copying).
    Simulator sim;
    std::vector<Tick> doneAt;
    Server server(sim, ServerConfig{}, ServerPowerProfile::xeonE5_2680());
    TaskDoneFn sink(
        [&](Server &, const TaskRef &) { doneAt.push_back(sim.curTick()); });
    server.setTaskSink(&sink);
    server.submit(TaskRef{7, 0, 3 * msec, 1.0, 0});
    sim.run();
    ASSERT_EQ(doneAt.size(), 1u);
    EXPECT_EQ(doneAt[0], 3 * msec);
    EXPECT_EQ(server.profile().pstates.size(),
              ServerPowerProfile::xeonE5_2680().pstates.size());
}

TEST_F(ServerFixture, ServerThatNeverRanATaskSurvivesFaultsAndSleep)
{
    // None of these paths may read running-task state, which a
    // server builds only when its first task starts.
    makeServer();
    sim.runUntil(1 * msec);
    EXPECT_TRUE(server->fail().empty());
    server->repair();
    EXPECT_FALSE(server->cancelTask(3, 0));
    EXPECT_TRUE(server->sleep(SState::s3));
    EXPECT_EQ(server->tasksKilled(), 0u);
    EXPECT_DOUBLE_EQ(server->wastedJoules(), 0.0);
    server.reset();
    EXPECT_FALSE(sim.hasPendingEvents());
}

TEST_F(ServerFixture, QueuesBeyondCoreCount)
{
    ServerConfig cfg;
    cfg.nCores = 2;
    makeServer(cfg);
    for (int i = 0; i < 5; ++i)
        server->submit(task(10 * msec, i));
    EXPECT_EQ(server->runningTasks(), 2u);
    EXPECT_EQ(server->pendingTasks(), 3u);
    EXPECT_EQ(server->load(), 5u);
    sim.run();
    EXPECT_EQ(completed.size(), 5u);
    // Two cores, five 10 ms tasks: 3 rounds.
    EXPECT_NEAR(toSeconds(sim.curTick()), 0.030, 0.002);
}

TEST_F(ServerFixture, UnifiedQueueIsFifo)
{
    ServerConfig cfg;
    cfg.nCores = 1;
    makeServer(cfg);
    for (int i = 0; i < 4; ++i)
        server->submit(task(1 * msec, i));
    sim.run();
    ASSERT_EQ(completed.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(completed[i].job, static_cast<JobId>(i));
}

TEST_F(ServerFixture, PerCoreQueueRoundRobin)
{
    ServerConfig cfg;
    cfg.nCores = 2;
    cfg.queueMode = LocalQueueMode::perCore;
    cfg.corePick = CorePickPolicy::roundRobin;
    makeServer(cfg);
    // Four long + immediate short: RR binds tasks 0,2 to core 0 and
    // 1,3 to core 1.
    for (int i = 0; i < 4; ++i)
        server->submit(task(10 * msec, i));
    EXPECT_EQ(server->runningTasks(), 2u);
    EXPECT_EQ(server->pendingTasks(), 2u);
    sim.run();
    EXPECT_EQ(completed.size(), 4u);
}

TEST_F(ServerFixture, HeterogeneousPrefersFastCore)
{
    ServerConfig cfg;
    cfg.nCores = 2;
    cfg.coreFreqGhz = {1.4, 2.8}; // slow, fast
    makeServer(cfg);
    server->submit(task(10 * msec, 7));
    // The fast core (id 1) must have been picked.
    EXPECT_TRUE(server->core(1).busy());
    EXPECT_FALSE(server->core(0).busy());
    sim.run();
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(server->core(1).tasksExecuted(), 1u);
}

TEST_F(ServerFixture, PackageEntersAndLeavesPc6)
{
    ServerConfig cfg;
    cfg.nCores = 2;
    makeServer(cfg);
    // Let the idle governor drive all cores to C6.
    sim.runUntil(10 * msec);
    EXPECT_EQ(server->pkgState(), PkgCState::pc6);
    EXPECT_EQ(server->observableState(), ServerState::pkgC6);
    server->submit(task(1 * msec));
    EXPECT_EQ(server->pkgState(), PkgCState::pc0);
    sim.run();
}

TEST_F(ServerFixture, Pc6DisallowedStopsAtPc2)
{
    ServerConfig cfg;
    cfg.allowPkgC6 = false;
    makeServer(cfg);
    sim.runUntil(10 * msec);
    EXPECT_EQ(server->pkgState(), PkgCState::pc2);
    EXPECT_EQ(server->observableState(), ServerState::idle);
}

TEST_F(ServerFixture, SetAllowPkgC6Runtime)
{
    makeServer();
    sim.runUntil(10 * msec);
    ASSERT_EQ(server->pkgState(), PkgCState::pc6);
    server->setAllowPkgC6(false);
    EXPECT_EQ(server->pkgState(), PkgCState::pc2);
    server->setAllowPkgC6(true);
    EXPECT_EQ(server->pkgState(), PkgCState::pc6);
}

TEST_F(ServerFixture, SleepRefusedWhileBusy)
{
    makeServer();
    server->submit(task(10 * msec));
    EXPECT_FALSE(server->sleep());
    EXPECT_EQ(server->sstate(), SState::s0);
    sim.run();
    EXPECT_TRUE(server->sleep());
    EXPECT_EQ(server->sstate(), SState::s3);
    EXPECT_TRUE(server->isAsleep());
}

TEST_F(ServerFixture, SubmitWhileAsleepTriggersWake)
{
    makeServer();
    ASSERT_TRUE(server->sleep());
    Tick slept = sim.curTick();
    server->submit(task(5 * msec, 3));
    EXPECT_TRUE(server->isWaking());
    EXPECT_EQ(server->observableState(), ServerState::wakingUp);
    sim.run();
    ASSERT_EQ(completed.size(), 1u);
    // Wake + entry latency, then C6 exit and the task itself.
    Tick expected = slept + prof.s3WakeLatency + prof.s3EntryLatency +
                    prof.c6ExitLatency + prof.pc6ExitLatency + 5 * msec;
    EXPECT_EQ(completedAt[0], expected);
    EXPECT_EQ(server->wakeTransitions(), 1u);
    EXPECT_EQ(server->sleepTransitions(), 1u);
}

TEST_F(ServerFixture, TasksBufferDuringWake)
{
    makeServer();
    ASSERT_TRUE(server->sleep());
    server->submit(task(5 * msec, 0));
    server->submit(task(5 * msec, 1));
    server->submit(task(5 * msec, 2));
    EXPECT_EQ(server->pendingTasks(), 3u);
    EXPECT_EQ(server->wakeTransitions(), 1u); // only one wake
    sim.run();
    EXPECT_EQ(completed.size(), 3u);
}

TEST_F(ServerFixture, DelayTimerSleepsAfterTau)
{
    makeServer();
    const Tick tau = 100 * msec;
    server->setDelayTimer(tau);
    server->submit(task(10 * msec));
    sim.run();
    // Idle from 10 ms; timer fires at 10 ms + tau.
    EXPECT_TRUE(server->isAsleep());
    EXPECT_EQ(sim.curTick(), 10 * msec + tau);
}

TEST_F(ServerFixture, DelayTimerCancelledByNewWork)
{
    makeServer();
    const Tick tau = 100 * msec;
    server->setDelayTimer(tau);
    server->submit(task(10 * msec));
    // New work arrives mid-countdown.
    EventFunctionWrapper more(
        [&] { server->submit(task(10 * msec, 1)); }, "more");
    sim.schedule(more, 50 * msec);
    sim.runUntil(60 * msec);
    EXPECT_FALSE(server->isAsleep());
    sim.run();
    // Finally sleeps tau after the second task ends (the second task
    // pays core C6 + package C6 exit latencies before its 10 ms).
    EXPECT_TRUE(server->isAsleep());
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completedAt[1],
              50 * msec + prof.c6ExitLatency + prof.pc6ExitLatency +
                  10 * msec);
    EXPECT_EQ(sim.curTick(), completedAt[1] + tau);
}

TEST_F(ServerFixture, DelayTimerAttachWhileIdleArms)
{
    makeServer();
    server->setDelayTimer(50 * msec);
    sim.run();
    EXPECT_TRUE(server->isAsleep());
    EXPECT_EQ(sim.curTick(), 50 * msec);
}

TEST_F(ServerFixture, ShortDelayTimerSuspendsToS3)
{
    // The sleep-pool behaviour: package C6 through the core idle
    // governor, then suspend-to-RAM after a short threshold.
    makeServer();
    server->setDelayTimer(20 * msec, SState::s3);
    server->submit(task(5 * msec));
    sim.run();
    EXPECT_TRUE(server->isAsleep());
    EXPECT_EQ(server->sstate(), SState::s3);
    EXPECT_EQ(sim.curTick(), 25 * msec);
}

TEST_F(ServerFixture, DrainedRunEndsAtTheSuspendAfterBackgroundEvents)
{
    // The idle ladder schedules nothing, yet a drained run() ends
    // where its last timer would have fired (10 ms + tau), running the
    // background events before it -- and none after.
    makeServer();
    const Tick tau = 100 * msec;
    server->setDelayTimer(tau);
    std::vector<Tick> beats;
    EventFunctionWrapper beat(
        [&] {
            beats.push_back(sim.curTick());
            // A read mid-countdown sees the server awake and its cores
            // at the bottom of their ladder.
            EXPECT_FALSE(server->isAsleep());
            if (sim.curTick() > 10 * msec + 600 * usec)
                EXPECT_EQ(server->core(0).cstate(), CoreCState::c6);
            sim.scheduleAfter(beat, 30 * msec);
        },
        "beat");
    beat.setBackground(true);
    sim.schedule(beat, 30 * msec);
    server->submit(task(10 * msec));
    EXPECT_EQ(sim.run(), 10 * msec + tau);
    EXPECT_EQ(beats, (std::vector<Tick>{30 * msec, 60 * msec, 90 * msec}));
    EXPECT_TRUE(server->isAsleep());
    sim.deschedule(beat);
}

TEST_F(ServerFixture, SameTickFollowUpFindsTheCoreStillInC0)
{
    // C1 comes 0 ns after a core idles, but a timer armed inside an
    // event fires only after it: work submitted by the completion
    // callback, in the same tick, starts with no exit latency.
    ServerConfig cfg;
    cfg.nCores = 1;
    makeServer(cfg);
    ASSERT_EQ(prof.demoteC1After, 0u);
    TaskDoneFn followUp([this](Server &s, const TaskRef &t) {
        completedAt.push_back(sim.curTick());
        if (t.job == 0)
            s.submit(task(2 * msec, 1));
    });
    server->setTaskSink(&followUp);
    server->submit(task(3 * msec, 0));
    sim.run();
    EXPECT_EQ(completedAt, (std::vector<Tick>{3 * msec, 5 * msec}));
    // The next tick's reader does see C1 (and C6 at the end).
    EXPECT_EQ(server->core(0).cstate(), CoreCState::c6);
}

TEST_F(ServerFixture, DisabledDelayTimerNeverSuspends)
{
    // A maxTick threshold must not be added to the clock: it would
    // wrap into the past and abort the run.
    makeServer();
    server->setDelayTimer(maxTick);
    server->submit(task(5 * msec));
    sim.run();
    EXPECT_EQ(completed.size(), 1u);
    EXPECT_FALSE(server->isAsleep());
}

TEST_F(ServerFixture, AlwaysOnNeverSuspends)
{
    makeServer();
    server->setDelayTimer(maxTick);
    server->submit(task(5 * msec));
    sim.run();
    sim.runUntil(10 * sec);
    EXPECT_FALSE(server->isAsleep());
    EXPECT_EQ(server->sstate(), SState::s0);
}

TEST_F(ServerFixture, ServesTypeFiltering)
{
    ServerConfig cfg;
    cfg.taskTypes = {7, 2, 3};
    makeServer(cfg);
    EXPECT_TRUE(server->servesType(2));
    EXPECT_TRUE(server->servesType(7));
    EXPECT_FALSE(server->servesType(1));
    EXPECT_FALSE(server->servesType(5));
    EXPECT_THROW(server->submit(task(1 * msec, 0, 1)), FatalError);
    ServerConfig any;
    makeServer(any);
    EXPECT_TRUE(server->servesType(77));
}

TEST_F(ServerFixture, EnergyAccountingMatchesHandComputation)
{
    ServerConfig cfg;
    cfg.nCores = 1;
    cfg.allowPkgC6 = false;
    // Disable the idle governor so the idle core stays in C0-idle;
    // that makes the hand computation exact.
    prof.demoteC1After = maxTick;
    makeServer(cfg);
    server->submit(task(10 * msec));
    sim.run();           // task done at 10 ms
    sim.runUntil(20 * msec);
    server->finishStats();
    const auto &e = server->energy();
    double active_cpu = (prof.coreActive + prof.pkgPc0) * 0.010;
    double idle_cpu = (prof.coreC0Idle + prof.pkgPc0) * 0.010;
    EXPECT_NEAR(e.cpu, active_cpu + idle_cpu, 1e-9);
    EXPECT_NEAR(e.dram,
                prof.dramActive * 0.010 + prof.dramIdle * 0.010, 1e-9);
    EXPECT_NEAR(e.platform, prof.platformS0 * 0.020, 1e-9);
    EXPECT_NEAR(e.total(), e.cpu + e.dram + e.platform, 1e-12);
}

TEST_F(ServerFixture, SleepSavesEnergyVersusIdle)
{
    // Two identical servers; one suspends, one idles for 10 s.
    makeServer();
    ServerConfig sleeper_cfg;
    sleeper_cfg.id = 1;
    auto sleeper = std::make_unique<Server>(sim, sleeper_cfg, prof);
    ASSERT_TRUE(sleeper->sleep());
    sim.runUntil(10 * sec);
    server->finishStats();
    sleeper->finishStats();
    EXPECT_LT(sleeper->energy().total(),
              0.25 * server->energy().total());
}

TEST_F(ServerFixture, ResidencyCoversAllTime)
{
    makeServer();
    server->setDelayTimer(100 * msec);
    for (int i = 0; i < 3; ++i) {
        server->submit(task(10 * msec, i));
        sim.run();
        sim.runUntil(sim.curTick() + 500 * msec);
    }
    server->finishStats();
    const auto &res = server->residency();
    Tick total = 0;
    for (int s = 0; s < 5; ++s)
        total += res.residency(s);
    EXPECT_EQ(total, sim.curTick());
    EXPECT_GT(res.residency(static_cast<int>(ServerState::active)), 0u);
    EXPECT_GT(res.residency(static_cast<int>(ServerState::sysSleep)),
              0u);
    EXPECT_GT(res.residency(static_cast<int>(ServerState::wakingUp)),
              0u);
}

TEST_F(ServerFixture, WakePowerIsHigh)
{
    makeServer();
    ASSERT_TRUE(server->sleep());
    Watts sleep_power = server->power();
    server->submit(task(1 * msec));
    ASSERT_TRUE(server->isWaking());
    EXPECT_GT(server->power(), 10.0 * sleep_power);
    sim.run();
}

TEST_F(ServerFixture, CallbackMaySubmitFollowUpWork)
{
    ServerConfig cfg;
    cfg.nCores = 1;
    makeServer(cfg);
    int chained = 0;
    TaskDoneFn chain([&](Server &srv, const TaskRef &t) {
        if (t.job < 3) {
            ++chained;
            srv.submit(TaskRef{t.job + 1, 0, 1 * msec, 1.0, 0});
        }
    });
    server->setTaskSink(&chain);
    server->submit(task(1 * msec, 0));
    sim.run();
    EXPECT_EQ(chained, 3);
    EXPECT_EQ(server->tasksCompleted(), 4u);
}

TEST_F(ServerFixture, ConfigValidation)
{
    ServerConfig cfg;
    cfg.nCores = 0;
    EXPECT_THROW(Server(sim, cfg, prof), FatalError);
    cfg = ServerConfig{};
    cfg.nCores = 4;
    cfg.coreFreqGhz = {1.0, 2.0}; // wrong size
    EXPECT_THROW(Server(sim, cfg, prof), FatalError);
}
