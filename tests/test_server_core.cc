/**
 * @file
 * Unit tests for the core model: C-state machine, DVFS scaling and
 * the idle governor, exercised through a one-core CorePool.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "server/core.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

struct RecordingHost : CoreHost {
    Simulator *sim = nullptr;
    int accrues = 0;
    int changes = 0;
    Tick doneAt = 0;
    std::vector<TaskRef> done;

    void coreAccrue(Tick) override { ++accrues; }
    void coreStateChanged(Tick) override { ++changes; }
    void
    coreTaskDone(unsigned, const TaskRef &t) override
    {
        doneAt = sim->curTick();
        done.push_back(t);
    }
};

struct CoreFixture : ::testing::Test {
    Simulator sim;
    ServerPowerProfile prof;
    RecordingHost host;
    std::optional<CorePool> pool;
    std::optional<Core> core;

    void
    makeCore(double freq = 0.0)
    {
        if (freq == 0.0)
            freq = prof.pstates[0].freqGhz;
        host.sim = &sim;
        pool.emplace(sim, host, prof, 1, std::vector<double>{freq});
        core.emplace(*pool, 0);
    }

    TaskRef
    task(Tick service, double intensity = 1.0)
    {
        return TaskRef{0, 0, service, intensity, 0};
    }
};

} // namespace

TEST_F(CoreFixture, ExecutesTaskForServiceTime)
{
    makeCore();
    core->startTask(task(5 * msec), 0);
    EXPECT_TRUE(core->busy());
    sim.run();
    EXPECT_FALSE(core->busy());
    // Started from C0-idle: no exit latency.
    EXPECT_EQ(host.doneAt, 5 * msec);
    ASSERT_EQ(host.done.size(), 1u);
    EXPECT_EQ(core->tasksExecuted(), 1u);
}

TEST_F(CoreFixture, IdleGovernorDemotesThroughStates)
{
    makeCore();
    // Demotion thresholds (defaults): C1 immediately, C3 after
    // 100 us in C1, C6 after 500 us more.
    sim.runUntil(1);
    EXPECT_EQ(core->cstate(), CoreCState::c1);
    sim.runUntil(prof.demoteC3After + 1);
    EXPECT_EQ(core->cstate(), CoreCState::c3);
    sim.runUntil(prof.demoteC3After + prof.demoteC6After + 1);
    EXPECT_EQ(core->cstate(), CoreCState::c6);
    // Terminal state: queue drained.
    EXPECT_FALSE(sim.hasPendingEvents());
}

TEST_F(CoreFixture, WakeLatencyDelaysCompletion)
{
    makeCore();
    sim.runUntil(10 * msec); // governor reaches C6
    ASSERT_EQ(core->cstate(), CoreCState::c6);
    Tick started = sim.curTick();
    core->startTask(task(1 * msec), 0);
    sim.run();
    EXPECT_EQ(host.doneAt, started + prof.c6ExitLatency + 1 * msec);
}

TEST_F(CoreFixture, ExtraWakeLatencyApplied)
{
    makeCore();
    Tick extra = 600 * usec;
    core->startTask(task(1 * msec), extra);
    sim.run();
    EXPECT_EQ(host.doneAt, extra + 1 * msec);
}

TEST_F(CoreFixture, PStateSlowsComputeBoundTask)
{
    makeCore();
    core->setPState(2); // 2.0 GHz vs nominal 2.8
    Tick t = core->processingTime(task(10 * msec, 1.0));
    EXPECT_NEAR(static_cast<double>(t), 10.0 * msec * 2.8 / 2.0,
                1.0);
}

TEST_F(CoreFixture, MemoryBoundTaskUnaffectedByFrequency)
{
    makeCore();
    core->setPState(4); // slowest
    Tick t = core->processingTime(task(10 * msec, 0.0));
    EXPECT_EQ(t, 10 * msec);
}

TEST_F(CoreFixture, MixedIntensityInterpolates)
{
    makeCore();
    core->setPState(2); // ratio 2.8/2.0 = 1.4
    Tick t = core->processingTime(task(10 * msec, 0.5));
    EXPECT_NEAR(static_cast<double>(t),
                10.0 * msec * (0.5 * 1.4 + 0.5), 1.0);
}

TEST_F(CoreFixture, HeterogeneousBaseFrequency)
{
    makeCore(1.4); // half the nominal 2.8 GHz
    EXPECT_DOUBLE_EQ(core->frequencyGhz(), 1.4);
    Tick t = core->processingTime(task(10 * msec, 1.0));
    EXPECT_NEAR(static_cast<double>(t), 20.0 * msec, 1.0);
}

TEST_F(CoreFixture, ProcessingTimeSaturatesInsteadOfOverflowing)
{
    makeCore();
    core->setPState(4); // slowest: ratio > 1 amplifies further
    // A service time near the Tick ceiling scaled by the P-state
    // ratio exceeds 2^64 ns; the cast must saturate, not invoke UB.
    Tick t = core->processingTime(task(maxTick - 5, 1.0));
    EXPECT_EQ(t, maxTick);
    // Just below the ceiling stays exact.
    EXPECT_EQ(core->processingTime(task(10 * msec, 0.0)), 10 * msec);
}

TEST_F(CoreFixture, PowerFollowsCState)
{
    makeCore();
    EXPECT_DOUBLE_EQ(core->power(), prof.coreC0Idle);
    core->startTask(task(1 * msec), 0);
    EXPECT_DOUBLE_EQ(core->power(), prof.coreActive);
    sim.run();
    sim.runUntil(sim.curTick() + 10 * msec);
    EXPECT_EQ(core->cstate(), CoreCState::c6);
    EXPECT_DOUBLE_EQ(core->power(), prof.coreC6);
}

TEST_F(CoreFixture, ActivePowerScalesWithPState)
{
    makeCore();
    core->setPState(1);
    core->startTask(task(1 * msec), 0);
    EXPECT_DOUBLE_EQ(core->power(),
                     prof.coreActive * prof.pstates[1].powerScale);
    sim.run();
}

TEST_F(CoreFixture, ForceDeepSleepFromIdle)
{
    makeCore();
    core->forceDeepSleep();
    EXPECT_EQ(core->cstate(), CoreCState::c6);
    // No demotion events left behind.
    EXPECT_FALSE(sim.hasPendingEvents());
}

TEST_F(CoreFixture, IdlePoolNeverBuildsBusyState)
{
    // The governor ladder, a forced sleep and destruction need no
    // busy state; a task start takes a block, its completion or abort
    // hands it back to the simulator's cache, and the next start takes
    // that one again.
    makeCore();
    sim.runUntil(10 * msec);
    EXPECT_EQ(core->cstate(), CoreCState::c6);
    core->forceDeepSleep();
    EXPECT_FALSE(pool->holdsBusyBlock());
    EXPECT_EQ(sim.blockCache().spares(), 0u);
    core->startTask(task(1 * msec), 0);
    EXPECT_TRUE(pool->holdsBusyBlock());
    sim.run();
    EXPECT_FALSE(pool->holdsBusyBlock());
    EXPECT_EQ(sim.blockCache().spares(), 1u);
    core->startTask(task(1 * msec), 0);
    EXPECT_TRUE(pool->holdsBusyBlock());
    EXPECT_EQ(sim.blockCache().spares(), 0u);
    core->abortTask();
    EXPECT_FALSE(pool->holdsBusyBlock());
    EXPECT_EQ(sim.blockCache().spares(), 1u);

    RecordingHost other;
    other.sim = &sim;
    {
        CorePool idle(sim, other, prof, 4);
        Core(idle, 3).forceDeepSleep();
        EXPECT_FALSE(idle.holdsBusyBlock());
    }
    EXPECT_FALSE(sim.hasPendingEvents());
}

TEST_F(CoreFixture, BusyBlockStaysWhileAnyCoreRuns)
{
    // Two cores of one pool: the block goes back only when the last
    // of them stops, whether it completes or is aborted, and a pool
    // destroyed mid-task hands its block back too.
    host.sim = &sim;
    CorePool two(sim, host, prof, 2);
    Core a(two, 0), b(two, 1);
    a.startTask(task(1 * msec), 0);
    b.startTask(task(3 * msec), 0);
    sim.runUntil(2 * msec);
    ASSERT_EQ(host.done.size(), 1u);
    EXPECT_TRUE(two.holdsBusyBlock());
    b.abortTask();
    EXPECT_FALSE(two.holdsBusyBlock());
    EXPECT_EQ(sim.blockCache().spares(), 1u);
    {
        CorePool doomed(sim, host, prof, 2);
        Core(doomed, 1).startTask(task(1 * msec), 0);
        EXPECT_EQ(sim.blockCache().spares(), 0u);
    }
    EXPECT_EQ(sim.blockCache().spares(), 1u);
    EXPECT_FALSE(sim.hasPendingEvents());
}

TEST_F(CoreFixture, AbortReturnsRunningTaskAndWastedEnergy)
{
    makeCore();
    for (JobId job : {5u, 6u}) {
        Tick started = sim.curTick();
        core->startTask(TaskRef{job, 2, 10 * msec, 1.0, 0}, 0);
        sim.runUntil(started + 4 * msec);
        ASSERT_TRUE(core->busy());
        EXPECT_EQ(core->currentTask().job, job);
        Core::AbortResult aborted = core->abortTask();
        EXPECT_EQ(aborted.task.job, job);
        EXPECT_EQ(aborted.task.task, 2u);
        EXPECT_EQ(aborted.ran, 4 * msec);
        EXPECT_DOUBLE_EQ(aborted.wasted,
                         energyOver(prof.coreActive, 4 * msec));
        EXPECT_FALSE(core->busy());
    }
    sim.run();
    // Neither aborted task reports a completion.
    EXPECT_TRUE(host.done.empty());
    EXPECT_EQ(core->tasksExecuted(), 0u);
}

TEST_F(CoreFixture, ResidencyTracksStates)
{
    makeCore();
    core->startTask(task(10 * msec), 0);
    sim.run();
    sim.runUntil(20 * msec);
    core->finishStats(sim.curTick());
    const auto &res = core->residency();
    EXPECT_EQ(res.residency(static_cast<int>(CoreCState::c0Active)),
              10 * msec);
    EXPECT_GT(res.residency(static_cast<int>(CoreCState::c6)), 0u);
}

TEST_F(CoreFixture, RejectsBadParameters)
{
    makeCore();
    EXPECT_THROW(core->setPState(99), FatalError);
    RecordingHost other;
    other.sim = &sim;
    EXPECT_THROW(CorePool(sim, other, prof, 1, {-1.0}), FatalError);
    EXPECT_THROW(CorePool(sim, other, prof, 0), FatalError);
    EXPECT_THROW(CorePool(sim, other, prof, 2, {2.8}), FatalError);
}

TEST_F(CoreFixture, ProfileValidation)
{
    ServerPowerProfile bad;
    bad.coreC6 = bad.coreActive + 1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = ServerPowerProfile{};
    bad.pstates.clear();
    EXPECT_THROW(bad.validate(), FatalError);
    bad = ServerPowerProfile{};
    bad.pstates = {{2.0, 1.0}, {2.8, 1.2}}; // wrong order
    EXPECT_THROW(bad.validate(), FatalError);
    EXPECT_NO_THROW(ServerPowerProfile::xeonE5_2680().validate());
    EXPECT_NO_THROW(
        ServerPowerProfile::xeonE5_2680RaplOnly().validate());
}
