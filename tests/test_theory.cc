/**
 * @file
 * Queueing-theory checks (ctest -L theory): laws the model must obey
 * whatever its configuration, so a failure is a model bug, not a
 * tolerance to widen.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dc/datacenter.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"
#include "workload/service.hh"

using namespace holdcsim;

// ---------------------------------------------------------------------------
// Property: Little's law, exactly in ticks. On a plant of single-task
// jobs with no fabric that starts and ends empty, the number of jobs in
// the system is the tasks the servers hold (queued or running) plus
// those parked in the global queue. Its integral over the run must
// equal the sum of every job's response time (completion - arrival):
// each job is counted in the system from the tick it arrives to the
// tick it completes, and in no other. The scheduler's load-changed
// hook fires after every change of either count, so the integral is
// accumulated there. This ties the scheduler's job bookkeeping to the
// servers' queue bookkeeping. No faults: a task backing off between
// attempts is in no queue.
// ---------------------------------------------------------------------------

class LittleLawProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LittleLawProperty, JobsInSystemIntegrateToTotalResponseTime)
{
    Rng rng(GetParam(), "little-law");
    auto pick = [&rng](auto... options) {
        const std::vector<std::common_type_t<decltype(options)...>> v{
            options...};
        return v[rng.uniformInt(0, v.size() - 1)];
    };
    DataCenterConfig cfg;
    cfg.seed = GetParam();
    cfg.nServers = static_cast<unsigned>(rng.uniformInt(2, 24));
    cfg.nCores = static_cast<unsigned>(rng.uniformInt(1, 4));
    cfg.queueMode = pick(LocalQueueMode::unified, LocalQueueMode::perCore);
    using Dispatch = DataCenterConfig::Dispatch;
    cfg.dispatch =
        pick(Dispatch::roundRobin, Dispatch::leastLoaded, Dispatch::random);
    cfg.useGlobalQueue = rng.bernoulli(0.4);
    if (rng.bernoulli(0.6)) {
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = pick(Tick{0}, 600 * usec, 20 * msec);
    }
    if (rng.bernoulli(0.5)) {
        cfg.timerMode = DataCenterConfig::TimerMode::wheel;
        cfg.wheelGranularity = pick(100 * usec, 1 * msec);
    }
    DataCenter dc(cfg);
    Simulator &sim = dc.sim();
    GlobalScheduler &sched = dc.scheduler();

    std::uint64_t in_system = 0, area = 0, response = 0, done = 0;
    Tick last = 0;
    sched.setLoadChangedHook([&] {
        area += in_system * (sim.curTick() - last);
        last = sim.curTick();
        in_system = sched.globalQueueLength();
        for (std::size_t i = 0; i < dc.numServers(); ++i)
            in_system += dc.server(i).load();
    });
    sched.setJobDoneCallback([&](JobId, Tick latency) {
        response += latency;
        ++done;
    });

    const Tick mean = pick(1 * msec, 5 * msec);
    SingleTaskGenerator gen(
        std::make_shared<ExponentialService>(mean, dc.makeRng("service")));
    const double rho = rng.uniform(0.1, 0.9);
    const std::size_t jobs = rng.uniformInt(100, 400);
    dc.pump(std::make_unique<PoissonArrival>(
                rho * cfg.nServers * cfg.nCores / toSeconds(mean),
                dc.makeRng("arrivals")),
            gen, jobs);
    dc.run();

    ASSERT_EQ(done, jobs);
    EXPECT_EQ(in_system, 0u);
    EXPECT_GT(area, 0u);
    EXPECT_EQ(area, response)
        << cfg.nServers << " x " << cfg.nCores << " cores, pull "
        << cfg.useGlobalQueue << ", rho " << rho;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LittleLawProperty,
                         ::testing::Range<std::uint64_t>(1, 21));
