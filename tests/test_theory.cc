/**
 * @file
 * Queueing-theory checks (ctest -L theory): laws the model must obey
 * whatever its configuration, so a failure is a model bug, not a
 * tolerance to widen.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "dc/datacenter.hh"
#include "exp/campaign.hh"
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

// ---------------------------------------------------------------------------
// Reference: the server model against closed-form queueing theory. One
// server with C-state demotion and the delay timer off, Poisson
// arrivals and exponential service, single-task jobs and no fabric, is
// an M/M/k queue (k = its cores, one unified FIFO, any free core takes
// the head): the mean response time is 1/(mu - lambda) for k = 1 and
// Erlang C's wait plus 1/mu for k > 1. The mean over a fixed seed list
// of CampaignRunner replicas must cover it with its 99% Student t
// interval. Each replica drops its first jobs (the queue starts empty)
// and averages the rest.
// ---------------------------------------------------------------------------

namespace {

struct QueueCase {
    const char *name;
    unsigned cores;
    double rho;
};

void
PrintTo(const QueueCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Mean response time of M/M/k at arrival rate @p lambda, service
 *  rate @p mu (Erlang C). */
double
mmkMeanResponse(unsigned k, double lambda, double mu)
{
    const double a = lambda / mu;
    double term = 1.0; // a^i / i!
    double below = 0.0;
    for (unsigned i = 0; i < k; ++i) {
        below += term;
        term *= a / (i + 1);
    }
    const double top = term * k / (k - a);
    const double waitProb = top / (below + top);
    return waitProb / (k * mu - lambda) + 1.0 / mu;
}

class QueueingReference : public ::testing::TestWithParam<QueueCase>
{};

} // namespace

TEST(QueueingReference, ErlangCReducesToMm1)
{
    EXPECT_DOUBLE_EQ(mmkMeanResponse(1, 800.0, 1000.0), 1.0 / 200.0);
    // M/M/2 at a = 1: C = 1/3, W = C / (2 mu - lambda) + 1 / mu.
    EXPECT_DOUBLE_EQ(mmkMeanResponse(2, 1000.0, 1000.0),
                     (1.0 / 3.0) / 1000.0 + 1.0 / 1000.0);
}

TEST_P(QueueingReference, MeanResponseInside99PercentReplicaCi)
{
    const QueueCase c = GetParam();
    constexpr Tick meanService = 1 * msec;
    constexpr std::size_t warmup = 2'000;
    constexpr std::size_t jobs = 22'000;
    const double mu = 1.0 / toSeconds(meanService);
    const double lambda = c.rho * c.cores * mu;

    CampaignOptions opts;
    opts.replicas = 20;
    opts.baseSeed = 11;
    opts.jobs = 2;
    CampaignRunner runner(opts);
    const CampaignResult res = runner.run(
        1, std::string("queueing reference ") + c.name,
        [&](std::size_t, std::size_t, std::uint64_t seed,
            const ReplicaLimits &) {
            DataCenterConfig cfg;
            cfg.seed = seed;
            cfg.nServers = 1;
            cfg.nCores = c.cores;
            cfg.serverProfile.demoteC1After = maxTick;
            DataCenter dc(cfg);
            double sum = 0.0;
            std::size_t counted = 0;
            dc.scheduler().setJobDoneCallback([&](JobId id, Tick latency) {
                if (id < warmup)
                    return;
                sum += toSeconds(latency);
                ++counted;
            });
            SingleTaskGenerator gen(std::make_shared<ExponentialService>(
                meanService, dc.makeRng("service")));
            dc.pump(std::make_unique<PoissonArrival>(
                        lambda, dc.makeRng("arrivals")),
                    gen, jobs);
            dc.run();
            if (counted != jobs - warmup)
                throw std::runtime_error("jobs left unfinished");
            return MetricRow{{"mean_response_s", sum / counted}};
        });
    ASSERT_EQ(res.records.size(), opts.replicas);
    ResultTable table;
    tabulate(res.records, table);
    const Summary s = table.summary(0, "mean_response_s");

    // Two-sided 99%: the 0.995 Student t quantile at 19 degrees of
    // freedom.
    constexpr double t995df19 = 2.861;
    const double half = t995df19 * s.stddev / std::sqrt(double(s.n));
    const double expected = mmkMeanResponse(c.cores, lambda, mu);
    RecordProperty("mean_response_us", std::to_string(s.mean * 1e6));
    RecordProperty("theory_us", std::to_string(expected * 1e6));
    RecordProperty("ci99_half_width_us", std::to_string(half * 1e6));
    EXPECT_NEAR(s.mean, expected, half)
        << c.name << ": replica mean " << s.mean * 1e6 << " us, theory "
        << expected * 1e6 << " us";
}

INSTANTIATE_TEST_SUITE_P(
    Plants, QueueingReference,
    ::testing::Values(QueueCase{"Mm1Rho50", 1, 0.5},
                      QueueCase{"Mm1Rho80", 1, 0.8},
                      QueueCase{"Mm4Rho50", 4, 0.5},
                      QueueCase{"Mm4Rho80", 4, 0.8}),
    [](const ::testing::TestParamInfo<QueueCase> &info) {
        return std::string(info.param.name);
    });
