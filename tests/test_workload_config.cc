/**
 * @file
 * Tests for INI-driven workload construction and power-profile
 * overrides (the paper's "configurable user script" input path).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dc/datacenter.hh"
#include "sim/logging.hh"

using namespace holdcsim;

namespace {

ConfiguredWorkload
build(const std::string &ini, unsigned servers = 10,
      unsigned cores = 4)
{
    DataCenterConfig dc_cfg =
        DataCenterConfig::fromConfig(Config::parseString(ini));
    dc_cfg.nServers = servers;
    dc_cfg.nCores = cores;
    return makeWorkload(dc_cfg.workload, dc_cfg, 3);
}

} // namespace

TEST(WorkloadConfig, PoissonRateFromUtilization)
{
    auto wl = build(R"(
[workload]
arrival = poisson
utilization = 0.3
service = fixed
service_mean_ms = 5
)");
    ASSERT_TRUE(wl.arrivals);
    auto *poisson = dynamic_cast<PoissonArrival *>(wl.arrivals.get());
    ASSERT_NE(poisson, nullptr);
    // rho * servers * cores / service = 0.3 * 40 / 0.005.
    EXPECT_NEAR(poisson->rate(), 2400.0, 1e-9);
    EXPECT_EQ(wl.until, maxTick);
    EXPECT_EQ(wl.maxJobs, static_cast<std::size_t>(-1));
}

TEST(WorkloadConfig, ExplicitRateOverridesUtilization)
{
    auto wl = build(R"(
[workload]
arrival = poisson
rate = 77
utilization = 0.3
)");
    auto *poisson = dynamic_cast<PoissonArrival *>(wl.arrivals.get());
    ASSERT_NE(poisson, nullptr);
    EXPECT_DOUBLE_EQ(poisson->rate(), 77.0);
}

TEST(WorkloadConfig, ChainJobsDivideRateByTaskCount)
{
    auto wl = build(R"(
[workload]
arrival = poisson
utilization = 0.3
service = fixed
service_mean_ms = 5
job = chain
stages = 2
)");
    auto *poisson = dynamic_cast<PoissonArrival *>(wl.arrivals.get());
    ASSERT_NE(poisson, nullptr);
    EXPECT_NEAR(poisson->rate(), 1200.0, 1e-9); // 2400 / 2 tasks
    Job j = wl.jobs->makeJob(0);
    EXPECT_EQ(j.numTasks(), 2u);
}

TEST(WorkloadConfig, MmppAverageRateMatches)
{
    auto wl = build(R"(
[workload]
arrival = mmpp
rate = 100
burst_ratio = 10
burst_fraction = 0.2
)");
    auto *mmpp = dynamic_cast<Mmpp2Arrival *>(wl.arrivals.get());
    ASSERT_NE(mmpp, nullptr);
    EXPECT_NEAR(mmpp->averageRate(), 100.0, 1e-6);
    EXPECT_DOUBLE_EQ(mmpp->burstinessRatio(), 10.0);
}

TEST(WorkloadConfig, SyntheticTracesNeedDuration)
{
    EXPECT_THROW(build("[workload]\narrival = wikipedia\n"),
                 FatalError);
    auto wl = build(R"(
[workload]
arrival = wikipedia
rate = 50
duration_s = 30
)");
    EXPECT_FALSE(wl.arrivals->exhausted());
    EXPECT_EQ(wl.until, 30 * sec);
}

TEST(WorkloadConfig, TraceFileArrivals)
{
    const char *path = "/tmp/holdcsim_test_trace.txt";
    {
        std::ofstream out(path);
        out << "0.5\n1.0\n1.5\n";
    }
    auto wl = build(std::string(R"(
[workload]
arrival = trace
trace_file = )") + path + "\n");
    auto *trace = dynamic_cast<TraceArrival *>(wl.arrivals.get());
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->remaining(), 3u);
    std::remove(path);
}

TEST(WorkloadConfig, JobShapesAndLimits)
{
    auto wl = build(R"(
[workload]
arrival = poisson
rate = 10
max_jobs = 123
job = fanout
stages = 4
transfer_kb = 16
)");
    EXPECT_EQ(wl.maxJobs, 123u);
    Job j = wl.jobs->makeJob(0);
    EXPECT_EQ(j.numTasks(), 6u); // root + agg + 4 workers
    EXPECT_EQ(j.edgeBytes(0, 2), 16u * 1024u);
}

TEST(WorkloadConfig, RejectsUnknownKinds)
{
    EXPECT_THROW(build("[workload]\narrival = bogus\n"), FatalError);
    EXPECT_THROW(build("[workload]\nservice = bogus\n"), FatalError);
    EXPECT_THROW(build("[workload]\njob = bogus\n"), FatalError);
}

// -------------------------------------------------------- profile overrides

TEST(ProfileConfig, ServerOverridesApplied)
{
    auto cfg = Config::parseString(R"(
[server_power]
core_active_w = 9.0
platform_s0_w = 60
s3_wake_ms = 250
)");
    auto p = DataCenterConfig::fromConfig(cfg).serverProfile;
    EXPECT_DOUBLE_EQ(p.coreActive, 9.0);
    EXPECT_DOUBLE_EQ(p.platformS0, 60.0);
    EXPECT_EQ(p.s3WakeLatency, 250 * msec);
    // Unset keys keep defaults.
    ServerPowerProfile defaults;
    EXPECT_DOUBLE_EQ(p.dramActive, defaults.dramActive);
}

TEST(ProfileConfig, ServerOverridesValidated)
{
    auto cfg = Config::parseString(
        "[server_power]\ncore_c6_w = 50\n"); // deeper > active
    EXPECT_THROW(DataCenterConfig::fromConfig(cfg), FatalError);
}

TEST(ProfileConfig, SwitchOverridesApplied)
{
    auto cfg = Config::parseString(R"(
[switch_power]
chassis_base_w = 20
port_active_w = 0.5
linecard_wake_ms = 5
)");
    auto p = DataCenterConfig::fromConfig(cfg).switchProfile;
    EXPECT_DOUBLE_EQ(p.chassisBase, 20.0);
    EXPECT_DOUBLE_EQ(p.portActive, 0.5);
    EXPECT_EQ(p.linecardWakeLatency, 5 * msec);
}

// ---------------------------------------------------------------- end to end

TEST(ConfigDrivenRun, FullExperimentFromIniText)
{
    auto cfg = Config::parseString(R"(
[datacenter]
servers = 4
cores = 2
seed = 5
[server]
controller = delay_timer
tau_ms = 100
[workload]
arrival = poisson
utilization = 0.2
duration_s = 5
service = exponential
service_mean_ms = 5
)");
    DataCenterConfig dc_cfg = DataCenterConfig::fromConfig(cfg);
    DataCenter dc(dc_cfg);
    ConfiguredWorkload wl =
        makeWorkload(dc_cfg.workload, dc.config(), dc_cfg.seed);
    JobGenerator &jobs = *wl.jobs;
    dc.pump(std::move(wl.arrivals), jobs, wl.maxJobs, wl.until);
    dc.runUntil(wl.until);
    dc.run();
    EXPECT_GT(dc.scheduler().jobsCompleted(), 800u); // ~320/s * 5 s
    EXPECT_EQ(dc.scheduler().activeJobs(), 0u);
}

namespace {

/** fatTree(4): 16 servers x 4 cores behind 1 Gb/s host links. */
DataCenterConfig
fatTree16()
{
    DataCenterConfig dc_cfg;
    dc_cfg.fabric = DataCenterConfig::Fabric::fatTree;
    dc_cfg.fabricParam = 4;
    dc_cfg.nServers = 16;
    dc_cfg.nCores = 4;
    return dc_cfg;
}

/** The [workload] section of @p ini, parsed. */
DataCenterConfig::WorkloadSettings
workloadOf(const std::string &ini)
{
    return DataCenterConfig::fromConfig(Config::parseString(ini)).workload;
}

/** What makeWorkload prints to stderr on fatTree16(). */
std::string
fatTreeWarnings(const std::string &ini)
{
    ::testing::internal::CaptureStderr();
    makeWorkload(workloadOf(ini), fatTree16(), 3);
    return ::testing::internal::GetCapturedStderr();
}

} // namespace

TEST(WorkloadConfig, SaturatingTransfersAreFatal)
{
    // 0.5 * 16 * 4 / 5 ms / 6 tasks = 1066.7 jobs/s, each moving
    // 8 edges x 2000 KiB: 8.74x the 16 x 1 Gb/s of host links.
    try {
        makeWorkload(workloadOf(R"(
[workload]
utilization = 0.5
job = fanout
stages = 4
transfer_kb = 2000
)"),
                     fatTree16(), 3);
        FAIL() << "a NIC load of 8.74 must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("NIC load of 8.738"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WorkloadConfig, NearSaturatingTransfersWarnWithTheLoad)
{
    // The same fan-out at 215 KiB per edge: 0.94 of the host links.
    std::string out = fatTreeWarnings(R"(
[workload]
utilization = 0.5
job = fanout
stages = 4
transfer_kb = 215
)");
    EXPECT_NE(out.find("NIC load of 0.939"), std::string::npos) << out;
}

TEST(WorkloadConfig, DefaultConfigDoesNotWarnOnLoad)
{
    EXPECT_EQ(fatTreeWarnings("[workload]\n"), "");
}
