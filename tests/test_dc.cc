/**
 * @file
 * Integration tests for the assembled DataCenter: configuration,
 * workload pumps, metric aggregation, validation noise models and a
 * queueing-theory sanity check on measured utilization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dc/datacenter.hh"
#include "dc/validation.hh"
#include "exp/parallel_for.hh"
#include "sim/logging.hh"
#include "sim/one_shot.hh"
#include "sim/random.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

std::shared_ptr<ServiceModel>
fixedSvc(Tick t)
{
    return std::make_shared<FixedService>(t);
}

} // namespace

TEST(DcConfig, Defaults)
{
    DataCenterConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(DcConfig, FromIniText)
{
    auto ini = Config::parseString(R"(
[datacenter]
servers = 20
cores = 8
seed = 99
[server]
queue_mode = per_core
core_pick = least_loaded
controller = delay_timer
tau_ms = 400
[scheduler]
policy = round_robin
global_queue = true
[network]
fabric = fat_tree
param = 4
link_rate_gbps = 10
link_latency_us = 2
fast_path_kb = 64
)");
    auto cfg = DataCenterConfig::fromConfig(ini);
    EXPECT_EQ(cfg.nServers, 20u);
    EXPECT_EQ(cfg.nCores, 8u);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_EQ(cfg.queueMode, LocalQueueMode::perCore);
    EXPECT_EQ(cfg.corePick, CorePickPolicy::leastLoaded);
    EXPECT_EQ(cfg.controller, DataCenterConfig::Controller::delayTimer);
    EXPECT_EQ(cfg.delayTimerTau, 400 * msec);
    EXPECT_EQ(cfg.dispatch, DataCenterConfig::Dispatch::roundRobin);
    EXPECT_TRUE(cfg.useGlobalQueue);
    EXPECT_EQ(cfg.fabric, DataCenterConfig::Fabric::fatTree);
    EXPECT_DOUBLE_EQ(cfg.linkRate, 1e10);
    EXPECT_EQ(cfg.linkLatency, 2 * usec);
    EXPECT_EQ(cfg.netConfig.fastPathBytes, 64u * 1024);
}

TEST(DcConfig, RejectsBadValues)
{
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[server]\nqueue_mode = bogus\n")),
                 FatalError);
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[scheduler]\npolicy = bogus\n")),
                 FatalError);
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[network]\nfabric = bogus\n")),
                 FatalError);
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[network]\nfast_path_kb = -3\n")),
                 FatalError);
    // network_aware without fabric is inconsistent.
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[scheduler]\npolicy = network_aware\n")),
                 FatalError);
}

/**
 * The flow solver picks its own dirty-set scope, so a config that
 * still sets `[network] model` draws the unknown-key warning naming
 * the file and line.
 */
TEST(DcConfig, WheelGranularityFloorIsOneTick)
{
    const auto parse = [](const std::string &us) {
        return DataCenterConfig::fromConfig(Config::parseString(
            "[datacenter]\ntimer_mode = wheel\nwheel_granularity_us = " +
            us + "\n"));
    };
    EXPECT_EQ(parse("0.001").wheelGranularity, 1u);
    EXPECT_EQ(parse("100").wheelGranularity, 100 * usec);
    // Zero and a positive value under one tick both name the floor.
    for (const char *us : {"0", "0.0004"}) {
        try {
            parse(us);
            ADD_FAILURE() << us << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("at least 0.001"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(parse("0"), FatalError);
    EXPECT_THROW(parse("0.0004"), FatalError);
}

// Every duration key goes through one conversion: a negative, NaN or
// out-of-range value is rejected at load, naming the key, instead of
// wrapping to a delay that aborts the run mid-way ("rescheduled in the
// past") or overflowing the Tick cast.
TEST(DcConfig, NegativeDurationIsAConfigError)
{
    const auto parse = [](const std::string &section,
                          const std::string &key, const std::string &v) {
        return DataCenterConfig::fromConfig(Config::parseString(
            "[" + section + "]\n" + key + " = " + v + "\n"));
    };
    const std::pair<const char *, const char *> keys[] = {
        {"server", "tau_ms"},
        {"network", "link_latency_us"},
        {"network", "switch_sleep_ms"},
        {"fault", "retry_backoff_base_ms"},
        {"fault", "retry_backoff_max_ms"},
        {"fault", "task_timeout_ms"},
        {"orch", "reconcile_ms"},
        {"telemetry", "sample_period_ms"},
        {"audit", "period_ms"},
        {"mc", "horizon_ms"},
        {"mc", "repair_ms"},
        {"campaign", "retry_backoff_base_ms"},
        {"campaign", "retry_backoff_max_ms"},
        {"datacenter", "wheel_granularity_us"},
        {"workload", "service_mean_ms"},
        {"workload", "service_max_ms"},
        {"server_power", "s3_wake_ms"},
        {"server_power", "s3_entry_ms"},
        {"switch_power", "switch_wake_ms"},
        {"switch_power", "linecard_wake_ms"},
    };
    for (const auto &[section, key] : keys) {
        const std::string name = std::string(section) + "." + key;
        for (const char *bad : {"-5", "nan", "1e300"}) {
            try {
                parse(section, key, bad);
                ADD_FAILURE() << name << " = " << bad << " was accepted";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find("'" + name + "'"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    EXPECT_EQ(parse("server", "tau_ms", "5").delayTimerTau, 5 * msec);
    EXPECT_EQ(parse("server", "tau_ms", "0").delayTimerTau, 0u);
}

// Count and u64 keys reject negative and out-of-range integers at load,
// naming the key, instead of wrapping (servers = -1 used to die in
// std::bad_alloc).
TEST(DcConfig, OutOfRangeCountIsAConfigError)
{
    const std::tuple<const char *, const char *, const char *> cases[] = {
        {"datacenter", "servers", "-1"},
        {"datacenter", "cores", "-2"},
        {"datacenter", "seed", "-1"},
        {"workload", "stages", "-1"},
        {"workload", "max_jobs", "-3"},
        {"orch", "replicas", "4294967296"},
        {"fault", "max_retries", "-1"},
        {"mc", "budget", "-1"},
        {"campaign", "max_attempts", "4294967297"},
        {"network", "param", "-4"},
    };
    for (const auto &[section, key, v] : cases) {
        const std::string name = std::string(section) + "." + key;
        try {
            DataCenterConfig::fromConfig(Config::parseString(
                "[" + std::string(section) + "]\n" + key + " = " + v + "\n"));
            ADD_FAILURE() << name << " = " << v << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("'" + name + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(DcConfig, StaleNetworkModelKeyWarns)
{
    std::string path = ::testing::TempDir() + "stale_model.ini";
    {
        std::ofstream ini(path);
        ini << "[network]\nfabric = star\nmodel = fluid\n";
    }
    Config cfg = Config::load(path);
    ::testing::internal::CaptureStderr();
    warnUnknownConfigKeys(cfg);
    std::string out = ::testing::internal::GetCapturedStderr();
    std::remove(path.c_str());
    // One warning, pointing at line 3: the model line.
    EXPECT_NE(out.find("unknown config key"), std::string::npos) << out;
    EXPECT_EQ(out.find("unknown config key", out.find('\n')),
              std::string::npos)
        << out;
    EXPECT_NE(out.find(path + ":3"), std::string::npos) << out;
}

TEST(DataCenter, ExactModelHonoursFastPath)
{
    auto ini = Config::parseString(R"(
[network]
fabric = star
fast_path_kb = 64
)");
    DataCenter dc(DataCenterConfig::fromConfig(ini));
    ASSERT_NE(dc.network(), nullptr);
    bool done = false;
    dc.network()->startFlow(0, 1, 32 * 1024, [&] { done = true; });
    dc.run();
    EXPECT_TRUE(done);
    const NetSolverStats &ss = dc.network()->flows().solverStats();
    EXPECT_EQ(ss.fastPathHits, 1u);
    EXPECT_EQ(ss.resolves, 0u);
}

TEST(DataCenter, BuildsConfiguredFleet)
{
    DataCenterConfig cfg;
    cfg.nServers = 5;
    cfg.nCores = 2;
    DataCenter dc(cfg);
    EXPECT_EQ(dc.numServers(), 5u);
    EXPECT_EQ(dc.server(0).numCores(), 2u);
    EXPECT_EQ(dc.network(), nullptr);
    EXPECT_EQ(dc.awakeServers(), 5u);
}

TEST(DataCenter, ServersShareOnePowerProfile)
{
    DataCenterConfig cfg;
    cfg.nServers = 8;
    cfg.serverProfile.pkgPc0 = 12.5;
    DataCenter dc(cfg);
    const ServerPowerProfile *shared = &dc.server(0).profile();
    EXPECT_EQ(shared->pkgPc0, 12.5);
    for (std::size_t i = 1; i < dc.numServers(); ++i)
        EXPECT_EQ(&dc.server(i).profile(), shared) << "server " << i;
}

TEST(DataCenter, FleetIsOneBlock)
{
    constexpr std::uintptr_t extent = std::uintptr_t{2} << 20;
    // 3 cores: 712 B a server, so 3,000 servers span two 2 MiB extents
    // and 5 fit in one page.
    for (unsigned n : {3000u, 5u}) {
        DataCenterConfig cfg;
        cfg.nServers = n;
        cfg.nCores = 3;
        DataCenter dc(cfg);
        ASSERT_EQ(dc.numServers(), n);
        // Both terms are whole multiples of the slot alignment.
        ASSERT_EQ(sizeof(Server) % CorePool::slotBlockAlign(), 0u);
        const std::size_t stride =
            sizeof(Server) + CorePool::slotBlockBytes(cfg.nCores);
        const auto *base = reinterpret_cast<const std::byte *>(&dc.server(0));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(reinterpret_cast<const std::byte *>(&dc.server(i)),
                      base + i * stride)
                << "server " << i;
            EXPECT_EQ(dc.server(i).id(), i);
        }
        const auto addr = reinterpret_cast<std::uintptr_t>(base);
        EXPECT_GE(dc.fleetBytes(), n * stride);
        if (n * stride >= extent) {
            // Whole huge-page extents from a 2 MiB boundary.
            EXPECT_EQ(addr % extent, 0u);
            EXPECT_EQ(dc.fleetBytes() % extent, 0u);
            EXPECT_LT(dc.fleetBytes(), n * stride + extent);
        } else {
            // A small fleet keeps its footprint: whole pages only.
            EXPECT_LT(dc.fleetBytes(), n * stride + 64 * 1024);
        }
    }
}

// A fleet spanning two 2 MiB extents, torn down mid-run with tasks on
// its cores and crashed servers' work waiting to retry: every server's
// busy block, queue and pending events must go with it
// (bench/run_sanitized.sh reports a missed ~Server as a leak).
TEST(DataCenter, FaultedFleetTearsDownMidRun)
{
    DataCenterConfig cfg;
    cfg.nServers = 5000;
    cfg.nCores = 2;
    cfg.seed = 5;
    cfg.fault.enabled = true;
    cfg.fault.mttfHours = 20.0 / 3600.0; // 20 s per server
    cfg.fault.mttrMinutes = 0.5 / 60.0;  // 0.5 s
    cfg.fault.maxRetries = 3;
    auto dc = std::make_unique<DataCenter>(cfg);
    ASSERT_GE(dc->fleetBytes(), 2 * (std::size_t{2} << 20));
    SingleTaskGenerator gen(fixedSvc(200 * msec));
    dc->pump(std::make_unique<PoissonArrival>(5'000.0,
                                              dc->makeRng("arrivals")),
             gen, 40'000);
    dc->runUntil(1 * sec);

    std::size_t busy = 0, crashed = 0, down = 0, running = 0;
    for (std::size_t i = 0; i < dc->numServers(); ++i) {
        const Server &s = dc->server(i);
        busy += s.busyStateBuilt();
        crashed += s.failures() > 0;
        down += s.failed();
        running += s.runningTasks();
    }
    EXPECT_GT(busy, 4000u);
    EXPECT_GT(crashed, 100u);
    EXPECT_GT(down, 10u);
    EXPECT_GT(running, 500u);
    EXPECT_TRUE(dc->sim().hasPendingEvents());
    dc.reset();
}

namespace {

/** What one build and run of faultedFleetRun()'s plant shows. */
struct FleetRun {
    std::string dump;
    Tick end = 0;
    /** Event-queue schedules made while the plant was built. */
    std::uint64_t buildSchedules = 0;
};

/**
 * Build an 8,000 x 4-core fleet (four 2 MiB extents) with a delay
 * timer and 32 server crashes, check that its deferred-timer list
 * holds each server's core pool, in id order, run 16,000 jobs and
 * dump.
 */
FleetRun
faultedFleetRun()
{
    DataCenterConfig cfg;
    cfg.nServers = 8000;
    cfg.nCores = 4;
    cfg.seed = 7;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 100 * msec;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    cfg.fault.enabled = true;
    cfg.fault.maxRetries = 3;
    // A finite schedule, so that the drained run ends: crashes at
    // 0.1-1.34 s, each repaired 0.5 s later.
    cfg.fault.useSchedule = true;
    for (std::size_t k = 0; k < 32; ++k) {
        const Tick down = (100 + 40 * k) * msec;
        cfg.fault.schedule.push_back(
            {{FaultKind::server, 250 * k + 3, 0}, {down, down + 500 * msec}});
    }
    DataCenter dc(cfg);
    EXPECT_GE(dc.fleetBytes(), 3 * (std::size_t{2} << 20));
    FleetRun run;
    run.buildSchedules = dc.sim().eventQueue().counters().schedules;

    // One entry per server: the pool inside it, as if each server had
    // appended itself in id order.
    const std::vector<DeferredTimers *> &list = dc.sim().deferred();
    EXPECT_EQ(list.size(), dc.numServers());
    const auto offset = [&](std::size_t i) {
        return reinterpret_cast<std::uintptr_t>(list[i]) -
               reinterpret_cast<std::uintptr_t>(&dc.server(i));
    };
    EXPECT_LT(offset(0), sizeof(Server));
    for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_EQ(offset(i), offset(0)) << "server " << i;

    SingleTaskGenerator gen(fixedSvc(50 * msec));
    dc.pump(std::make_unique<PoissonArrival>(8'000.0,
                                             dc.makeRng("arrivals")),
            gen, 16'000);
    run.end = dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted() + dc.scheduler().jobsFailed(),
              16'000u);
    std::ostringstream os;
    dc.dumpStats(os);
    run.dump = os.str();
    return run;
}

} // namespace

// A fleet of two extents or more is built on worker threads; inside a
// parallelFor cell the same loop runs on one thread, in id order. Both
// builds give the same plant: the same run, to the byte.
TEST(DataCenter, ParallelBuildMatchesSerialBuild)
{
    const FleetRun parallel = faultedFleetRun();
    FleetRun serial;
    parallelFor(2, 1, [&](std::size_t) { serial = faultedFleetRun(); });
    EXPECT_NE(parallel.dump.find("\nserver7999.frac_failed "),
              std::string::npos);
    EXPECT_NE(parallel.dump.find("\nreliability.faults_injected "),
              std::string::npos);
    EXPECT_EQ(parallel.end, serial.end);
    EXPECT_EQ(parallel.buildSchedules, serial.buildSchedules);
    EXPECT_EQ(parallel.dump.size(), serial.dump.size());
    EXPECT_TRUE(parallel.dump == serial.dump)
        << "the parallel build's run differs from the serial one's";

    // Building servers schedules nothing: a fleet without faults has
    // an empty queue until its first job.
    DataCenterConfig cfg;
    cfg.nServers = 8000;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    DataCenter idle(cfg);
    EXPECT_EQ(idle.sim().eventQueue().counters().schedules, 0u);
}

TEST(DataCenter, FabricDictatesServerCount)
{
    DataCenterConfig cfg;
    cfg.nServers = 3; // overridden by fat tree k=4
    cfg.fabric = DataCenterConfig::Fabric::fatTree;
    cfg.fabricParam = 4;
    DataCenter dc(cfg);
    EXPECT_EQ(dc.numServers(), 16u);
    ASSERT_NE(dc.network(), nullptr);
    EXPECT_EQ(dc.network()->numSwitches(), 20u);
}

TEST(DataCenter, PoissonPumpRunsJobs)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.nCores = 2;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pump(std::make_unique<PoissonArrival>(
                200.0, dc.makeRng("arrivals")),
            gen, 500);
    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 500u);
    EXPECT_GT(dc.scheduler().jobLatency().mean(), 0.0);
}

TEST(DataCenter, TracePumpReplaysArrivals)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    cfg.nCores = 1;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(1 * msec));
    dc.pumpTrace({10 * msec, 20 * msec, 20 * msec, 50 * msec}, gen);
    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 4u);
    // Last job arrives at 50 ms onto a C6-parked core: it pays the
    // package + core exit latencies before its 1 ms of service.
    EXPECT_GE(dc.sim().curTick(), 51 * msec);
    EXPECT_LT(dc.sim().curTick(), 53 * msec);
}

TEST(DataCenter, MultiplePumpsCoexist)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    DataCenter dc(cfg);
    SingleTaskGenerator gen_a(fixedSvc(1 * msec));
    SingleTaskGenerator gen_b(fixedSvc(2 * msec));
    dc.pumpTrace({1 * msec, 2 * msec}, gen_a);
    dc.pumpTrace({1 * msec, 3 * msec}, gen_b);
    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 4u);
}

TEST(DataCenter, MeasuredUtilizationMatchesConfigured)
{
    // M/M/k sanity: at configured rho, the fleet's active-state
    // residency fraction should approach rho.
    const double rho = 0.3;
    const double service_s = 0.005;
    DataCenterConfig cfg;
    cfg.nServers = 10;
    cfg.nCores = 4;
    DataCenter dc(cfg);
    auto svc = std::make_shared<ExponentialService>(
        5 * msec, dc.makeRng("service"));
    SingleTaskGenerator gen(svc);
    double lambda = PoissonArrival::rateForUtilization(
        rho, cfg.nServers, cfg.nCores, service_s);
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            gen, 20000);
    dc.run();
    dc.finishStats();
    // Aggregate core busy fraction == utilization.
    double busy = 0.0;
    for (std::size_t s = 0; s < dc.numServers(); ++s) {
        for (unsigned c = 0; c < cfg.nCores; ++c) {
            busy += dc.server(s).core(c).residency().fraction(
                static_cast<int>(CoreCState::c0Active));
        }
    }
    busy /= cfg.nServers * cfg.nCores;
    EXPECT_NEAR(busy, rho, 0.03);
}

TEST(DataCenter, EnergyBreakdownAggregates)
{
    DataCenterConfig cfg;
    cfg.nServers = 3;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(10 * msec));
    dc.pumpTrace({0, 0, 0}, gen);
    dc.run();
    dc.runUntil(1 * sec);
    auto fleet = dc.energy();
    EXPECT_EQ(fleet.perServer.size(), 3u);
    EXPECT_GT(fleet.total.cpu, 0.0);
    EXPECT_GT(fleet.total.dram, 0.0);
    EXPECT_GT(fleet.total.platform, 0.0);
    double sum = 0.0;
    for (const auto &e : fleet.perServer)
        sum += e.total();
    EXPECT_NEAR(sum, fleet.total.total(), 1e-9);
}

TEST(DataCenter, ResidencyFractionsSumToOne)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 50 * msec;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0, 100 * msec, 400 * msec}, gen);
    dc.run();
    dc.runUntil(2 * sec);
    auto frac = dc.residency();
    double sum = 0.0;
    for (double f : frac)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(frac[static_cast<int>(ServerState::sysSleep)], 0.0);
}

TEST(DataCenter, ResetStatsDropsHistory)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0}, gen);
    dc.run();
    dc.resetStats();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 0u);
    auto fleet = dc.energy();
    EXPECT_NEAR(fleet.total.total(), 0.0, 1e-9);
    EXPECT_EQ(dc.server(0).tasksCompleted(), 0u);
}

TEST(DataCenter, NetworkAwareConfigBuilds)
{
    DataCenterConfig cfg;
    cfg.fabric = DataCenterConfig::Fabric::fatTree;
    cfg.fabricParam = 4;
    cfg.dispatch = DataCenterConfig::Dispatch::networkAware;
    cfg.netConfig.switchSleepDelay = 100 * msec;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(1 * msec));
    dc.pumpTrace({0, 1 * msec}, gen);
    dc.run();
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 2u);
    EXPECT_GT(dc.switchEnergy(), 0.0);
}

namespace {

/** Digest of a stats dump's model rows, with the row count kept. */
struct ModelDigest {
    std::uint64_t hash = 0;
    std::size_t rows = 0;
};

/**
 * FNV-1a over the rows of @p dump that describe the model: host-time
 * fields, the "# " hot table, sim.events and every profile.* row are
 * dropped, since they count or time kernel events rather than state
 * the model reaches. sim.seconds stays in.
 */
ModelDigest
modelRowDigest(const std::string &dump)
{
    std::istringstream in(dump);
    std::string kept;
    ModelDigest d;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("# ", 0) == 0 ||
            line.find("host_") != std::string::npos ||
            line.rfind("sim.events ", 0) == 0 ||
            line.rfind("profile.", 0) == 0)
            continue;
        kept += line + '\n';
        ++d.rows;
    }
    d.hash = fnv1a64(kept);
    return d;
}

/** The faulted, profiled star plant of StatsDumpDigestIsGolden. */
std::string
faultedStarDump()
{
    DataCenterConfig cfg;
    cfg.nServers = 64;
    cfg.nCores = 2;
    cfg.seed = 7;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.fault.enabled = true;
    cfg.fault.mttfHours = 2.0 / 3600.0; // 2 s per server
    cfg.fault.mttrMinutes = 0.5 / 60.0;  // 0.5 s
    cfg.fault.maxRetries = 5;
    cfg.telemetry.enabled = true;
    cfg.telemetry.profile = true;
    DataCenter dc(cfg);
    FanOutInGenerator gen(fixedSvc(2 * msec), fixedSvc(20 * msec),
                          fixedSvc(1 * msec), 3, 20'000);
    dc.pump(std::make_unique<PoissonArrival>(200.0,
                                             dc.makeRng("arrivals")),
            gen, 400);
    dc.run();
    std::ostringstream os;
    dc.dumpStats(os);
    return os.str();
}

} // namespace

// Byte-identity gate on the stats dump: a 64-server star fabric with
// faults and the kernel profiler on, so every row kind (sim, profile,
// scheduler, reliability, server* with frac_failed, network, switch*)
// is written. Host-time fields (profile.*host_*, the "# " hot table)
// are dropped before hashing; everything else must match the recorded
// FNV-1a digest byte for byte.
TEST(DataCenter, StatsDumpDigestIsGolden)
{
    const std::string dump = faultedStarDump();
    std::istringstream in(dump);
    std::string kept;
    std::size_t rows = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("# ", 0) == 0 ||
            line.find("host_") != std::string::npos)
            continue;
        kept += line + '\n';
        ++rows;
    }
    const std::uint64_t h = fnv1a64(kept);
    for (const char *needle :
         {"\nreliability.faults_injected ", "\nserver63.frac_failed ",
          "\nnetwork.flows_completed ", "\nswitch0.frac_asleep ",
          "\nprofile.type.core.completion.count "})
        EXPECT_NE(dump.find(needle), std::string::npos) << needle;
    EXPECT_EQ(dump.find("\nreliability.faults_injected 0\n"),
              std::string::npos);
    EXPECT_EQ(rows, 932u) << dump;
    EXPECT_EQ(h, 0x07cafb521d87dffdULL) << std::hex << h;
}


// The golden plant's model rows alone: what must not move when a
// change only alters how many kernel events reach the same state.
TEST(DataCenter, StatsDumpModelRowsAreGolden)
{
    const ModelDigest d = modelRowDigest(faultedStarDump());
    EXPECT_EQ(d.rows, 873u);
    EXPECT_EQ(d.hash, 0xe720ea8d2e5d1bf9ULL) << std::hex << d.hash;
}

namespace {

/** What an idle-ladder golden pins: model rows and the end tick. */
struct LadderRun {
    ModelDigest digest;
    Tick end = 0;
};

/**
 * 2,000 four-core servers under delay timers, with a bursty MMPP
 * stream of 2,000 single-task jobs: most of the fleet sits idle and
 * walks the core C-state ladder and the delay timer between
 * interactions. @p granularity 1 fires governor timers at their exact
 * tick; a coarser wheel quantizes the core ladder's stages.
 */
LadderRun
idleLadderPlant(Tick granularity, Tick tau)
{
    DataCenterConfig cfg;
    cfg.nServers = 2000;
    cfg.nCores = 4;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = tau;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    if (granularity > 1) {
        cfg.timerMode = DataCenterConfig::TimerMode::wheel;
        cfg.wheelGranularity = granularity;
    }
    cfg.seed = 1;
    DataCenter dc(cfg);
    SingleTaskGenerator jobs(std::make_shared<ExponentialService>(
        5 * msec, dc.makeRng("service")));
    dc.pump(std::make_unique<Mmpp2Arrival>(200'000.0, 20'000.0, 0.002,
                                           0.008, dc.makeRng("arrivals")),
            jobs, 2000);
    dc.run();
    LadderRun r;
    r.end = dc.sim().curTick();
    std::ostringstream os;
    dc.dumpStats(os);
    r.digest = modelRowDigest(os.str());
    return r;
}

} // namespace

// The idle ladder's end state on a 100 us wheel: stages quantized up
// to bucket boundaries, servers suspending 50 ms after their last task.
TEST(IdleLadderGolden, CoarseWheelDelayTimer)
{
    const LadderRun r = idleLadderPlant(100 * usec, 50 * msec);
    EXPECT_EQ(r.end, 124388459u);
    EXPECT_EQ(r.digest.rows, 24011u);
    EXPECT_EQ(r.digest.hash,
              0x7e5ce227eb624fe0ULL) << std::hex << r.digest.hash;
}

// The same plant with every governor timer at its exact tick.
TEST(IdleLadderGolden, ExactTimersDelayTimer)
{
    const LadderRun r = idleLadderPlant(1, 50 * msec);
    EXPECT_EQ(r.end, 124388459u);
    EXPECT_EQ(r.digest.rows, 24011u);
    EXPECT_EQ(r.digest.hash,
              0xccda4e7a95ab3b9fULL) << std::hex << r.digest.hash;
}

// tau = 0: a server suspends in the same tick its last task ends,
// before any later event of that tick reads it.
TEST(IdleLadderGolden, CoarseWheelZeroTau)
{
    const LadderRun r = idleLadderPlant(100 * usec, 0);
    EXPECT_EQ(r.end, 1874388459u);
    EXPECT_EQ(r.digest.rows, 24011u);
    EXPECT_EQ(r.digest.hash,
              0x9a8bb9cc21037b10ULL) << std::hex << r.digest.hash;
}

// tau = 600 us is the default profile's C6 deadline (C1 at once, C3
// after 100 us, C6 after 500 us more), so suspend and the last core
// stage fall on one tick: always at G = 1, on aligned idle starts at
// G = 100 us, where the kernel order between the wheel's tick event
// and the delay timer is the order they were last scheduled in.
TEST(IdleLadderGolden, CoarseWheelTauTiesC6)
{
    const LadderRun r = idleLadderPlant(100 * usec, 600 * usec);
    EXPECT_EQ(r.end, 1874988459u);
    EXPECT_EQ(r.digest.rows, 24011u);
    EXPECT_EQ(r.digest.hash,
              0xd27e3329d3681d21ULL) << std::hex << r.digest.hash;
}

TEST(IdleLadderGolden, ExactTimersTauTiesC6)
{
    const LadderRun r = idleLadderPlant(1, 600 * usec);
    EXPECT_EQ(r.end, 1874988459u);
    EXPECT_EQ(r.digest.rows, 24011u);
    EXPECT_EQ(r.digest.hash,
              0xfbfcf90a4258c1fcULL) << std::hex << r.digest.hash;
}

// Network idle ladders: port LPI, line-card sleep and whole-switch
// sleep. Each plant pins the end tick and a digest of its model rows
// plus every port's, line card's and switch's residency in ticks
// (the dump folds those into switch energy).

namespace {

/** @p dc's model rows and fabric residencies, after a drained run. */
LadderRun
networkLadderRun(DataCenter &dc)
{
    LadderRun r;
    r.end = dc.sim().curTick();
    std::ostringstream os;
    dc.dumpStats(os);
    Network &net = *dc.network();
    auto books = [&os](const std::string &name, const StateResidency &res,
                       int states) {
        os << name << ".residency";
        for (int st = 0; st < states; ++st)
            os << ' ' << res.residency(st);
        os << '\n';
    };
    for (std::size_t i = 0; i < net.numSwitches(); ++i) {
        Switch &sw = net.switchAt(i);
        const std::string name = "switch" + std::to_string(i);
        books(name, sw.residency(), 2);
        for (unsigned p = 0; p < sw.numPorts(); ++p)
            books(name + ".port" + std::to_string(p),
                  sw.port(p).residency(), 3);
        for (unsigned lc = 0; lc < sw.numLineCards(); ++lc)
            books(name + ".lc" + std::to_string(lc),
                  sw.lineCard(lc).residency(), 3);
    }
    r.digest = modelRowDigest(os.str());
    return r;
}

/**
 * TimerModeProperty's plant as a DataCenter: 8 two-core servers on a
 * star, bursty two-stage jobs whose stages land on different servers,
 * and a 20 ms whole-switch sleep, so ports, the line card and the
 * switch all cycle through their ladders between bursts.
 */
LadderRun
starLadderPlant(Tick granularity)
{
    DataCenterConfig cfg;
    cfg.nServers = 8;
    cfg.nCores = 2;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.netConfig.switchSleepDelay = 20 * msec;
    cfg.taskAntiAffinity = true;
    if (granularity > 1) {
        cfg.timerMode = DataCenterConfig::TimerMode::wheel;
        cfg.wheelGranularity = granularity;
    }
    cfg.seed = 42;
    DataCenter dc(cfg);
    auto svc = std::make_shared<ExponentialService>(4 * msec,
                                                    dc.makeRng("svc"));
    ChainJobGenerator gen({svc, svc}, {0, 0}, 32 * 1024);
    dc.pump(std::make_unique<PoissonArrival>(120.0,
                                             dc.makeRng("arrivals")),
            gen, 600);
    dc.run();
    return networkLadderRun(dc);
}

} // namespace

TEST(IdleLadderGolden, ExactTimersStarFabric)
{
    const LadderRun r = starLadderPlant(1);
    EXPECT_EQ(r.end, 5038068246u);
    EXPECT_EQ(r.digest.rows, 134u);
    EXPECT_EQ(r.digest.hash,
              0x05b5ed395e6f1bcbULL) << std::hex << r.digest.hash;
}

TEST(IdleLadderGolden, CoarseWheelStarFabric)
{
    const LadderRun r = starLadderPlant(1 * msec);
    EXPECT_EQ(r.end, 5031000000u);
    EXPECT_EQ(r.digest.rows, 134u);
    EXPECT_EQ(r.digest.hash,
              0x0a42b65966510b47ULL) << std::hex << r.digest.hash;
}

// A k = 4 fat tree (20 four-port switches) with two ports per line
// card, so a switch sleeps only after both of its cards have.
TEST(IdleLadderGolden, FatTreeTwoCardSwitches)
{
    DataCenterConfig cfg;
    cfg.fabric = DataCenterConfig::Fabric::fatTree;
    cfg.fabricParam = 4;
    cfg.nServers = 16;
    cfg.nCores = 2;
    cfg.netConfig.portsPerLinecard = 2;
    cfg.netConfig.switchSleepDelay = 5 * msec;
    cfg.switchProfile.linecardSleepThreshold = 2 * msec;
    cfg.taskAntiAffinity = true;
    cfg.seed = 3;
    DataCenter dc(cfg);
    auto svc = std::make_shared<ExponentialService>(2 * msec,
                                                    dc.makeRng("svc"));
    ChainJobGenerator gen({svc, svc, svc}, {0, 0, 0}, 16 * 1024);
    dc.pump(std::make_unique<PoissonArrival>(300.0,
                                             dc.makeRng("arrivals")),
            gen, 400);
    dc.run();
    const LadderRun r = networkLadderRun(dc);
    EXPECT_EQ(r.end, 1843247902u);
    EXPECT_EQ(r.digest.rows, 455u);
    EXPECT_EQ(r.digest.hash,
              0x74e835072410284fULL) << std::hex << r.digest.hash;
}

// Forced ties on a 4-server star: each transfer starts at, one tick
// before or one tick after the LPI deadline its predecessor left on
// the switch ports, with a line-card threshold of 0 and a switch
// sleep delay equal to it, so port, card and switch all come due on
// the tick the next transfer wakes them. Packets take the same walk.
TEST(IdleLadderGolden, ForcedTiesAtTheLpiDeadline)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.nCores = 1;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.switchProfile.linecardSleepThreshold = 0;
    cfg.switchProfile.switchWakeLatency = 300 * usec;
    cfg.netConfig.switchSleepDelay = 0;
    DataCenter dc(cfg);
    Network &net = *dc.network();
    const Tick lpi = cfg.switchProfile.lpiIdleThreshold;
    const Tick latency = cfg.linkLatency;
    OneShotPool shots(dc.sim(), "test.tie");
    // Offsets from the deadline; even rounds send a flow, odd ones a
    // packet (whose egress port armed LPI one link latency before
    // the delivery).
    const std::vector<std::int64_t> offsets = {0, 0, -1, 1, 0, 0, 1, -1};
    std::size_t round = 0;
    std::function<void(Tick)> next = [&](Tick deadline) {
        if (round == offsets.size())
            return;
        const std::int64_t off = offsets[round];
        const std::size_t src = round % 4, dst = (round + 1) % 4;
        const bool flow = round % 2 == 0;
        ++round;
        shots.scheduleAt(static_cast<Tick>(deadline + off), [&, src, dst,
                                                              flow] {
            if (flow) {
                net.startFlow(src, dst, 8 * 1024, [&] {
                    next(dc.sim().curTick() + lpi);
                });
            } else {
                net.sendPacket(src, dst, 1500, [&](const Packet &) {
                    next(dc.sim().curTick() - latency + lpi);
                });
            }
        });
    };
    next(1 * msec);
    dc.run();
    ASSERT_EQ(round, offsets.size());
    const LadderRun r = networkLadderRun(dc);
    EXPECT_EQ(r.end, 10937144u);
    EXPECT_EQ(r.digest.rows, 82u);
    EXPECT_EQ(r.digest.hash,
              0x22b8a98d9c36f921ULL) << std::hex << r.digest.hash;
}

// The star's switch fails 7 ms into its 20 ms sleep countdown and is
// repaired 5 ms later, which restarts the countdown; the second
// failure outlasts the countdown it cut. On a 1 ms wheel.
TEST(IdleLadderGolden, SwitchFailedMidCountdown)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.nCores = 1;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.netConfig.switchSleepDelay = 20 * msec;
    cfg.timerMode = DataCenterConfig::TimerMode::wheel;
    cfg.wheelGranularity = 1 * msec;
    DataCenter dc(cfg);
    Network &net = *dc.network();
    const SwitchPowerProfile &prof = cfg.switchProfile;
    // The switch's countdown starts once its card has slept.
    const Tick countdown = prof.lpiIdleThreshold +
                           prof.linecardSleepThreshold;
    OneShotPool shots(dc.sim(), "test.fault");
    shots.scheduleAt(1 * msec, [&] {
        net.startFlow(0, 1, 64 * 1024, [&] {
            shots.schedule(countdown + 7 * msec,
                           [&] { net.failSwitch(0); });
            shots.schedule(countdown + 12 * msec, [&] {
                net.repairSwitch(0);
                shots.schedule(30 * msec, [&] {
                    net.startFlow(2, 3, 64 * 1024, [&] {
                        shots.schedule(countdown + 3 * msec,
                                       [&] { net.failSwitch(0); });
                        shots.schedule(countdown + 40 * msec,
                                       [&] { net.repairSwitch(0); });
                    });
                });
            });
        });
    });
    dc.run();
    const LadderRun r = networkLadderRun(dc);
    EXPECT_EQ(dc.network()->switchAt(0).sleepTransitions(), 2u);
    EXPECT_EQ(r.end, 226000000u);
    EXPECT_EQ(r.digest.rows, 82u);
    EXPECT_EQ(r.digest.hash,
              0xaa7c0e80cfbc93cfULL) << std::hex << r.digest.hash;
}

namespace {

/** DataCenter::dumpStats rebuilt from public accessors, one
 *  ostream << per value (no profiler, auditor or orchestrator). */
std::string
referenceDump(DataCenter &dc)
{
    std::ostringstream os;
    auto line = [&os](std::string_view group, auto id,
                      std::string_view key, auto value) {
        os << group << id << '.' << key << ' ' << value << '\n';
    };
    const std::string_view none;
    line("sim", none, "seconds", toSeconds(dc.sim().curTick()));
    line("sim", none, "events", dc.sim().eventsProcessed());

    GlobalScheduler &s = dc.scheduler();
    line("scheduler", none, "jobs_submitted", s.jobsSubmitted());
    line("scheduler", none, "jobs_completed", s.jobsCompleted());
    line("scheduler", none, "tasks_dispatched", s.tasksDispatched());
    line("scheduler", none, "transfers_started", s.transfersStarted());
    line("scheduler", none, "global_queue_len", s.globalQueueLength());
    const Percentile &lat = s.jobLatency();
    line("scheduler", none, "job_latency_mean_s", lat.mean());
    line("scheduler", none, "job_latency_p50_s", lat.p50());
    line("scheduler", none, "job_latency_p90_s", lat.p90());
    line("scheduler", none, "job_latency_p95_s", lat.p95());
    line("scheduler", none, "job_latency_p99_s", lat.p99());

    Network *net = dc.network();
    if (FaultManager *f = dc.faults()) {
        const ReliabilitySummary rel = fleetReliability(dc.serverPtrs());
        const std::string_view g = "reliability";
        line(g, none, "fleet_availability", f->fleetAvailability());
        line(g, none, "faults_injected", f->faultsInjected());
        line(g, none, "total_downtime_s", toSeconds(f->totalDowntime()));
        line(g, none, "components_down", f->currentlyDown());
        line(g, none, "task_retries", s.taskRetries());
        line(g, none, "task_timeouts", s.taskTimeouts());
        line(g, none, "transfers_aborted", s.transfersAborted());
        line(g, none, "jobs_failed", s.jobsFailed());
        line(g, none, "server_failures", rel.serverFailures);
        line(g, none, "tasks_killed", rel.tasksKilled);
        line(g, none, "wasted_joules", rel.wastedJoules);
        line(g, none, "wasted_energy_frac", rel.wastedFraction());
        if (net)
            line(g, none, "flows_aborted", net->flows().flowsAborted());
    }

    for (std::size_t i = 0; i < dc.numServers(); ++i) {
        Server &srv = dc.server(i);
        const auto id = srv.id();
        const EnergyBreakdown &e = srv.energy();
        line("server", id, "energy_cpu_j", e.cpu);
        line("server", id, "energy_dram_j", e.dram);
        line("server", id, "energy_platform_j", e.platform);
        line("server", id, "energy_total_j", e.total());
        line("server", id, "tasks_completed", srv.tasksCompleted());
        line("server", id, "wake_transitions", srv.wakeTransitions());
        line("server", id, "sleep_transitions", srv.sleepTransitions());
        const StateResidency &r = srv.residency();
        const std::pair<const char *, ServerState> fracs[] = {
            {"frac_active", ServerState::active},
            {"frac_wakeup", ServerState::wakingUp},
            {"frac_idle", ServerState::idle},
            {"frac_pkg_c6", ServerState::pkgC6},
            {"frac_sys_sleep", ServerState::sysSleep},
            {"frac_failed", ServerState::failed}};
        for (const auto &[key, state] : fracs) {
            if (state != ServerState::failed || dc.faults())
                line("server", id, key, r.fraction(static_cast<int>(state)));
        }
    }

    if (net) {
        const std::string_view g = "network";
        line(g, none, "switch_energy_j", net->switchEnergy());
        line(g, none, "packets_delivered", net->packetsDelivered());
        line(g, none, "packets_dropped", net->packetsDropped());
        line(g, none, "flows_completed", net->flows().flowsCompleted());
        line(g, none, "flow_latency_mean_s",
             net->flows().flowLatency().mean());
        line(g, none, "packet_latency_mean_s", net->packetLatency().mean());
        line(g, none, "sleeping_switches", net->sleepingSwitches());
        const NetSolverStats &ss = net->flows().solverStats();
        line(g, none, "solver_resolves", ss.resolves);
        line(g, none, "solver_dirty_flows_mean", ss.meanDirtyFlows());
        line(g, none, "solver_dirty_flows_max", ss.maxDirtyFlows);
        line(g, none, "solver_dirty_links", ss.dirtyLinks);
        line(g, none, "fast_path_hits", ss.fastPathHits);
        for (std::size_t i = 0; i < net->numSwitches(); ++i) {
            Switch &sw = net->switchAt(i);
            line("switch", sw.id(), "energy_j", sw.energy());
            line("switch", sw.id(), "packets_forwarded",
                 sw.packetsForwarded());
            line("switch", sw.id(), "packets_dropped", sw.packetsDropped());
            line("switch", sw.id(), "sleep_transitions",
                 sw.sleepTransitions());
            line("switch", sw.id(), "frac_asleep",
                 sw.residency().fraction(1));
        }
    }
    return os.str();
}

} // namespace

// The dump streams its server and switch rows through one buffer that
// flushes every 64 KiB and reuses each column's last formatted value.
// 2,000 servers cross the flush threshold many times; faults add the
// frac_failed column and the star fabric the switch rows. Every byte
// must match a reference written one `ostream <<` at a time.
TEST(DataCenter, StatsDumpMatchesOstreamReference)
{
    DataCenterConfig cfg;
    cfg.nServers = 2000;
    cfg.nCores = 2;
    cfg.seed = 11;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.fault.enabled = true;
    cfg.fault.mttfHours = 20.0 / 3600.0; // 20 s per server
    cfg.fault.mttrMinutes = 0.5 / 60.0;  // 0.5 s
    cfg.fault.maxRetries = 5;
    DataCenter dc(cfg);
    FanOutInGenerator gen(fixedSvc(2 * msec), fixedSvc(20 * msec),
                          fixedSvc(1 * msec), 3, 20'000);
    dc.pump(std::make_unique<PoissonArrival>(500.0,
                                             dc.makeRng("arrivals")),
            gen, 300);
    dc.run();

    std::ostringstream os;
    dc.dumpStats(os);
    const std::string got = os.str();
    const std::string want = referenceDump(dc);
    EXPECT_GT(got.size(), 8u * 64 * 1024);
    EXPECT_NE(got.find("\nserver1999.frac_failed "), std::string::npos);
    EXPECT_NE(got.find("\nswitch0.frac_asleep "), std::string::npos);
    EXPECT_EQ(got.find("\nreliability.faults_injected 0\n"),
              std::string::npos);
    if (got != want) {
        const auto diff = std::mismatch(got.begin(), got.end(),
                                        want.begin(), want.end());
        const std::size_t at = static_cast<std::size_t>(
            diff.first - got.begin());
        const std::size_t from = at < 80 ? 0 : at - 80;
        FAIL() << "dumps differ at byte " << at << " of " << got.size()
               << " (reference " << want.size() << ")\n--- dump:\n"
               << got.substr(from, 160) << "\n--- reference:\n"
               << want.substr(from, 160);
    }
}

namespace {

/**
 * 600 two-core servers (four dump chunks) on a star fabric with
 * faults, run through 200 fan-out/in jobs: the rows carry the
 * frac_failed column and the switch rows follow. @p trace_out, if
 * set, installs a tracer there for the categories whose slices the
 * dump closes (the task and flow ones name process-wide job ids).
 */
struct ChunkedPlant {
    explicit ChunkedPlant(const std::string &trace_out = {})
        : dc(config(trace_out)),
          gen(fixedSvc(2 * msec), fixedSvc(20 * msec), fixedSvc(1 * msec),
              3, 20'000)
    {
        dc.pump(std::make_unique<PoissonArrival>(400.0,
                                                 dc.makeRng("arrivals")),
                gen, 200);
        dc.run();
    }

    static DataCenterConfig
    config(const std::string &trace_out)
    {
        DataCenterConfig cfg;
        cfg.nServers = 600;
        cfg.nCores = 2;
        cfg.seed = 5;
        cfg.fabric = DataCenterConfig::Fabric::star;
        cfg.fault.enabled = true;
        cfg.fault.mttfHours = 2.0 / 3600.0; // 2 s per server
        cfg.fault.mttrMinutes = 0.5 / 60.0;  // 0.5 s
        cfg.fault.maxRetries = 5;
        cfg.telemetry.enabled = !trace_out.empty();
        cfg.telemetry.traceOut = trace_out;
        cfg.telemetry.traceCategories = "server,core,network,fault";
        return cfg;
    }

    std::string
    dump()
    {
        std::ostringstream os;
        dc.dumpStats(os);
        return os.str();
    }

    DataCenter dc;
    FanOutInGenerator gen;
};

} // namespace

// A fleet of several chunks settles and formats its server rows on
// worker threads while the caller writes them in fleet order. The
// bytes must match the one-`ostream <<`-at-a-time reference, and the
// serial loop a dump inside a parallelFor worker takes.
TEST(DataCenter, ParallelStatsDumpMatchesReference)
{
    ASSERT_GE(600u, 2 * DataCenter::statsChunkServers);
    ChunkedPlant plant;
    const std::string got = plant.dump();
    EXPECT_NE(got.find("\nserver599.frac_failed "), std::string::npos);
    EXPECT_NE(got.find("\nswitch0.frac_asleep "), std::string::npos);
    EXPECT_EQ(got.find("\nreliability.faults_injected 0\n"),
              std::string::npos);
    const std::string want = referenceDump(plant.dc);
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "parallel dump differs from the reference";

    std::string nested;
    parallelFor(2, 1, [&](std::size_t) {
        EXPECT_TRUE(inParallelWorker());
        nested = plant.dump();
    });
    EXPECT_TRUE(nested == got) << "serial dump differs from the parallel one";
}

namespace {

// A trace's records grouped by track (pid, tid), each track's in file
// order. Where two tracks' records interleave depends on when each
// lazily replayed entity (a server's or a switch's idle ladder) was
// read; the records and each track's order do not.
std::string
recordsByTrack(const std::string &trace)
{
    std::vector<std::pair<std::pair<long, long>, std::string>> recs;
    std::istringstream in(trace);
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        long pid = -1;
        long tid = -1;
        if (auto at = line.find("\"pid\":"); at != std::string::npos)
            pid = std::stol(line.substr(at + 6));
        if (auto at = line.find("\"tid\":"); at != std::string::npos)
            tid = std::stol(line.substr(at + 6));
        recs.emplace_back(std::make_pair(pid, tid), std::move(line));
    }
    std::stable_sort(recs.begin(), recs.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::string out;
    for (const auto &r : recs)
        out += r.second + '\n';
    return out;
}

} // namespace

// A tracer keeps the dump on the serial loop, where servers close
// their trace slices before the fabric does. The file is pinned byte
// for byte, and its records track by track against the golden the
// event-driven network timers wrote.
TEST(DataCenter, TracedStatsDumpTraceIsGolden)
{
    const std::string path =
        ::testing::TempDir() + "holdcsim_chunked_trace.json";
    std::string dump;
    {
        ChunkedPlant plant(path);
        dump = plant.dump();
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream trace;
    trace << in.rdbuf();
    EXPECT_EQ(dump, ChunkedPlant().dump());
    EXPECT_EQ(trace.str().size(), 1443029u);
    EXPECT_EQ(fnv1a64(recordsByTrack(trace.str())), 0xdcad2a5a4a2c58d9ULL)
        << std::hex << fnv1a64(recordsByTrack(trace.str()));
    EXPECT_EQ(fnv1a64(trace.str()), 0x58da42a4b80d6c9dULL)
        << std::hex << fnv1a64(trace.str());
    std::remove(path.c_str());
}

// -------------------------------------------------------- invariant auditor

TEST(Auditor, CleanRunPassesEveryAudit)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.audit.enabled = true;
    cfg.audit.period = 50 * msec;
    DataCenter dc(cfg);
    ASSERT_NE(dc.auditor(), nullptr);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0, 100 * msec, 200 * msec}, gen);
    dc.run();
    dc.runUntil(1 * sec);
    EXPECT_GT(dc.auditor()->auditsPassed(), 0u);
    EXPECT_EQ(dc.auditor()->violations(), 0u);
    // Built-in event_queue + task_conservation + energy_accounting.
    EXPECT_GE(dc.auditor()->checksRun(),
              3 * dc.auditor()->auditsPassed());
}

TEST(Auditor, CatchesSeededTaskConservationBug)
{
    // Negative test: deliberately break task conservation and assert
    // the next audit aborts the replica with a structured error.
    DataCenterConfig cfg;
    cfg.nServers = 2;
    cfg.audit.enabled = true;
    cfg.audit.period = 20 * msec;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0, 50 * msec, 100 * msec, 200 * msec}, gen);
    dc.scheduler().debugInjectTaskLeak();
    try {
        dc.run();
        dc.runUntil(1 * sec);
        FAIL() << "audit should have aborted the run";
    } catch (const SimAbortError &e) {
        EXPECT_NE(std::string(e.what()).find("task_conservation"),
                  std::string::npos);
    }
    EXPECT_EQ(dc.auditor()->violations(), 1u);
}

TEST(Auditor, NonFatalModeCountsAndContinues)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    cfg.audit.enabled = true;
    cfg.audit.period = 20 * msec;
    cfg.audit.fatal = false;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0, 100 * msec}, gen);
    dc.scheduler().debugInjectTaskLeak();
    EXPECT_NO_THROW({
        dc.run();
        dc.runUntil(500 * msec);
    });
    EXPECT_GT(dc.auditor()->violations(), 1u);
}

TEST(Auditor, DisabledByDefault)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    DataCenter dc(cfg);
    EXPECT_EQ(dc.auditor(), nullptr);
}

TEST(Auditor, AuditStatsAppearInDump)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    cfg.audit.enabled = true;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0}, gen);
    dc.run();
    std::ostringstream os;
    dc.dumpStats(os);
    EXPECT_NE(os.str().find("audit.audits_passed"), std::string::npos);
    EXPECT_NE(os.str().find("audit.violations 0"), std::string::npos);
}

// ------------------------------------------------------------ gauge sampler

TEST(GaugeSampler, RecordsPeriodicSeries)
{
    Simulator sim;
    double signal = 1.0;
    GaugeSampler sampler(sim, [&] { return signal; }, 100 * msec);
    sampler.start();
    EventFunctionWrapper bump([&] { signal = 5.0; }, "bump");
    sim.schedule(bump, 450 * msec);
    sim.runUntil(1 * sec);
    sampler.stop();
    ASSERT_EQ(sampler.series().size(), 10u);
    EXPECT_DOUBLE_EQ(sampler.series()[0].value, 1.0);
    EXPECT_DOUBLE_EQ(sampler.series()[4].value, 5.0);
    EXPECT_NEAR(sampler.mean(), (4 * 1.0 + 6 * 5.0) / 10.0, 1e-9);
}

TEST(TraceCompare, Statistics)
{
    std::vector<Sample> a{{0, 1.0}, {1, 2.0}, {2, 3.0}};
    std::vector<Sample> b{{0, 1.5}, {1, 2.5}, {2, 3.5}, {3, 9.0}};
    auto cmp = compareTraces(a, b);
    EXPECT_EQ(cmp.points, 3u);
    EXPECT_DOUBLE_EQ(cmp.meanDiff, -0.5);
    EXPECT_DOUBLE_EQ(cmp.meanAbsDiff, 0.5);
    EXPECT_NEAR(cmp.stddevDiff, 0.0, 1e-9);
}

// ---------------------------------------------------------------- validation

TEST(Validation, NoiseModelTracksTruth)
{
    double truth = 20.0;
    PhysicalPowerModel model([&] { return truth; },
                             serverMeasurementNoise(),
                             Rng(1, "phys"));
    Accumulator acc;
    for (int i = 0; i < 5000; ++i)
        acc.sample(model.sample() - truth);
    // Residual mean small, sigma in the ~1-2 W band the paper saw.
    EXPECT_LT(std::abs(acc.mean()), 0.5);
    EXPECT_GT(acc.stddev(), 0.5);
    EXPECT_LT(acc.stddev(), 3.0);
}

TEST(Validation, SwitchNoiseIsSmall)
{
    double truth = 15.0;
    PhysicalPowerModel model([&] { return truth; },
                             switchMeasurementNoise(),
                             Rng(2, "phys"));
    Accumulator acc;
    for (int i = 0; i < 5000; ++i)
        acc.sample(model.sample() - truth);
    EXPECT_LT(std::abs(acc.mean()), 0.3);
    EXPECT_LT(acc.stddev(), 0.2);
}

TEST(Validation, NeverNegative)
{
    PhysicalPowerModel model([] { return 0.05; },
                             serverMeasurementNoise(),
                             Rng(3, "phys"));
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(model.sample(), 0.0);
}

TEST(Validation, RejectsBadParams)
{
    MeasurementNoiseParams p;
    p.driftPersistence = 1.5;
    EXPECT_THROW(PhysicalPowerModel([] { return 1.0; }, p, Rng(1)),
                 FatalError);
    EXPECT_THROW(PhysicalPowerModel(nullptr,
                                    MeasurementNoiseParams{}, Rng(1)),
                 FatalError);
}
