/**
 * @file
 * The config-key table, configKeys() in src/dc/dc_config.cc. Every
 * row parses its perturbed value to exactly the fields the parser
 * produced before the table existed (the golden), and every row's
 * perturbed value changes some output of a small plant run through
 * holdcsim_cli -- the stats dump, the trace, the sample CSV, the
 * journal or the explorer report -- unless the row says why it
 * cannot (the liveness rule; ctest -L knobs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "dc/dc_config.hh"
#include "fault/fault_model.hh"

using namespace holdcsim;

namespace {

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Every parsed DataCenterConfig field, one "name=value" line each. */
std::vector<std::string>
dumpConfig(const DataCenterConfig &c)
{
    std::vector<std::string> out;
    auto f = [&out](const char *name, const std::string &v) {
        out.push_back(std::string(name) + "=" + v);
    };
    auto u = [](std::uint64_t v) { return std::to_string(v); };
    auto e = [](auto v) { return std::to_string(static_cast<int>(v)); };
    auto b = [](bool v) { return std::string(v ? "1" : "0"); };
    const ServerPowerProfile &sp = c.serverProfile;
    const SwitchPowerProfile &wp = c.switchProfile;
    f("nServers", u(c.nServers));
    f("nCores", u(c.nCores));
    f("sp.coreActive", num(sp.coreActive));
    f("sp.coreC0Idle", num(sp.coreC0Idle));
    f("sp.coreC1", num(sp.coreC1));
    f("sp.coreC3", num(sp.coreC3));
    f("sp.coreC6", num(sp.coreC6));
    f("sp.pkgPc0", num(sp.pkgPc0));
    f("sp.pkgPc2", num(sp.pkgPc2));
    f("sp.pkgPc6", num(sp.pkgPc6));
    f("sp.dramActive", num(sp.dramActive));
    f("sp.dramIdle", num(sp.dramIdle));
    f("sp.dramSelfRefresh", num(sp.dramSelfRefresh));
    f("sp.platformS0", num(sp.platformS0));
    f("sp.platformS3", num(sp.platformS3));
    f("sp.platformS5", num(sp.platformS5));
    f("sp.c1ExitLatency", u(sp.c1ExitLatency));
    f("sp.c3ExitLatency", u(sp.c3ExitLatency));
    f("sp.c6ExitLatency", u(sp.c6ExitLatency));
    f("sp.pc6ExitLatency", u(sp.pc6ExitLatency));
    f("sp.s3WakeLatency", u(sp.s3WakeLatency));
    f("sp.s3EntryLatency", u(sp.s3EntryLatency));
    f("sp.pstates", u(sp.pstates.size()));
    f("queueMode", e(c.queueMode));
    f("corePick", e(c.corePick));
    f("allowPkgC6", b(c.allowPkgC6));
    f("controller", e(c.controller));
    f("delayTimerTau", u(c.delayTimerTau));
    f("dispatch", e(c.dispatch));
    f("useGlobalQueue", b(c.useGlobalQueue));
    f("taskAntiAffinity", b(c.taskAntiAffinity));
    f("timerMode", e(c.timerMode));
    f("wheelGranularity", u(c.wheelGranularity));
    f("fabric", e(c.fabric));
    f("fabricParam", u(c.fabricParam));
    f("fabricParam2", u(c.fabricParam2));
    f("linkRate", num(c.linkRate));
    f("linkLatency", u(c.linkLatency));
    f("wp.chassisBase", num(wp.chassisBase));
    f("wp.switchSleep", num(wp.switchSleep));
    f("wp.switchWakeLatency", u(wp.switchWakeLatency));
    f("wp.linecardActive", num(wp.linecardActive));
    f("wp.linecardSleep", num(wp.linecardSleep));
    f("wp.linecardOff", num(wp.linecardOff));
    f("wp.linecardSleepThreshold", u(wp.linecardSleepThreshold));
    f("wp.linecardWakeLatency", u(wp.linecardWakeLatency));
    f("wp.portActive", num(wp.portActive));
    f("wp.portLpi", num(wp.portLpi));
    f("wp.portOff", num(wp.portOff));
    f("wp.lpiIdleThreshold", u(wp.lpiIdleThreshold));
    f("wp.lpiExitLatency", u(wp.lpiExitLatency));
    f("wp.alrFloorFraction", num(wp.alrFloorFraction));
    f("net.portBufferCapacity", u(c.netConfig.portBufferCapacity));
    f("net.portsPerLinecard", u(c.netConfig.portsPerLinecard));
    f("net.switchForwardDelay", u(c.netConfig.switchForwardDelay));
    f("net.serverRelayDelay", u(c.netConfig.serverRelayDelay));
    f("net.switchSleepDelay", u(c.netConfig.switchSleepDelay));
    f("net.mtuBytes", u(c.netConfig.mtuBytes));
    f("net.fastPathBytes", u(c.netConfig.fastPathBytes));
    f("fault.enabled", b(c.fault.enabled));
    f("fault.mttfHours", num(c.fault.mttfHours));
    f("fault.mttrMinutes", num(c.fault.mttrMinutes));
    f("fault.distribution", c.fault.distribution);
    f("fault.weibullShape", num(c.fault.weibullShape));
    f("fault.faultTrace", c.fault.faultTrace);
    f("fault.faultServers", b(c.fault.faultServers));
    f("fault.faultSwitches", b(c.fault.faultSwitches));
    f("fault.faultLinecards", b(c.fault.faultLinecards));
    f("fault.faultLinks", b(c.fault.faultLinks));
    f("fault.maxRetries", u(c.fault.maxRetries));
    f("fault.retryBackoffBase", u(c.fault.retryBackoffBase));
    f("fault.retryBackoffMax", u(c.fault.retryBackoffMax));
    f("fault.taskTimeout", u(c.fault.taskTimeout));
    f("fault.schedule",
      c.fault.schedule ? u(c.fault.schedule->size()) : "none");
    f("telemetry.enabled", b(c.telemetry.enabled));
    f("telemetry.traceOut", c.telemetry.traceOut);
    f("telemetry.traceFormat", c.telemetry.traceFormat);
    f("telemetry.traceCategories", c.telemetry.traceCategories);
    f("telemetry.sampleOut", c.telemetry.sampleOut);
    f("telemetry.samplePeriod", u(c.telemetry.samplePeriod));
    f("telemetry.profile", b(c.telemetry.profile));
    f("orch.placement", c.orch.placement);
    f("orch.reconcilePeriod", u(c.orch.reconcilePeriod));
    f("orch.overcommit", num(c.orch.overcommit));
    f("orch.serverMemBytes", u(c.orch.serverMemBytes));
    f("orch.interference", num(c.orch.interference));
    f("orch.remoteMemPenaltyPerUs", num(c.orch.remoteMemPenaltyPerUs));
    f("orch.autoscale", b(c.orch.autoscale));
    f("orch.autoscaleHigh", num(c.orch.autoscaleHigh));
    f("orch.autoscaleLow", num(c.orch.autoscaleLow));
    f("orch.migrationDirtyFrac", num(c.orch.migrationDirtyFrac));
    f("orch.migrationStopCopyBytes", u(c.orch.migrationStopCopyBytes));
    f("orch.migrationMaxRounds", u(c.orch.migrationMaxRounds));
    f("orch.enabled", b(c.orch.enabled));
    f("orch.tagJobs", b(c.orch.tagJobs));
    f("orch.replicas", u(c.orch.replicas));
    f("orch.minReplicas", u(c.orch.minReplicas));
    f("orch.maxReplicas", u(c.orch.maxReplicas));
    f("orch.containerCores", num(c.orch.containerCores));
    f("orch.containerMemBytes", u(c.orch.containerMemBytes));
    f("orch.remoteMemFrac", num(c.orch.remoteMemFrac));
    f("orch.antiAffinity", b(c.orch.antiAffinity));
    f("audit.enabled", b(c.audit.enabled));
    f("audit.period", u(c.audit.period));
    f("audit.fatal", b(c.audit.fatal));
    f("audit.energyTolerance", num(c.audit.energyTolerance));
    f("mc.strategy", c.mc.strategy);
    f("mc.horizon", u(c.mc.horizon));
    f("mc.budget", u(c.mc.budget));
    f("mc.eventBudget", u(c.mc.eventBudget));
    f("mc.repair", u(c.mc.repair));
    f("mc.maxFaults", u(c.mc.maxFaults));
    f("mc.seedBug", b(c.mc.seedBug));
    f("campaign.journal", c.campaign.journal);
    f("campaign.watchdogSec", num(c.campaign.watchdogSec));
    f("campaign.maxEvents", u(c.campaign.maxEvents));
    f("campaign.maxAttempts", u(c.campaign.maxAttempts));
    f("campaign.retryBackoffBase", u(c.campaign.retryBackoffBase));
    f("campaign.retryBackoffMax", u(c.campaign.retryBackoffMax));
    f("seed", u(c.seed));
    return out;
}

/** Lines of @p dump that differ from @p base, joined by ' '. */
std::string
diffDump(const std::vector<std::string> &base,
         const std::vector<std::string> &dump)
{
    std::string out;
    for (std::size_t i = 0; i < dump.size(); ++i) {
        if (i < base.size() && dump[i] == base[i])
            continue;
        out += (out.empty() ? "" : " ") + dump[i];
    }
    return out;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Hash of what the built workload does: its horizon and job cap, its
 * first 50 arrivals and the shape, service times and edge bytes of its
 * first 20 jobs.
 */
std::uint64_t
fingerprint(ConfiguredWorkload &wl)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv(h, wl.until);
    h = fnv(h, wl.maxJobs);
    for (int i = 0; i < 50 && !wl.arrivals->exhausted(); ++i)
        h = fnv(h, wl.arrivals->nextArrival());
    for (int i = 0; i < 20; ++i) {
        Job j = wl.jobs->makeJob(0);
        h = fnv(h, j.numTasks());
        for (TaskId t = 0; t < j.numTasks(); ++t) {
            h = fnv(h, j.task(t).serviceTime);
            h = fnv(h, static_cast<std::uint64_t>(j.task(t).type));
            for (TaskId p : j.parents(t))
                h = fnv(h, p);
            for (Bytes bytes : j.parentBytes(t))
                h = fnv(h, bytes);
        }
    }
    return h;
}

std::uint64_t
hashLines(const std::vector<std::string> &lines)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &l : lines) {
        for (char ch : l) {
            h ^= static_cast<unsigned char>(ch);
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** fingerprint() of the workload @p c's [workload] section builds. */
std::uint64_t
workloadOf(const DataCenterConfig &c)
{
    ConfiguredWorkload wl = makeWorkload(c.workload, c, 3);
    return fingerprint(wl);
}

/**
 * The row's companion lines and, when @p perturbed, its own key set
 * to the perturbed value, as INI text.
 */
std::string
rowIni(const ConfigKey &k, bool perturbed)
{
    std::string ini = std::string(k.companions) + "\n";
    if (perturbed) {
        const std::string name = k.name;
        const std::size_t dot = name.find('.');
        ini += "[" + name.substr(0, dot) + "]\n" + name.substr(dot + 1) +
               " = " + k.perturbed + "\n";
    }
    return ini;
}

/**
 * A fresh directory, current for one test's lifetime, holding the
 * files the perturbed values name: two arrival traces and a fault
 * trace that crashes server 1 from 50 to 150 ms.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : _home(std::filesystem::current_path()),
          _dir(std::filesystem::path(::testing::TempDir()) /
               ("holdcsim_knobs_" + std::to_string(getpid()) + "_" + name))
    {
        std::filesystem::remove_all(_dir);
        std::filesystem::create_directories(_dir);
        std::filesystem::current_path(_dir);
        std::ofstream("knobs_arrivals_a.txt") << "0.01\n0.02\n0.05\n0.1\n";
        std::ofstream("knobs_arrivals_b.txt") << "0.03\n0.04\n0.2\n";
        std::ofstream trace("knobs_fault.trace");
        writeFaultTrace(
            trace, {{{FaultKind::server, 1, 0}, {50 * msec, 150 * msec}}}, {});
    }

    ~ScratchDir()
    {
        std::filesystem::current_path(_home);
        std::filesystem::remove_all(_dir);
    }

  private:
    std::filesystem::path _home;
    std::filesystem::path _dir;
};

struct Golden {
    const char *key;
    const char *value;
    const char *diff;
    std::uint64_t workload;
};

// Recorded from the parser as it stood before the key table: the
// default config's dump hash and workload fingerprint, then per row
// the dump lines its perturbed INI changes and its fingerprint. The
// default hash was re-recorded when the dump's two schedule lines
// (a flag and a size) became one optional schedule line.
constexpr std::uint64_t kDefaultDumpHash = 0x58ad76203daaa048ULL;
constexpr std::uint64_t kDefaultWorkload = 0xd48554ccc2b4682fULL;

const Golden kGolden[] = {
    {"datacenter.servers", "3",
     "nServers=3",
     0x98c2417968aa69f9ULL},
    {"datacenter.cores", "3",
     "nCores=3",
     0xb42d575fe01270b6ULL},
    {"datacenter.seed", "7",
     "seed=7",
     0xd48554ccc2b4682fULL},
    {"datacenter.timer_mode", "wheel",
     "timerMode=1 telemetry.enabled=1 telemetry.profile=1",
     0xd48554ccc2b4682fULL},
    {"datacenter.wheel_granularity_us", "1000",
     "timerMode=1 wheelGranularity=1000000",
     0xd48554ccc2b4682fULL},
    {"server.queue_mode", "per_core",
     "queueMode=1",
     0xd48554ccc2b4682fULL},
    {"server.core_pick", "least_loaded",
     "queueMode=1 corePick=1",
     0xd48554ccc2b4682fULL},
    {"server.allow_pkg_c6", "false",
     "allowPkgC6=0",
     0xd48554ccc2b4682fULL},
    {"server.controller", "delay_timer",
     "controller=1 delayTimerTau=1000000",
     0xd48554ccc2b4682fULL},
    {"server.tau_ms", "1",
     "controller=1 delayTimerTau=1000000",
     0xd48554ccc2b4682fULL},
    {"scheduler.policy", "round_robin",
     "dispatch=0",
     0xd48554ccc2b4682fULL},
    {"scheduler.global_queue", "true",
     "useGlobalQueue=1",
     0xd48554ccc2b4682fULL},
    {"scheduler.anti_affinity", "true",
     "taskAntiAffinity=1",
     0x06604e812469553cULL},
    {"network.fabric", "star",
     "fabric=1",
     0xd48554ccc2b4682fULL},
    {"network.param", "2",
     "fabric=2 fabricParam=2",
     0xd48554ccc2b4682fULL},
    {"network.param2", "2",
     "fabric=4 fabricParam=2 fabricParam2=2",
     0xd48554ccc2b4682fULL},
    {"network.link_rate_gbps", "0.1",
     "fabric=1 linkRate=100000000",
     0x6642f0db3b0dd340ULL},
    {"network.link_latency_us", "50",
     "fabric=1 linkLatency=50000 net.fastPathBytes=65536",
     0x8d2127185e6cb43cULL},
    {"network.switch_sleep_ms", "1",
     "fabric=1 net.switchSleepDelay=1000000",
     0xd48554ccc2b4682fULL},
    {"network.fast_path_kb", "64",
     "fabric=1 net.fastPathBytes=65536",
     0x8d2127185e6cb43cULL},
    {"fault.enabled", "true",
     "fault.enabled=1",
     0xd48554ccc2b4682fULL},
    {"fault.mttf_hours", "0.0001",
     "fault.enabled=1 fault.mttfHours=0.0001",
     0xd48554ccc2b4682fULL},
    {"fault.mttr_minutes", "0.001",
     "fault.enabled=1 fault.mttfHours=0.0001 fault.mttrMinutes=0.001",
     0xd48554ccc2b4682fULL},
    {"fault.distribution", "weibull",
     "fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.distribution=weibull",
     0xd48554ccc2b4682fULL},
    {"fault.weibull_shape", "3",
     "fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.distribution=weibull fault.weibullShape=3",
     0xd48554ccc2b4682fULL},
    {"fault.fault_trace", "knobs_fault.trace",
     "fault.enabled=1 fault.faultTrace=knobs_fault.trace",
     0xd48554ccc2b4682fULL},
    {"fault.fault_servers", "false",
     "fabric=1 fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.faultServers=0 fault.faultLinks=1",
     0xd48554ccc2b4682fULL},
    {"fault.fault_switches", "true",
     "fabric=1 fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.faultSwitches=1",
     0xd48554ccc2b4682fULL},
    {"fault.fault_linecards", "true",
     "fabric=1 fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.faultLinecards=1",
     0xd48554ccc2b4682fULL},
    {"fault.fault_links", "true",
     "fabric=1 fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.faultLinks=1",
     0xd48554ccc2b4682fULL},
    {"fault.max_retries", "0",
     "fault.enabled=1 fault.mttfHours=0.0001 fault.maxRetries=0",
     0xd48554ccc2b4682fULL},
    {"fault.retry_backoff_base_ms", "100",
     "fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.retryBackoffBase=100000000",
     0xd48554ccc2b4682fULL},
    {"fault.retry_backoff_max_ms", "1",
     "fault.enabled=1 fault.mttfHours=0.0001 "
     "fault.retryBackoffMax=1000000",
     0xd48554ccc2b4682fULL},
    {"fault.task_timeout_ms", "1",
     "fault.enabled=1 fault.taskTimeout=1000000",
     0xd48554ccc2b4682fULL},
    {"orch.enabled", "true",
     "orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.placement", "spread",
     "orch.placement=spread orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.reconcile_ms", "10",
     "orch.reconcilePeriod=10000000 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.overcommit", "2",
     "orch.overcommit=2 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.interference", "0.5",
     "orch.overcommit=2 orch.interference=0.5 orch.enabled=1 "
     "orch.replicas=8",
     0xd48554ccc2b4682fULL},
    {"orch.remote_mem_penalty_per_us", "1",
     "fabric=1 fault.enabled=1 fault.faultTrace=knobs_fault.trace "
     "orch.remoteMemPenaltyPerUs=1 orch.enabled=1 "
     "orch.remoteMemFrac=0.5",
     0xd48554ccc2b4682fULL},
    {"orch.server_mem_mb", "600",
     "orch.serverMemBytes=629145600 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.autoscale", "true",
     "orch.reconcilePeriod=10000000 orch.autoscale=1 "
     "orch.autoscaleHigh=0.5 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.autoscale_high", "0.5",
     "orch.reconcilePeriod=10000000 orch.autoscale=1 "
     "orch.autoscaleHigh=0.5 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.autoscale_low", "0.7",
     "orch.reconcilePeriod=10000000 orch.autoscale=1 "
     "orch.autoscaleLow=0.69999999999999996 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.migration_dirty_frac", "0.5",
     "orch.migrationDirtyFrac=0.5 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.migration_stop_copy_mb", "1",
     "orch.migrationStopCopyBytes=1048576 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.migration_max_rounds", "1",
     "orch.migrationMaxRounds=1 orch.enabled=1",
     0xd48554ccc2b4682fULL},
    {"orch.tag_jobs", "false",
     "orch.enabled=1 orch.tagJobs=0",
     0xd48554ccc2b4682fULL},
    {"orch.replicas", "2",
     "orch.enabled=1 orch.replicas=2",
     0xd48554ccc2b4682fULL},
    {"orch.min_replicas", "6",
     "orch.reconcilePeriod=10000000 orch.autoscale=1 orch.enabled=1 "
     "orch.minReplicas=6",
     0xd48554ccc2b4682fULL},
    {"orch.max_replicas", "2",
     "orch.reconcilePeriod=10000000 orch.autoscale=1 orch.enabled=1 "
     "orch.maxReplicas=2",
     0xd48554ccc2b4682fULL},
    {"orch.container_cores", "2",
     "orch.enabled=1 orch.containerCores=2",
     0xd48554ccc2b4682fULL},
    {"orch.container_mem_mb", "1024",
     "orch.serverMemBytes=1073741824 orch.enabled=1 "
     "orch.containerMemBytes=1073741824",
     0xd48554ccc2b4682fULL},
    {"orch.remote_mem_frac", "0.5",
     "fabric=1 fault.enabled=1 fault.faultTrace=knobs_fault.trace "
     "orch.remoteMemPenaltyPerUs=1 orch.enabled=1 "
     "orch.remoteMemFrac=0.5",
     0xd48554ccc2b4682fULL},
    {"orch.anti_affinity", "true",
     "orch.enabled=1 orch.antiAffinity=1",
     0xd48554ccc2b4682fULL},
    {"telemetry.enabled", "false",
     "telemetry.profile=1",
     0xd48554ccc2b4682fULL},
    {"telemetry.trace_out", "knobs_trace.json",
     "telemetry.enabled=1 telemetry.traceOut=knobs_trace.json",
     0xd48554ccc2b4682fULL},
    {"telemetry.trace_format", "csv",
     "telemetry.enabled=1 telemetry.traceOut=knobs_trace.json "
     "telemetry.traceFormat=csv",
     0xd48554ccc2b4682fULL},
    {"telemetry.trace_categories", "server",
     "telemetry.enabled=1 telemetry.traceOut=knobs_trace.json "
     "telemetry.traceCategories=server",
     0xd48554ccc2b4682fULL},
    {"telemetry.sample_out", "knobs_samples.csv",
     "telemetry.enabled=1 telemetry.sampleOut=knobs_samples.csv",
     0xd48554ccc2b4682fULL},
    {"telemetry.sample_period_ms", "10",
     "telemetry.enabled=1 telemetry.sampleOut=knobs_samples.csv "
     "telemetry.samplePeriod=10000000",
     0xd48554ccc2b4682fULL},
    {"telemetry.profile", "true",
     "telemetry.enabled=1 telemetry.profile=1",
     0xd48554ccc2b4682fULL},
    {"audit.enabled", "true",
     "audit.enabled=1",
     0xd48554ccc2b4682fULL},
    {"audit.period_ms", "10",
     "audit.enabled=1 audit.period=10000000",
     0xd48554ccc2b4682fULL},
    {"audit.fatal", "false",
     "audit.enabled=1 audit.fatal=0 audit.energyTolerance=0",
     0xd48554ccc2b4682fULL},
    {"audit.energy_tolerance", "0",
     "audit.enabled=1 audit.fatal=0 audit.energyTolerance=0",
     0xd48554ccc2b4682fULL},
    {"mc.strategy", "boundary",
     "mc.strategy=boundary mc.budget=8",
     0xd48554ccc2b4682fULL},
    {"mc.horizon_ms", "100",
     "mc.horizon=100000000 mc.budget=8",
     0xd48554ccc2b4682fULL},
    {"mc.budget", "2",
     "mc.budget=2",
     0xd48554ccc2b4682fULL},
    {"mc.event_budget", "100",
     "mc.budget=8 mc.eventBudget=100",
     0xd48554ccc2b4682fULL},
    {"mc.repair_ms", "10",
     "mc.budget=8 mc.repair=10000000 mc.seedBug=1",
     0xd48554ccc2b4682fULL},
    {"mc.max_faults", "1",
     "mc.strategy=exhaustive mc.budget=8 mc.maxFaults=1 mc.seedBug=1",
     0xd48554ccc2b4682fULL},
    {"mc.seed_bug", "true",
     "mc.budget=8 mc.seedBug=1",
     0xd48554ccc2b4682fULL},
    {"campaign.journal", "knobs_journal.jsonl",
     "campaign.journal=knobs_journal.jsonl",
     0xd48554ccc2b4682fULL},
    {"campaign.watchdog_sec", "0.000001",
     "campaign.watchdogSec=9.9999999999999995e-07",
     0xd48554ccc2b4682fULL},
    {"campaign.max_events", "100",
     "campaign.maxEvents=100",
     0xd48554ccc2b4682fULL},
    {"campaign.max_attempts", "1",
     "campaign.maxEvents=100 campaign.maxAttempts=1",
     0xd48554ccc2b4682fULL},
    {"campaign.retry_backoff_base_ms", "1",
     "campaign.maxEvents=100 campaign.retryBackoffBase=1000000",
     0xd48554ccc2b4682fULL},
    {"campaign.retry_backoff_max_ms", "1",
     "campaign.maxEvents=100 campaign.retryBackoffMax=1000000",
     0xd48554ccc2b4682fULL},
    {"workload.arrival", "mmpp",
     "",
     0x3cc3a3a80b15d2cdULL},
    {"workload.rate", "100",
     "",
     0xd88f851002c67954ULL},
    {"workload.utilization", "0.1",
     "",
     0x807bde876b37357fULL},
    {"workload.duration_s", "0.2",
     "",
     0xa46ef9e002d3ae5fULL},
    {"workload.max_jobs", "10",
     "",
     0xb7f4f0cdf109e525ULL},
    {"workload.service", "fixed",
     "",
     0xc2aebc29b2a2bca9ULL},
    {"workload.service_mean_ms", "2",
     "",
     0xa280d202724578e4ULL},
    {"workload.service_max_ms", "50",
     "",
     0x8aff53ebd0ca8faeULL},
    {"workload.job", "chain",
     "",
     0x06604e812469553cULL},
    {"workload.stages", "3",
     "",
     0xfbb4194ea6a3c01fULL},
    {"workload.transfer_kb", "16",
     "fabric=1",
     0x8d2127185e6cb43cULL},
    {"workload.burst_ratio", "2",
     "",
     0x157892617f5c1800ULL},
    {"workload.burst_fraction", "0.5",
     "",
     0x0d4031a08f090f17ULL},
    {"workload.trace_file", "knobs_arrivals_b.txt",
     "",
     0xff236ddac3953496ULL},
    {"server_power.core_active_w", "8",
     "sp.coreActive=8",
     0xd48554ccc2b4682fULL},
    {"server_power.core_c0_idle_w", "2.5",
     "sp.coreC0Idle=2.5 controller=1 delayTimerTau=1000000",
     0xd48554ccc2b4682fULL},
    {"server_power.core_c1_w", "1.2",
     "sp.coreC1=1.2",
     0xd48554ccc2b4682fULL},
    {"server_power.core_c3_w", "0.5",
     "sp.coreC3=0.5",
     0xd48554ccc2b4682fULL},
    {"server_power.core_c6_w", "0.01",
     "sp.coreC6=0.01",
     0xd48554ccc2b4682fULL},
    {"server_power.pkg_pc0_w", "12",
     "sp.pkgPc0=12",
     0xd48554ccc2b4682fULL},
    {"server_power.pkg_pc2_w", "4",
     "sp.pkgPc2=4",
     0xd48554ccc2b4682fULL},
    {"server_power.pkg_pc6_w", "0.5",
     "sp.pkgPc6=0.5",
     0xd48554ccc2b4682fULL},
    {"server_power.dram_active_w", "7",
     "sp.dramActive=7",
     0xd48554ccc2b4682fULL},
    {"server_power.dram_idle_w", "2",
     "sp.dramIdle=2",
     0xd48554ccc2b4682fULL},
    {"server_power.dram_self_refresh_w", "0.2",
     "sp.dramSelfRefresh=0.20000000000000001",
     0xd48554ccc2b4682fULL},
    {"server_power.platform_s0_w", "50",
     "sp.platformS0=50",
     0xd48554ccc2b4682fULL},
    {"server_power.platform_s3_w", "3",
     "sp.platformS3=3 controller=1 delayTimerTau=1000000",
     0xd48554ccc2b4682fULL},
    {"server_power.platform_s5_w", "0.5",
     "sp.platformS5=0.5",
     0xd48554ccc2b4682fULL},
    {"server_power.s3_wake_ms", "100",
     "sp.s3WakeLatency=100000000 controller=1 delayTimerTau=1000000",
     0xd48554ccc2b4682fULL},
    {"server_power.s3_entry_ms", "100",
     "sp.s3EntryLatency=100000000 controller=1 delayTimerTau=1000000",
     0xd48554ccc2b4682fULL},
    {"switch_power.chassis_base_w", "20",
     "fabric=1 wp.chassisBase=20",
     0xd48554ccc2b4682fULL},
    {"switch_power.switch_sleep_w", "1",
     "fabric=1 wp.switchSleep=1 net.switchSleepDelay=1000000",
     0xd48554ccc2b4682fULL},
    {"switch_power.linecard_active_w", "5",
     "fabric=1 wp.linecardActive=5",
     0xd48554ccc2b4682fULL},
    {"switch_power.linecard_sleep_w", "0.5",
     "fabric=1 wp.linecardSleep=0.5",
     0xd48554ccc2b4682fULL},
    {"switch_power.port_active_w", "0.5",
     "fabric=1 wp.portActive=0.5",
     0xd48554ccc2b4682fULL},
    {"switch_power.port_lpi_w", "0.05",
     "fabric=1 wp.portLpi=0.050000000000000003",
     0xd48554ccc2b4682fULL},
    {"switch_power.switch_wake_ms", "5",
     "fabric=1 wp.switchWakeLatency=5000000 "
     "net.switchSleepDelay=1000000",
     0x10267ecd11afe84cULL},
    {"switch_power.linecard_wake_ms", "5",
     "fabric=1 wp.linecardWakeLatency=5000000",
     0x10267ecd11afe84cULL},
};

/** The plant every liveness run starts from: 4 x 2 cores for 0.5 s. */
const char *kPlant = R"(
[datacenter]
servers = 4
cores = 2
[workload]
duration_s = 0.5
)";

/** Files a run may leave behind, named by the perturbed values. */
const char *const kSideOutputs[] = {
    "knobs_trace.json", "knobs_samples.csv", "knobs_journal.jsonl",
    "knobs_repro.fault",
};

/**
 * What holdcsim_cli makes of the plant plus @p ini: its stdout without
 * host-time rows ("host_" fields, "# " tables), its exit status, then
 * each side output it wrote, which is removed. @p flags picks the
 * mode: the explorer for [mc] keys, a replicated campaign for
 * [campaign] keys. Sets @p status to the exit status.
 */
std::string
runCli(const std::string &ini, const std::string &flags, int &status)
{
    std::ofstream("knobs.ini") << kPlant << ini;
    const std::string cmd =
        std::string(HOLDCSIM_CLI) + flags + " knobs.ini 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (!pipe)
        return {};
    std::string out, line;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, pipe)) {
        line = buf;
        if (line.rfind("#", 0) != 0 && line.find("host_") == line.npos)
            out += line;
    }
    status = pclose(pipe);
    out += "exit " + std::to_string(status) + "\n";
    for (const char *file : kSideOutputs) {
        std::ifstream in(file);
        if (!in)
            continue;
        std::ostringstream text;
        text << in.rdbuf();
        out += std::string("== ") + file + "\n" + text.str();
        std::filesystem::remove(file);
    }
    return out;
}

std::string
section(const ConfigKey &k)
{
    const std::string name = k.name;
    return name.substr(0, name.find('.'));
}

} // namespace

TEST(ConfigKeys, Census)
{
    std::set<std::string> names;
    std::size_t exempt = 0;
    for (const ConfigKey &k : configKeys()) {
        EXPECT_TRUE(names.insert(k.name).second) << "duplicate " << k.name;
        EXPECT_NE(std::string(k.name).find('.'), std::string::npos)
            << k.name;
        EXPECT_STRNE(k.perturbed, "") << k.name;
        exempt += *k.exempt != '\0';
    }
    RecordProperty("config_keys", static_cast<int>(configKeys().size()));
    RecordProperty("config_keys_exempt", static_cast<int>(exempt));
}

/**
 * Liveness: each row's perturbed value, on top of its companion
 * lines, changes what holdcsim_cli prints or writes for the plant,
 * and the perturbed run succeeds (the default one may fail: the
 * perturbed audit.fatal = false survives a violation). An exempt row
 * is skipped with its reason.
 */
class KnobLiveness : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(KnobLiveness, PerturbedValueChangesAnOutput)
{
    const ConfigKey &k = configKeys()[GetParam()];
    if (*k.exempt)
        GTEST_SKIP() << k.name << " is exempt: " << k.exempt;
    ScratchDir dir(std::to_string(GetParam()));
    std::string flags;
    if (section(k) == "mc")
        flags = " --explore --repro-out=knobs_repro.fault";
    else if (section(k) == "campaign")
        flags = " --replicas=2";
    int status = 0;
    const std::string base = runCli(rowIni(k, false), flags, status);
    const std::string perturbed = runCli(rowIni(k, true), flags, status);
    EXPECT_EQ(status, 0) << k.name << " = " << k.perturbed << " fails";
    EXPECT_NE(base, perturbed)
        << k.name << " = " << k.perturbed << " changes no output";
}

INSTANTIATE_TEST_SUITE_P(
    Rows, KnobLiveness, ::testing::Range<std::size_t>(0, configKeys().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = configKeys()[info.param].name;
        std::replace(name.begin(), name.end(), '.', '_');
        return name;
    });

TEST(ConfigKeys, ParsedFieldsMatchGolden)
{
    ScratchDir dir("golden");
    const DataCenterConfig defaults = DataCenterConfig::fromConfig({});
    const std::vector<std::string> base = dumpConfig(defaults);
    EXPECT_EQ(hashLines(base), kDefaultDumpHash);
    EXPECT_EQ(workloadOf(defaults), kDefaultWorkload);
    ASSERT_EQ(configKeys().size(), std::size(kGolden));
    for (std::size_t i = 0; i < configKeys().size(); ++i) {
        const ConfigKey &k = configKeys()[i];
        const Golden &g = kGolden[i];
        ASSERT_STREQ(k.name, g.key) << "row " << i;
        EXPECT_STREQ(k.perturbed, g.value) << k.name;
        const DataCenterConfig c =
            DataCenterConfig::fromConfig(Config::parseString(rowIni(k, true)));
        EXPECT_EQ(diffDump(base, dumpConfig(c)), g.diff) << k.name;
        EXPECT_EQ(workloadOf(c), g.workload) << k.name;
    }
}
