/**
 * @file
 * Top-level data center configuration: the "configurable user
 * script" (paper section III) that selects the server fleet,
 * per-server power management, global dispatch policy, network
 * fabric and workload for an experiment, loadable from INI text, and
 * makeWorkload(), which turns the workload settings into a workload.
 */

#ifndef HOLDCSIM_DC_DC_CONFIG_HH
#define HOLDCSIM_DC_DC_CONFIG_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_model.hh"
#include "network/network.hh"
#include "network/switch_power.hh"
#include "orch/orchestrator.hh"
#include "server/power_profile.hh"
#include "server/server.hh"
#include "sim/config.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"

namespace holdcsim {

/** Everything needed to instantiate a DataCenter. */
struct DataCenterConfig {
    /** @name Server fleet */
    ///@{
    /** Number of servers (ignored when a fabric dictates it). */
    unsigned nServers = 50;
    unsigned nCores = 4;
    ServerPowerProfile serverProfile;
    LocalQueueMode queueMode = LocalQueueMode::unified;
    CorePickPolicy corePick = CorePickPolicy::roundRobin;
    bool allowPkgC6 = true;
    ///@}

    /** @name Per-server power controller */
    ///@{
    enum class Controller { alwaysOn, delayTimer };
    Controller controller = Controller::alwaysOn;
    /** Delay-timer tau (maxTick = never suspend). */
    Tick delayTimerTau = 1 * sec;
    ///@}

    /** @name Global dispatch */
    ///@{
    enum class Dispatch { roundRobin, leastLoaded, random,
                          networkAware };
    Dispatch dispatch = Dispatch::leastLoaded;
    bool useGlobalQueue = false;
    /** Never co-locate a task with its parent (forces flows). */
    bool taskAntiAffinity = false;
    ///@}

    /** @name Kernel timer discipline */
    ///@{
    /**
     * Bucket width governor timers (core C-state stages, delay timers,
     * port LPI, line card / switch sleep) are quantized up to: 1 tick,
     * exact (events), or wheelGranularity (wheel; also reports the
     * granularity under profiling). wheel with wheelGranularity = 1
     * is exactly events. No governor timer schedules a kernel event
     * either way.
     */
    enum class TimerMode { events, wheel };
    TimerMode timerMode = TimerMode::events;
    /** Wheel bucket width (default 1 ns = exact firing). */
    Tick wheelGranularity = 1;
    ///@}

    /** @name Network fabric */
    ///@{
    enum class Fabric { none, star, fatTree, flattenedButterfly,
                        bcube, camCube };
    Fabric fabric = Fabric::none;
    /** k (fat tree / butterfly / torus edge) or n (BCube). */
    unsigned fabricParam = 4;
    /** Concentration (butterfly) or levels (BCube). */
    unsigned fabricParam2 = 1;
    BitsPerSec linkRate = 1e9;
    Tick linkLatency = 5 * usec;
    SwitchPowerProfile switchProfile =
        SwitchPowerProfile::cisco2960_24();
    NetworkConfig netConfig;
    ///@}

    /** @name Fault injection and retry (strictly opt-in) */
    ///@{
    struct FaultSettings {
        /** Master switch; everything below is inert when false. */
        bool enabled = false;
        /** Mean time to failure per component. */
        double mttfHours = 100.0;
        /** Mean time to repair per component. */
        double mttrMinutes = 10.0;
        /** Time-to-failure distribution: exponential | weibull. */
        std::string distribution = "exponential";
        double weibullShape = 1.5;
        /** Deterministic trace file; overrides the distributions. */
        std::string faultTrace;
        /** Which component classes fail. */
        bool faultServers = true;
        bool faultSwitches = false;
        bool faultLinecards = false;
        bool faultLinks = false;
        /** Retries after the first attempt (maxAttempts - 1). */
        unsigned maxRetries = 2;
        Tick retryBackoffBase = 10 * msec;
        Tick retryBackoffMax = 10 * sec;
        /** Per-attempt timeout; 0 disables. */
        Tick taskTimeout = 0;
        /**
         * Explicit in-memory schedule (the src/mc explorer's
         * injection path). When set it overrides both the trace file
         * and the distributions. Built programmatically; not an INI
         * key.
         */
        std::optional<std::vector<ScheduledFault>> schedule;
    };
    FaultSettings fault;
    ///@}

    /** @name Telemetry (strictly opt-in; default fully disabled) */
    ///@{
    struct TelemetrySettings {
        /** Master switch (fromConfig: on iff an output is set). */
        bool enabled = false;
        /** Timeline trace file; empty disables tracing. */
        std::string traceOut;
        /** Trace backend: json (Perfetto) | csv. */
        std::string traceFormat = "json";
        /** Category filter, e.g. "server,task,flow"; "all". */
        std::string traceCategories = "all";
        /** Time-series CSV file; empty disables sampling. */
        std::string sampleOut;
        /** Sampling period. */
        Tick samplePeriod = 100 * msec;
        /** Kernel profiling (profile.* stats + hot-events table). */
        bool profile = false;

        bool wantsTracing() const { return enabled && !traceOut.empty(); }
        bool wantsSampling() const
        {
            return enabled && !sampleOut.empty();
        }
        bool wantsProfiling() const { return enabled && profile; }
    };
    TelemetrySettings telemetry;
    ///@}

    /** @name Container orchestration (strictly opt-in) */
    ///@{
    /** The Orchestrator's knobs plus the DataCenter's own. */
    struct OrchSettings : OrchConfig {
        /**
         * Master switch (fromConfig: on iff the [orch] section has a
         * key). When off the DataCenter behaves byte-identically to a
         * build without the orchestrator.
         */
        bool enabled = false;
        /** Tag every generated job with the default group. */
        bool tagJobs = true;
        /** @name Default deployment (created at construction) */
        ///@{
        unsigned replicas = 4;
        unsigned minReplicas = 1;
        unsigned maxReplicas = 16;
        double containerCores = 1.0;
        Bytes containerMemBytes = static_cast<Bytes>(512) << 20;
        double remoteMemFrac = 0.0;
        bool antiAffinity = false;
        ///@}
    };
    OrchSettings orch;
    ///@}

    /** @name Runtime invariant auditing (strictly opt-in) */
    ///@{
    struct AuditSettings {
        /** Master switch for the periodic invariant auditor. */
        bool enabled = false;
        /** Simulated time between audits. */
        Tick period = 100 * msec;
        /**
         * Violations abort the replica (structured abort dump +
         * SimAbortError, so campaigns quarantine it). When false the
         * auditor only warns and counts.
         */
        bool fatal = true;
        /** Relative tolerance of the energy-accounting check. */
        double energyTolerance = 1e-6;
    };
    AuditSettings audit;
    ///@}

    /** @name Fault-schedule exploration (src/mc; strictly opt-in) */
    ///@{
    struct McSettings {
        /**
         * Strategy lattice tier: boundary | pairwise | exhaustive |
         * random (see src/mc/strategy.hh for what each enumerates).
         */
        std::string strategy = "pairwise";
        /** Schedule horizon: episodes are injected within [0, this]. */
        Tick horizon = 2 * sec;
        /** Max schedules explored per campaign (0 = strategy's own). */
        std::uint64_t budget = 256;
        /**
         * Per-schedule simulated-event budget -- the hang oracle. A
         * run crossing it counts as a finding (livelock), not a
         * timeout.
         */
        std::uint64_t eventBudget = 5'000'000;
        /** Repair delay applied to generated episodes. */
        Tick repair = 50 * msec;
        /** Episodes per schedule cap (exhaustive/random tiers). */
        unsigned maxFaults = 2;
        /**
         * Arm the seeded pair-crash census bug
         * (GlobalScheduler::debugArmPairCrashBug(0, 1)) -- the
         * explorer's negative test and the mc-smoke CI job.
         */
        bool seedBug = false;
    };
    McSettings mc;
    ///@}

    /** @name Campaign crash tolerance (CLI defaults; flags override) */
    ///@{
    struct CampaignSettings {
        /** Journal file for completed cells ("" = no journal). */
        std::string journal;
        /** Wall-clock watchdog per replica attempt (0 = off). */
        double watchdogSec = 0.0;
        /** Simulated-event budget per replica attempt (0 = off). */
        std::uint64_t maxEvents = 0;
        /** Attempts per cell before quarantine. */
        unsigned maxAttempts = 3;
        /** Host-side backoff between attempts. */
        Tick retryBackoffBase = 200 * msec;
        Tick retryBackoffMax = 5 * sec;
    };
    CampaignSettings campaign;
    ///@}

    /** @name Workload model (read by makeWorkload, not by DataCenter) */
    ///@{
    struct WorkloadSettings {
        enum class Arrival { poisson, mmpp, wikipedia, nlanr, trace };
        Arrival arrival = Arrival::poisson;
        /** Jobs/s; unset derives it from utilization. */
        std::optional<double> rate;
        /** Fleet utilization rho the derived rate aims at. */
        double utilization = 0.3;
        /** Arrival horizon (maxTick = none). */
        Tick duration = maxTick;
        /** Stop after this many jobs (0 = unlimited). */
        std::uint64_t maxJobs = 0;
        /** mmpp: rate_high / rate_low, and the share of time bursty. */
        double burstRatio = 10.0;
        double burstFraction = 0.2;
        /** Arrival timestamps, one per line (arrival = trace). */
        std::string traceFile;
        enum class Service { exponential, fixed, uniform, pareto };
        Service service = Service::exponential;
        Tick serviceMean = 5 * msec;
        /** uniform / pareto upper bound (fromConfig: 4x the mean). */
        Tick serviceMax = 20 * msec;
        enum class Shape { single, chain, fanout, dag };
        Shape job = Shape::single;
        /** Chain length / fan-out width / DAG layer width. */
        unsigned stages = 2;
        /** Bytes shipped along each DAG edge. */
        Bytes transferBytes = 0;
    };
    WorkloadSettings workload;
    ///@}

    /** Root seed for every random stream in the experiment. */
    std::uint64_t seed = 1;

    /** Throw FatalError on inconsistent combinations. */
    void validate() const;

    /**
     * Load from parsed INI text: every row of configKeys() whose key
     * @p cfg sets, then the defaults that follow other keys, then
     * validate(). The rows are the key reference.
     */
    static DataCenterConfig fromConfig(const Config &cfg);

    /** The INI key that sets @p field, a member of this config. */
    std::string keyOf(const void *field) const;
};

/**
 * One INI key, the one place its name, type and unit are written.
 * fromConfig parses through the rows, warnUnknownConfigKeys checks
 * names and sweep targets against them, and tests/test_config_keys.cc
 * runs each row's perturbed value against the default (the liveness
 * rule: every key must change some output, or say here why not).
 */
struct ConfigKey {
    /** text also stands for "the bound field's own type" in the table. */
    enum class Type { flag, count, u64, real, text, choice, duration, size };

    ConfigKey(const char *n, Type t = Type::text, double u = 1.0,
              const char *names = "", bool round = false)
        : name(n), type(t), unit(u), choices(names), nearest(round)
    {}

    /** "section.key". */
    const char *name;
    Type type;
    /** duration: ticks per unit; size: bytes per unit; real: scale. */
    double unit;
    /** choice: the enum's names in declaration order, '|'-separated. */
    const char *choices;
    /** duration: round to the nearest tick instead of truncating. */
    bool nearest;
    /** A value whose run differs from the default's. */
    const char *perturbed = "";
    /** INI lines both the default and the perturbed run add. */
    const char *companions = "";
    /** Why no output shows the key's effect ("" = one must). */
    const char *exempt = "";
};

/** Every key DataCenterConfig::fromConfig reads, in table order. */
const std::vector<ConfigKey> &configKeys();

/**
 * Warn (with the offending key's file:line) about every key of
 * @p cfg that is not a row of configKeys() -- the typo'd key that
 * would otherwise silently fall back to a default -- and about every
 * "[sweep]" target and @p swept key (the --sweep flags) that is not
 * one either. Call once on the base config, not per replica.
 */
void warnUnknownConfigKeys(const Config &cfg,
                           const std::vector<std::string> &swept = {});

/** A fully constructed workload ready to pump into a DataCenter. */
struct ConfiguredWorkload {
    std::unique_ptr<ArrivalProcess> arrivals;
    std::unique_ptr<JobGenerator> jobs;
    /** Stop injecting after this tick. */
    Tick until = maxTick;
    /** Stop after this many jobs (SIZE_MAX = unlimited). */
    std::size_t maxJobs = static_cast<std::size_t>(-1);
};

/**
 * Build the workload @p w describes (paper Figure 1: the workload
 * model in) for a data center shaped by @p dc_cfg, which sets the
 * arrival rate a utilization target derives. @p seed seeds every
 * random stream.
 */
ConfiguredWorkload makeWorkload(
    const DataCenterConfig::WorkloadSettings &w,
    const DataCenterConfig &dc_cfg, std::uint64_t seed);

} // namespace holdcsim

#endif // HOLDCSIM_DC_DC_CONFIG_HH
