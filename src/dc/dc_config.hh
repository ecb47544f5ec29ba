/**
 * @file
 * Top-level data center configuration: the "configurable user
 * script" (paper section III) that selects the server fleet,
 * per-server power management, global dispatch policy and network
 * fabric for an experiment, loadable from INI text.
 */

#ifndef HOLDCSIM_DC_DC_CONFIG_HH
#define HOLDCSIM_DC_DC_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_model.hh"
#include "network/network.hh"
#include "network/switch_power.hh"
#include "orch/orchestrator.hh"
#include "server/power_profile.hh"
#include "server/server.hh"
#include "sim/config.hh"

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
     * Bucket width of the engine's governor timer wheel (port LPI,
     * line card / switch sleep; core C-state stages land on the same
     * boundaries without arming it): 1 tick, one
     * kernel event per timeout (events), or wheelGranularity, which
     * fires each bucket's timeouts from one event, quantized up
     * (wheel; also reports the wheel's stats). wheel with
     * wheelGranularity = 1 fires exactly like events.
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
         * injection path). When useSchedule is true the episodes
         * below override both the trace file and the distributions
         * and are replayed through a ScheduleFaultModel, which
         * fatals on any drift instead of resynchronizing. Built
         * programmatically; not an INI key.
         */
        bool useSchedule = false;
        std::vector<ScheduledFault> schedule;
    };
    FaultSettings fault;
    ///@}

    /** @name Telemetry (strictly opt-in; default fully disabled) */
    ///@{
    struct TelemetrySettings {
        /**
         * Resolved master switch. fromConfig defaults it to "true
         * iff any output below is configured"; an explicit
         * telemetry.enabled=false forces everything off.
         */
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
         * Resolved master switch. fromConfig defaults it to "true iff
         * any orch.* key is present"; an explicit orch.enabled=false
         * forces the layer off. When off the DataCenter behaves
         * byte-identically to a build without the orchestrator.
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

    /** Root seed for every random stream in the experiment. */
    std::uint64_t seed = 1;

    /** Throw FatalError on inconsistent combinations. */
    void validate() const;

    /**
     * Load from parsed INI text. Recognized keys (all optional):
     *
     *   [datacenter] servers, cores, seed,
     *                timer_mode (events|wheel), wheel_granularity_us
     *   [server]     queue_mode (unified|per_core),
     *                core_pick (round_robin|least_loaded),
     *                allow_pkg_c6,
     *                controller (always_on|delay_timer), tau_ms
     *   [scheduler]  policy (round_robin|least_loaded|random|
     *                network_aware), global_queue
     *   [network]    fabric (none|star|fat_tree|flattened_butterfly|
     *                bcube|camcube), param, param2, link_rate_gbps,
     *                link_latency_us, switch_sleep_ms,
     *                fast_path_kb
     *   [fault]      enabled, mttf_hours, mttr_minutes,
     *                distribution (exponential|weibull),
     *                weibull_shape, fault_trace, fault_servers,
     *                fault_switches, fault_linecards, fault_links,
     *                max_retries, retry_backoff_base_ms,
     *                retry_backoff_max_ms, task_timeout_ms
     *   [orch]       enabled, placement (bin_pack|spread|affinity),
     *                reconcile_ms, overcommit, interference,
     *                remote_mem_penalty_per_us, server_mem_mb,
     *                autoscale, autoscale_high, autoscale_low,
     *                migration_dirty_frac,
     *                migration_stop_copy_mb, migration_max_rounds,
     *                tag_jobs, replicas, min_replicas, max_replicas,
     *                container_cores, container_mem_mb,
     *                remote_mem_frac, anti_affinity
     *   [telemetry]  enabled, trace_out, trace_format (json|csv),
     *                trace_categories, sample_out, sample_period_ms,
     *                profile
     *   [audit]      enabled, period_ms, fatal, energy_tolerance
     *   [mc]         strategy (boundary|pairwise|exhaustive|random),
     *                horizon_ms, budget, event_budget, repair_ms,
     *                max_faults, seed_bug
     *   [campaign]   journal, watchdog_sec, max_events, max_attempts,
     *                retry_backoff_base_ms, retry_backoff_max_ms
     */
    static DataCenterConfig fromConfig(const Config &cfg);
};

/**
 * Warn (with the offending key's file:line) about every key of
 * @p cfg no HolDCSim parser recognizes -- the typo'd key that would
 * otherwise silently fall back to a default. "[sweep]" keys are
 * exempt: they name other config keys and are validated when the
 * sweep is applied. Call once on the base config, not per replica.
 */
void warnUnknownConfigKeys(const Config &cfg);

} // namespace holdcsim

#endif // HOLDCSIM_DC_DC_CONFIG_HH
