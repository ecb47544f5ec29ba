#include "dc_config.hh"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "telemetry/trace_manager.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

namespace holdcsim {

namespace {

using Type = ConfigKey::Type;

ConfigKey ms(const char *name) { return {name, Type::duration, msec}; }
ConfigKey us(const char *name) { return {name, Type::duration, usec}; }
ConfigKey kib(const char *name) { return {name, Type::size, 1024.0}; }
ConfigKey mib(const char *name) { return {name, Type::size, 1048576.0}; }
ConfigKey pick(const char *name, const char *names)
{
    return {name, Type::choice, 1.0, names};
}

/** Row @p k, a Type::text one typed by its field's type @p F. */
template <class F>
ConfigKey
typed(ConfigKey k)
{
    if (k.type == Type::text) {
        k.type = std::is_same_v<F, bool>            ? Type::flag
                 : std::is_same_v<F, unsigned>      ? Type::count
                 : std::is_same_v<F, std::uint64_t> ? Type::u64
                 : std::is_same_v<F, std::string>   ? Type::text
                                                    : Type::real;
    }
    return k;
}

/**
 * The key table: one call per INI key, v(field, key, perturbed[,
 * companions[, exempt]]), binding the key to the field it sets (see
 * ConfigKey). The files the perturbed values name are written by
 * tests/test_config_keys.cc.
 */
template <class Visit>
void
bindKeys(DataCenterConfig &c, Visit &&v)
{
    auto &f = c.fault;
    auto &o = c.orch;
    auto &t = c.telemetry;
    auto &m = c.mc;
    auto &k = c.campaign;
    auto &w = c.workload;
    auto &sp = c.serverProfile;
    auto &wp = c.switchProfile;
    // Companion lines several rows share.
    const char *star = "[network]\nfabric = star";
    const char *chain = "[workload]\njob = chain";
    const char *sleepy = "[server]\ncontroller = delay_timer\ntau_ms = 1";
    const char *sleepySwitch = "[network]\nfabric = star\nswitch_sleep_ms = 1";
    const char *faults = "[fault]\nenabled = true";
    const char *faulty = "[fault]\nenabled = true\nmttf_hours = 0.0001";
    const char *faultyFabric =
        "[fault]\nenabled = true\nmttf_hours = 0.0001\n[network]\n"
        "fabric = star";
    const char *orch = "[orch]\nenabled = true";
    const char *scaling = "[orch]\nreconcile_ms = 10\nautoscale = true";
    const char *explore = "[mc]\nbudget = 8";
    const char *capped = "[campaign]\nmax_events = 100";
    const char *hostSleep = "host-side sleep: moves wall-clock time only";
    const char *noMigration =
        "only Orchestrator::migrate and drainServer migrate; no run does";

    v(c.nServers, "datacenter.servers", "3");
    v(c.nCores, "datacenter.cores", "3");
    v(c.seed, "datacenter.seed", "7");
    v(c.timerMode, pick("datacenter.timer_mode", "events|wheel"), "wheel",
      "[telemetry]\nprofile = true");
    // Under one tick truncates to 0, which fails validate().
    v(c.wheelGranularity, us("datacenter.wheel_granularity_us"), "1000",
      "[datacenter]\ntimer_mode = wheel");
    v(c.queueMode, pick("server.queue_mode", "unified|per_core"),
      "per_core");
    v(c.corePick, pick("server.core_pick", "round_robin|least_loaded"),
      "least_loaded", "[server]\nqueue_mode = per_core");
    v(c.allowPkgC6, "server.allow_pkg_c6", "false");
    v(c.controller, pick("server.controller", "always_on|delay_timer"),
      "delay_timer", "[server]\ntau_ms = 1");
    v(c.delayTimerTau, ms("server.tau_ms"), "1",
      "[server]\ncontroller = delay_timer");
    v(c.dispatch,
      pick("scheduler.policy",
           "round_robin|least_loaded|random|network_aware"),
      "round_robin");
    v(c.useGlobalQueue, "scheduler.global_queue", "true");
    v(c.taskAntiAffinity, "scheduler.anti_affinity", "true", chain);
    v(c.fabric,
      pick("network.fabric",
           "none|star|fat_tree|flattened_butterfly|bcube|camcube"),
      "star");
    v(c.fabricParam, "network.param", "2", "[network]\nfabric = fat_tree");
    v(c.fabricParam2, "network.param2", "2",
      "[network]\nfabric = bcube\nparam = 2");
    v(c.linkRate, {"network.link_rate_gbps", Type::real, 1e9}, "0.1",
      "[network]\nfabric = star\n[workload]\njob = chain\ntransfer_kb = 64");
    // Flows are fluid: only fast-path transfers pay link latency.
    v(c.linkLatency, us("network.link_latency_us"), "50",
      "[network]\nfast_path_kb = 64\nfabric = star\n[workload]\n"
      "job = chain\ntransfer_kb = 16");
    v(c.netConfig.switchSleepDelay, ms("network.switch_sleep_ms"), "1", star);
    v(c.netConfig.fastPathBytes, kib("network.fast_path_kb"), "64",
      "[network]\nfabric = star\n[workload]\njob = chain\ntransfer_kb = 16");
    v(f.enabled, "fault.enabled", "true");
    v(f.mttfHours, "fault.mttf_hours", "0.0001", faults);
    v(f.mttrMinutes, "fault.mttr_minutes", "0.001", faulty);
    v(f.distribution, "fault.distribution", "weibull", faulty);
    v(f.weibullShape, "fault.weibull_shape", "3",
      "[fault]\nenabled = true\nmttf_hours = 0.0001\n"
      "distribution = weibull");
    v(f.faultTrace, "fault.fault_trace", "knobs_fault.trace", faults);
    v(f.faultServers, "fault.fault_servers", "false",
      "[fault]\nenabled = true\nmttf_hours = 0.0001\nfault_links = true\n"
      "[network]\nfabric = star");
    v(f.faultSwitches, "fault.fault_switches", "true", faultyFabric);
    v(f.faultLinecards, "fault.fault_linecards", "true", faultyFabric);
    v(f.faultLinks, "fault.fault_links", "true", faultyFabric);
    v(f.maxRetries, "fault.max_retries", "0", faulty);
    v(f.retryBackoffBase, ms("fault.retry_backoff_base_ms"), "100", faulty);
    v(f.retryBackoffMax, ms("fault.retry_backoff_max_ms"), "1", faulty);
    v(f.taskTimeout, ms("fault.task_timeout_ms"), "1", faults);
    v(o.enabled, "orch.enabled", "true");
    v(o.placement, "orch.placement", "spread", orch);
    v(o.reconcilePeriod, ms("orch.reconcile_ms"), "10", orch);
    v(o.overcommit, "orch.overcommit", "2", orch);
    // Interference slows only overcommitted cores.
    v(o.interference, "orch.interference", "0.5",
      "[orch]\novercommit = 2\nreplicas = 8");
    // Memory turns remote when a crash re-places its container.
    v(o.remoteMemPenaltyPerUs, "orch.remote_mem_penalty_per_us", "1",
      "[orch]\nremote_mem_frac = 0.5\n[network]\nfabric = star\n[fault]\n"
      "enabled = true\nfault_trace = knobs_fault.trace");
    v(o.serverMemBytes, mib("orch.server_mem_mb"), "600", orch);
    v(o.autoscale, "orch.autoscale", "true",
      "[orch]\nreconcile_ms = 10\nautoscale_high = 0.5");
    v(o.autoscaleHigh, "orch.autoscale_high", "0.5", scaling);
    v(o.autoscaleLow, "orch.autoscale_low", "0.7", scaling);
    v(o.migrationDirtyFrac, "orch.migration_dirty_frac", "0.5", orch,
      noMigration);
    v(o.migrationStopCopyBytes, mib("orch.migration_stop_copy_mb"), "1",
      orch, noMigration);
    v(o.migrationMaxRounds, "orch.migration_max_rounds", "1", orch,
      noMigration);
    v(o.tagJobs, "orch.tag_jobs", "false", orch);
    v(o.replicas, "orch.replicas", "2", orch);
    v(o.minReplicas, "orch.min_replicas", "6", scaling);
    v(o.maxReplicas, "orch.max_replicas", "2", scaling);
    v(o.containerCores, "orch.container_cores", "2", orch);
    v(o.containerMemBytes, mib("orch.container_mem_mb"), "1024",
      "[orch]\nserver_mem_mb = 1024");
    v(o.remoteMemFrac, "orch.remote_mem_frac", "0.5",
      "[orch]\nremote_mem_penalty_per_us = 1\n[network]\nfabric = star\n"
      "[fault]\nenabled = true\nfault_trace = knobs_fault.trace");
    v(o.antiAffinity, "orch.anti_affinity", "true", orch);
    v(t.enabled, "telemetry.enabled", "false", "[telemetry]\nprofile = true");
    v(t.traceOut, "telemetry.trace_out", "knobs_trace.json");
    v(t.traceFormat, "telemetry.trace_format", "csv",
      "[telemetry]\ntrace_out = knobs_trace.json");
    v(t.traceCategories, "telemetry.trace_categories", "server",
      "[telemetry]\ntrace_out = knobs_trace.json");
    v(t.sampleOut, "telemetry.sample_out", "knobs_samples.csv");
    v(t.samplePeriod, ms("telemetry.sample_period_ms"), "10",
      "[telemetry]\nsample_out = knobs_samples.csv");
    v(t.profile, "telemetry.profile", "true");
    v(c.audit.enabled, "audit.enabled", "true");
    v(c.audit.period, ms("audit.period_ms"), "10", "[audit]\nenabled = true");
    v(c.audit.fatal, "audit.fatal", "false",
      "[audit]\nenabled = true\nenergy_tolerance = 0");
    v(c.audit.energyTolerance, "audit.energy_tolerance", "0",
      "[audit]\nenabled = true\nfatal = false");
    v(m.strategy, "mc.strategy", "boundary", explore);
    v(m.horizon, ms("mc.horizon_ms"), "100", explore);
    v(m.budget, "mc.budget", "2");
    v(m.eventBudget, "mc.event_budget", "100", explore);
    v(m.repair, ms("mc.repair_ms"), "10", "[mc]\nbudget = 8\nseed_bug = true");
    v(m.maxFaults, "mc.max_faults", "1",
      "[mc]\nstrategy = exhaustive\nbudget = 8\nseed_bug = true");
    v(m.seedBug, "mc.seed_bug", "true", explore);
    v(k.journal, "campaign.journal", "knobs_journal.jsonl");
    v(k.watchdogSec, "campaign.watchdog_sec", "0.000001", "",
      "wall-clock: it polls every 10 ms, longer than a plant run lasts");
    v(k.maxEvents, "campaign.max_events", "100");
    v(k.maxAttempts, "campaign.max_attempts", "1", capped);
    v(k.retryBackoffBase, ms("campaign.retry_backoff_base_ms"), "1", capped,
      hostSleep);
    v(k.retryBackoffMax, ms("campaign.retry_backoff_max_ms"), "1", capped,
      hostSleep);
    v(w.arrival,
      pick("workload.arrival", "poisson|mmpp|wikipedia|nlanr|trace"),
      "mmpp");
    v(w.rate, "workload.rate", "100");
    v(w.utilization, "workload.utilization", "0.1");
    // Rounded to the nearest tick, as fromSeconds() does.
    v(w.duration, {"workload.duration_s", Type::duration, sec, "", true},
      "0.2");
    v(w.maxJobs, "workload.max_jobs", "10");
    v(w.service,
      pick("workload.service", "exponential|fixed|uniform|pareto"),
      "fixed");
    v(w.serviceMean, ms("workload.service_mean_ms"), "2");
    v(w.serviceMax, ms("workload.service_max_ms"), "50",
      "[workload]\nservice = uniform");
    v(w.job, pick("workload.job", "single|chain|fanout|dag"), "chain");
    v(w.stages, "workload.stages", "3", chain);
    v(w.transferBytes, kib("workload.transfer_kb"), "16",
      "[workload]\njob = chain\n[network]\nfabric = star");
    v(w.burstRatio, "workload.burst_ratio", "2", "[workload]\narrival = mmpp");
    v(w.burstFraction, "workload.burst_fraction", "0.5",
      "[workload]\narrival = mmpp");
    v(w.traceFile, "workload.trace_file", "knobs_arrivals_b.txt",
      "[workload]\narrival = trace\ntrace_file = knobs_arrivals_a.txt");
    v(sp.coreActive, "server_power.core_active_w", "8");
    v(sp.coreC0Idle, "server_power.core_c0_idle_w", "2.5", sleepy);
    v(sp.coreC1, "server_power.core_c1_w", "1.2");
    v(sp.coreC3, "server_power.core_c3_w", "0.5");
    v(sp.coreC6, "server_power.core_c6_w", "0.01");
    v(sp.pkgPc0, "server_power.pkg_pc0_w", "12");
    v(sp.pkgPc2, "server_power.pkg_pc2_w", "4");
    v(sp.pkgPc6, "server_power.pkg_pc6_w", "0.5");
    v(sp.dramActive, "server_power.dram_active_w", "7");
    v(sp.dramIdle, "server_power.dram_idle_w", "2");
    v(sp.dramSelfRefresh, "server_power.dram_self_refresh_w", "0.2");
    v(sp.platformS0, "server_power.platform_s0_w", "50");
    v(sp.platformS3, "server_power.platform_s3_w", "3", sleepy);
    v(sp.platformS5, "server_power.platform_s5_w", "0.5", "",
      "only Server::sleep(SState::s5) enters S5; no key picks it");
    v(sp.s3WakeLatency, ms("server_power.s3_wake_ms"), "100", sleepy);
    v(sp.s3EntryLatency, ms("server_power.s3_entry_ms"), "100", sleepy);
    v(wp.chassisBase, "switch_power.chassis_base_w", "20", star);
    v(wp.switchSleep, "switch_power.switch_sleep_w", "1", sleepySwitch);
    v(wp.linecardActive, "switch_power.linecard_active_w", "5", star);
    v(wp.linecardSleep, "switch_power.linecard_sleep_w", "0.5", star);
    v(wp.portActive, "switch_power.port_active_w", "0.5", star);
    v(wp.portLpi, "switch_power.port_lpi_w", "0.05", star);
    v(wp.switchWakeLatency, ms("switch_power.switch_wake_ms"), "5",
      "[network]\nswitch_sleep_ms = 1\nfabric = star\n[workload]\n"
      "job = chain\ntransfer_kb = 64\nutilization = 0.05");
    v(wp.linecardWakeLatency, ms("switch_power.linecard_wake_ms"), "5",
      "[network]\nfabric = star\n[workload]\njob = chain\n"
      "transfer_kb = 64\nutilization = 0.05");
}

/** Integer key @p k, which must lie in [0, @p max]. */
std::uint64_t
integer(const Config &cfg, const ConfigKey &k, std::uint64_t max)
{
    const std::int64_t v = cfg.getInt(k.name);
    if (v < 0 || static_cast<std::uint64_t>(v) > max)
        fatal("config key '", k.name, "': ", v, " is not in [0, ", max, "]");
    return static_cast<std::uint64_t>(v);
}

/**
 * Duration or size key @p k in ticks or bytes (k.unit per unit),
 * truncated or, when k.nearest, rounded. A negative, NaN or too large
 * value is an error naming the key, not a wrapped cast.
 */
std::uint64_t
amount(const Config &cfg, const ConfigKey &k)
{
    const double value = cfg.getDouble(k.name);
    const double scaled = value * k.unit + (k.nearest ? 0.5 : 0.0);
    if (!(value * k.unit >= 0.0))
        fatal("config key '", k.name, "': must be non-negative, got ", value);
    // static_cast<double>(maxTick) rounds up to 2^64, the first value a
    // uint64_t cannot hold.
    if (!(scaled < static_cast<double>(maxTick)))
        fatal("config key '", k.name, "': ", value, " is out of range");
    return static_cast<std::uint64_t>(scaled);
}

/** Choice key @p k's value: its index among the row's names. */
std::size_t
choiceIndex(const Config &cfg, const ConfigKey &k)
{
    const std::string value = cfg.getString(k.name);
    const std::string_view names = k.choices;
    for (std::size_t pos = 0, index = 0;; ++index) {
        const std::size_t bar = names.find('|', pos);
        if (names.substr(pos, bar - pos) == value)
            return index;
        if (bar == names.npos)
            break;
        pos = bar + 1;
    }
    fatal("unknown ", k.name, " '", value, "' (one of ", names, ")");
}

} // namespace

const std::vector<ConfigKey> &
configKeys()
{
    static const std::vector<ConfigKey> rows = [] {
        std::vector<ConfigKey> out;
        DataCenterConfig scratch;
        bindKeys(scratch, [&out]<class F>(F &, const ConfigKey &k,
                                          const char *perturbed,
                                          const char *companions = "",
                                          const char *exempt = "") {
            out.push_back(typed<F>(k));
            out.back().perturbed = perturbed;
            out.back().companions = companions;
            out.back().exempt = exempt;
        });
        return out;
    }();
    return rows;
}

std::string
DataCenterConfig::keyOf(const void *field) const
{
    std::string name;
    bindKeys(const_cast<DataCenterConfig &>(*this),
             [&](auto &f, const ConfigKey &k, auto &&...) {
                 if (&f == field)
                     name = k.name;
             });
    return name;
}

void
DataCenterConfig::validate() const
{
    // A failed check names the key that sets @p field.
    const auto need = [this](bool ok, const auto &field, auto &&...what) {
        if (!ok)
            fatal(keyOf(&field), what...);
    };
    const auto oneOf = [](const std::string &v,
                          std::initializer_list<const char *> names) {
        return std::find(names.begin(), names.end(), v) != names.end();
    };
    if (fabric == Fabric::none && nServers == 0)
        fatal("data center needs at least one server");
    if (nCores == 0)
        fatal("servers need at least one core");
    if (dispatch == Dispatch::networkAware && fabric == Fabric::none)
        fatal("network-aware dispatch requires a fabric");
    if (fault.enabled) {
        if ((fault.faultSwitches || fault.faultLinecards ||
             fault.faultLinks) && fabric == Fabric::none)
            fatal("network faults require a fabric");
        if (!fault.schedule && fault.faultTrace.empty() &&
            (fault.mttfHours <= 0.0 || fault.mttrMinutes <= 0.0)) {
            fatal("stochastic faults need positive MTTF and MTTR");
        }
        need(oneOf(fault.distribution, {"exponential", "weibull"}),
             fault.distribution, ": unknown '", fault.distribution, "'");
        if (!fault.faultServers && !fault.faultSwitches &&
            !fault.faultLinecards && !fault.faultLinks) {
            fatal("fault injection enabled but no component class "
                  "selected");
        }
    }
    if (telemetry.enabled) {
        need(oneOf(telemetry.traceFormat, {"json", "csv"}),
             telemetry.traceFormat, ": unknown '", telemetry.traceFormat,
             "'");
        need(telemetry.samplePeriod != 0, telemetry.samplePeriod,
             " must be positive");
        // Fail on bad category lists at config time, not mid-run.
        parseTraceCategories(telemetry.traceCategories);
    }
    if (orch.enabled) {
        need(oneOf(orch.placement, {"bin_pack", "spread", "affinity"}),
             orch.placement, ": unknown '", orch.placement, "'");
        need(orch.reconcilePeriod != 0, orch.reconcilePeriod,
             " must be positive");
        need(orch.overcommit >= 1.0, orch.overcommit, " must be >= 1");
        need(orch.interference >= 0.0, orch.interference,
             " must be non-negative");
        need(orch.remoteMemPenaltyPerUs >= 0.0, orch.remoteMemPenaltyPerUs,
             " must be non-negative");
        need(orch.autoscaleLow < orch.autoscaleHigh, orch.autoscaleLow,
             " must be below ", keyOf(&orch.autoscaleHigh));
        need(orch.migrationDirtyFrac >= 0.0 && orch.migrationDirtyFrac < 1.0,
             orch.migrationDirtyFrac, " must be in [0, 1)");
        need(orch.migrationMaxRounds != 0, orch.migrationMaxRounds,
             " must be positive");
        if (orch.replicas == 0 || orch.minReplicas == 0 ||
            orch.minReplicas > orch.maxReplicas) {
            fatal("orch needs 1 <= min_replicas <= max_replicas and "
                  "a positive replica count");
        }
        need(orch.containerCores > 0.0, orch.containerCores,
             " must be positive");
        need(orch.remoteMemFrac >= 0.0 && orch.remoteMemFrac <= 1.0,
             orch.remoteMemFrac, " must be in [0, 1]");
        if (orch.remoteMemPenaltyPerUs > 0.0 &&
            orch.remoteMemFrac > 0.0 && fabric == Fabric::none) {
            fatal("remote-memory penalties require a fabric");
        }
    }
    if (audit.enabled) {
        need(audit.period != 0, audit.period, " must be positive");
        need(audit.energyTolerance >= 0.0, audit.energyTolerance,
             " must be non-negative");
    }
    need(wheelGranularity != 0, wheelGranularity,
         " must be at least 0.001 (one tick)");
    need(oneOf(mc.strategy, {"boundary", "pairwise", "exhaustive", "random"}),
         mc.strategy, ": unknown '", mc.strategy, "'");
    need(mc.horizon != 0, mc.horizon, " must be positive");
    need(mc.repair != 0, mc.repair, " must be positive");
    need(mc.maxFaults != 0, mc.maxFaults, " must be at least 1");
    need(campaign.maxAttempts != 0, campaign.maxAttempts,
         " must be at least 1");
    need(campaign.watchdogSec >= 0.0, campaign.watchdogSec,
         " must be non-negative");
    using W = WorkloadSettings;
    const W &w = workload;
    need(w.job != W::Shape::chain || w.stages != 0, w.stages,
         " must be positive");
    need(w.arrival != W::Arrival::mmpp ||
             (w.burstFraction > 0.0 && w.burstFraction < 1.0),
         w.burstFraction, " must be in (0, 1)");
    need((w.arrival != W::Arrival::wikipedia &&
          w.arrival != W::Arrival::nlanr) ||
             w.duration != maxTick,
         w.duration, " is needed by synthetic trace arrivals");
    serverProfile.validate();
    if (fabric != Fabric::none)
        switchProfile.validate();
}

DataCenterConfig
DataCenterConfig::fromConfig(const Config &cfg)
{
    DataCenterConfig out;
    std::vector<const void *> given;
    bindKeys(out, [&]<class F>(F &field, const ConfigKey &row, auto &&...) {
        if (!cfg.has(row.name))
            return;
        const ConfigKey k = typed<F>(row);
        if constexpr (std::is_same_v<F, bool>)
            field = cfg.getBool(k.name);
        else if constexpr (std::is_same_v<F, std::string>)
            field = cfg.getString(k.name);
        else if constexpr (std::is_enum_v<F>)
            field = static_cast<F>(choiceIndex(cfg, k));
        else if constexpr (std::is_same_v<F, unsigned>)
            field = static_cast<unsigned>(integer(cfg, k, UINT_MAX));
        else if constexpr (std::is_same_v<F, std::uint64_t>)
            field = k.type == Type::u64 ? integer(cfg, k, INT64_MAX)
                                        : amount(cfg, k);
        else
            field = cfg.getDouble(k.name) * k.unit;
        given.push_back(&field);
    });
    const auto unset = [&given](const void *field) {
        return std::count(given.begin(), given.end(), field) == 0;
    };

    // Defaults that follow other keys. Any orch.* key (known or not)
    // opts the layer in, and any configured output turns telemetry
    // on, unless an explicit enabled = false vetoes it; no section at
    // all stays fully off (and default behaviour byte-identical).
    if (unset(&out.orch.enabled)) {
        out.orch.enabled = std::ranges::any_of(
            cfg.keys(), [](const auto &k) { return k.starts_with("orch."); });
    }
    if (unset(&out.telemetry.enabled)) {
        out.telemetry.enabled = !out.telemetry.traceOut.empty() ||
                                !out.telemetry.sampleOut.empty() ||
                                out.telemetry.profile;
    }
    if (unset(&out.workload.serviceMax))
        out.workload.serviceMax = 4 * out.workload.serviceMean;

    out.validate();
    return out;
}

namespace {

/** Levenshtein distance of @p a and @p b. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0]++;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({up + 1, row[j - 1] + 1,
                               diag + (a[i - 1] != b[j - 1])});
            diag = up;
        }
    }
    return row[b.size()];
}

/**
 * Warn, naming @p what the key is and @p where it came from, when
 * @p key is no row; suggest the nearest row within 2 edits.
 */
void
checkKnown(const char *what, const std::string &key,
           const std::string &where)
{
    std::string near;
    std::size_t nearDist = 3;
    for (const ConfigKey &k : configKeys()) {
        const std::size_t d = editDistance(key, k.name);
        if (d == 0)
            return;
        if (d < nearDist) {
            nearDist = d;
            near = k.name;
        }
    }
    warn("unknown ", what, " '", key, "'",
         where.empty() ? "" : " (" + where + ")", " ignored",
         near.empty() ? "" : "; did you mean '" + near + "'?");
}

} // namespace

void
warnUnknownConfigKeys(const Config &cfg,
                      const std::vector<std::string> &swept)
{
    const std::string sweep = "sweep.";
    for (const std::string &key : cfg.keys()) {
        if (key.rfind(sweep, 0) == 0)
            checkKnown("sweep key", key.substr(sweep.size()),
                       cfg.origin(key));
        else
            checkKnown("config key", key, cfg.origin(key));
    }
    for (const std::string &key : swept)
        checkKnown("sweep key", key, "--sweep");
}

namespace {

using W = DataCenterConfig::WorkloadSettings;

std::shared_ptr<ServiceModel>
makeService(const W &w, std::uint64_t seed)
{
    Rng rng(seed, "workload.service");
    if (w.service == W::Service::exponential)
        return std::make_shared<ExponentialService>(w.serviceMean, rng);
    if (w.service == W::Service::fixed)
        return std::make_shared<FixedService>(w.serviceMean);
    if (w.service == W::Service::uniform)
        return std::make_shared<UniformService>(w.serviceMean,
                                                w.serviceMax, rng);
    return std::make_shared<BoundedParetoService>(1.5, w.serviceMean,
                                                  w.serviceMax, rng);
}

std::unique_ptr<JobGenerator>
makeJobs(const W &w, std::shared_ptr<ServiceModel> svc, std::uint64_t seed)
{
    if (w.job == W::Shape::single)
        return std::make_unique<SingleTaskGenerator>(svc);
    if (w.job == W::Shape::chain) {
        return std::make_unique<ChainJobGenerator>(
            std::vector<std::shared_ptr<ServiceModel>>(w.stages, svc),
            std::vector<int>(w.stages, 0), w.transferBytes);
    }
    if (w.job == W::Shape::fanout) {
        return std::make_unique<FanOutInGenerator>(
            svc, svc, svc, w.stages, w.transferBytes);
    }
    return std::make_unique<RandomDagGenerator>(
        svc, /*layers=*/3, /*width=*/w.stages,
        /*edge_probability=*/0.5, w.transferBytes,
        Rng(seed, "workload.dag"));
}

/** Mean tasks and DAG edges (transfers) per job. */
struct JobShape {
    double tasks = 1.0;
    double edges = 0.0;
};

JobShape
jobShape(const W &w)
{
    const auto stages = static_cast<double>(w.stages);
    if (w.job == W::Shape::chain)
        return {stages, stages - 1.0};
    if (w.job == W::Shape::fanout)
        return {stages + 2.0, 2.0 * stages};
    if (w.job == W::Shape::dag) {
        // Root + 2 layers of U{1..stages} tasks: layer 1 hangs off
        // the root, a layer-2 task draws from ~half of layer 1.
        double width = (1.0 + stages) / 2.0;
        return {1.0 + 2.0 * width,
                width * (1.0 + std::max(1.0, width / 2.0))};
    }
    return {};
}

} // namespace

ConfiguredWorkload
makeWorkload(const W &w, const DataCenterConfig &dc_cfg, std::uint64_t seed)
{
    ConfiguredWorkload out;
    JobShape shape = jobShape(w);
    auto svc = makeService(w, seed);
    double mean_service_sec = svc->meanSeconds();
    out.jobs = makeJobs(w, svc, seed);
    out.until = w.duration;
    if (w.maxJobs > 0)
        out.maxJobs = static_cast<std::size_t>(w.maxJobs);

    // Job arrival rate: explicit, or derived from utilization (rate
    // that keeps the configured fleet at rho given the per-task
    // service time and the job's task count).
    const double rate =
        w.rate ? *w.rate
               : PoissonArrival::rateForUtilization(
                     w.utilization, dc_cfg.nServers, dc_cfg.nCores,
                     mean_service_sec) /
                     shape.tasks;

    using A = W::Arrival;
    if (w.arrival == A::poisson) {
        out.arrivals = std::make_unique<PoissonArrival>(
            rate, Rng(seed, "workload.arrivals"));
    } else if (w.arrival == A::mmpp) {
        const double p_high = w.burstFraction;
        double rate_low = rate / (p_high * w.burstRatio + (1.0 - p_high));
        out.arrivals = std::make_unique<Mmpp2Arrival>(
            w.burstRatio * rate_low, rate_low, 10.0 * p_high,
            10.0 * (1.0 - p_high), Rng(seed, "workload.arrivals"));
    } else if (w.arrival == A::wikipedia) {
        WikipediaTraceParams wp;
        wp.duration = w.duration;
        wp.baseRate = rate;
        wp.diurnalPeriod = w.duration / 2;
        out.arrivals = std::make_unique<TraceArrival>(
            makeWikipediaTrace(wp, Rng(seed, "workload.trace")));
    } else if (w.arrival == A::nlanr) {
        NlanrTraceParams np;
        np.duration = w.duration;
        np.baseRate = rate;
        out.arrivals = std::make_unique<TraceArrival>(
            makeNlanrTrace(np, Rng(seed, "workload.trace")));
    } else {
        out.arrivals = std::make_unique<TraceArrival>(
            loadArrivalTrace(w.traceFile));
    }

    // Mean per-host NIC load of the DAG transfers: at 1 or more the
    // flows never drain and the run crawls without output.
    double load = rate * shape.edges * 8.0 *
                  static_cast<double>(w.transferBytes) /
                  (dc_cfg.nServers * dc_cfg.linkRate);
    if (w.arrival == A::trace ||
        dc_cfg.fabric == DataCenterConfig::Fabric::none)
        return out;
    if (load >= 1.0)
        fatal("mean per-host NIC load of ", load, " (jobs/s x edges x "
              "transfer_kb / servers / link rate) is at least 1: the "
              "fabric can never reach steady state");
    if (load >= 0.9)
        warn("mean per-host NIC load of ", load, " (jobs/s x edges x "
             "transfer_kb / servers / link rate): the fabric may never "
             "reach steady state");
    return out;
}

} // namespace holdcsim
