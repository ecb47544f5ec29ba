#include "workload_config.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

namespace holdcsim {

namespace {

Tick
msKey(const Config &cfg, const std::string &key, Tick fallback)
{
    if (!cfg.has(key))
        return fallback;
    return static_cast<Tick>(cfg.getDouble(key) *
                             static_cast<double>(msec));
}

std::shared_ptr<ServiceModel>
makeService(const Config &cfg, std::uint64_t seed)
{
    std::string kind = cfg.getString("workload.service", "exponential");
    Tick mean = msKey(cfg, "workload.service_mean_ms", 5 * msec);
    Tick hi = msKey(cfg, "workload.service_max_ms", 4 * mean);
    Rng rng(seed, "workload.service");
    if (kind == "exponential")
        return std::make_shared<ExponentialService>(mean, rng);
    if (kind == "fixed")
        return std::make_shared<FixedService>(mean);
    if (kind == "uniform")
        return std::make_shared<UniformService>(mean, hi, rng);
    if (kind == "pareto")
        return std::make_shared<BoundedParetoService>(1.5, mean, hi,
                                                      rng);
    fatal("unknown workload.service '", kind, "'");
}

std::unique_ptr<JobGenerator>
makeJobs(const Config &cfg, std::shared_ptr<ServiceModel> svc,
         std::uint64_t seed)
{
    std::string kind = cfg.getString("workload.job", "single");
    auto stages = static_cast<unsigned>(
        cfg.getInt("workload.stages", 2));
    Bytes transfer = static_cast<Bytes>(
        cfg.getInt("workload.transfer_kb", 0)) * 1024;
    if (kind == "single")
        return std::make_unique<SingleTaskGenerator>(svc);
    if (kind == "chain") {
        if (stages == 0)
            fatal("workload.stages must be positive");
        std::vector<std::shared_ptr<ServiceModel>> tiers(stages, svc);
        std::vector<int> types(stages, 0);
        return std::make_unique<ChainJobGenerator>(tiers, types,
                                                   transfer);
    }
    if (kind == "fanout") {
        return std::make_unique<FanOutInGenerator>(svc, svc, svc,
                                                   stages, transfer);
    }
    if (kind == "dag") {
        return std::make_unique<RandomDagGenerator>(
            svc, /*layers=*/3, /*width=*/stages,
            /*edge_probability=*/0.5, transfer,
            Rng(seed, "workload.dag"));
    }
    fatal("unknown workload.job '", kind, "'");
}

/** Mean tasks and DAG edges (transfers) per job. */
struct JobShape {
    double tasks = 1.0;
    double edges = 0.0;
};

JobShape
jobShape(const Config &cfg)
{
    std::string kind = cfg.getString("workload.job", "single");
    auto stages =
        static_cast<double>(cfg.getInt("workload.stages", 2));
    if (kind == "chain")
        return {stages, stages - 1.0};
    if (kind == "fanout")
        return {stages + 2.0, 2.0 * stages};
    if (kind == "dag") {
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
makeWorkload(const Config &cfg, const DataCenterConfig &dc_cfg,
             std::uint64_t seed)
{
    ConfiguredWorkload out;
    JobShape shape = jobShape(cfg);
    auto svc = makeService(cfg, seed);
    double mean_service_sec = svc->meanSeconds();
    out.jobs = makeJobs(cfg, svc, seed);

    Tick duration = maxTick;
    if (cfg.has("workload.duration_s")) {
        duration = fromSeconds(cfg.getDouble("workload.duration_s"));
        out.until = duration;
    }
    if (std::int64_t n = cfg.getInt("workload.max_jobs", 0); n > 0)
        out.maxJobs = static_cast<std::size_t>(n);

    // Job arrival rate: explicit, or derived from utilization (rate
    // that keeps the configured fleet at rho given the per-task
    // service time and the job's task count).
    double rate;
    if (cfg.has("workload.rate")) {
        rate = cfg.getDouble("workload.rate");
    } else {
        double rho = cfg.getDouble("workload.utilization", 0.3);
        rate = PoissonArrival::rateForUtilization(
                   rho, dc_cfg.nServers, dc_cfg.nCores,
                   mean_service_sec) /
               shape.tasks;
    }

    std::string kind = cfg.getString("workload.arrival", "poisson");
    if (kind == "poisson") {
        out.arrivals = std::make_unique<PoissonArrival>(
            rate, Rng(seed, "workload.arrivals"));
    } else if (kind == "mmpp") {
        double ratio = cfg.getDouble("workload.burst_ratio", 10.0);
        double p_high =
            cfg.getDouble("workload.burst_fraction", 0.2);
        if (p_high <= 0.0 || p_high >= 1.0)
            fatal("workload.burst_fraction must be in (0, 1)");
        double rate_low =
            rate / (p_high * ratio + (1.0 - p_high));
        out.arrivals = std::make_unique<Mmpp2Arrival>(
            ratio * rate_low, rate_low, 10.0 * p_high,
            10.0 * (1.0 - p_high), Rng(seed, "workload.arrivals"));
    } else if (kind == "wikipedia") {
        if (duration == maxTick)
            fatal("wikipedia arrivals need workload.duration_s");
        WikipediaTraceParams wp;
        wp.duration = duration;
        wp.baseRate = rate;
        wp.diurnalPeriod = duration / 2;
        out.arrivals = std::make_unique<TraceArrival>(
            makeWikipediaTrace(wp, Rng(seed, "workload.trace")));
    } else if (kind == "nlanr") {
        if (duration == maxTick)
            fatal("nlanr arrivals need workload.duration_s");
        NlanrTraceParams np;
        np.duration = duration;
        np.baseRate = rate;
        out.arrivals = std::make_unique<TraceArrival>(
            makeNlanrTrace(np, Rng(seed, "workload.trace")));
    } else if (kind == "trace") {
        out.arrivals = std::make_unique<TraceArrival>(
            loadArrivalTrace(cfg.getString("workload.trace_file")));
    } else {
        fatal("unknown workload.arrival '", kind, "'");
    }

    // Mean per-host NIC load of the DAG transfers: at 1 or more the
    // flows never drain and the run crawls without output.
    double load = rate * shape.edges * 8.0 * 1024.0 *
                  static_cast<double>(cfg.getInt("workload.transfer_kb", 0)) /
                  (dc_cfg.nServers * dc_cfg.linkRate);
    if (kind == "trace" || dc_cfg.fabric == DataCenterConfig::Fabric::none)
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

ServerPowerProfile
serverProfileFromConfig(const Config &cfg)
{
    ServerPowerProfile p;
    auto w = [&](const char *key, Watts &field) {
        field = cfg.getDouble(std::string("server_power.") + key,
                              field);
    };
    w("core_active_w", p.coreActive);
    w("core_c0_idle_w", p.coreC0Idle);
    w("core_c1_w", p.coreC1);
    w("core_c3_w", p.coreC3);
    w("core_c6_w", p.coreC6);
    w("pkg_pc0_w", p.pkgPc0);
    w("pkg_pc2_w", p.pkgPc2);
    w("pkg_pc6_w", p.pkgPc6);
    w("dram_active_w", p.dramActive);
    w("dram_idle_w", p.dramIdle);
    w("dram_self_refresh_w", p.dramSelfRefresh);
    w("platform_s0_w", p.platformS0);
    w("platform_s3_w", p.platformS3);
    w("platform_s5_w", p.platformS5);
    p.s3WakeLatency =
        msKey(cfg, "server_power.s3_wake_ms", p.s3WakeLatency);
    p.s3EntryLatency =
        msKey(cfg, "server_power.s3_entry_ms", p.s3EntryLatency);
    p.validate();
    return p;
}

SwitchPowerProfile
switchProfileFromConfig(const Config &cfg)
{
    SwitchPowerProfile p = SwitchPowerProfile::cisco2960_24();
    auto w = [&](const char *key, Watts &field) {
        field = cfg.getDouble(std::string("switch_power.") + key,
                              field);
    };
    w("chassis_base_w", p.chassisBase);
    w("switch_sleep_w", p.switchSleep);
    w("linecard_active_w", p.linecardActive);
    w("linecard_sleep_w", p.linecardSleep);
    w("port_active_w", p.portActive);
    w("port_lpi_w", p.portLpi);
    p.switchWakeLatency = msKey(cfg, "switch_power.switch_wake_ms",
                                p.switchWakeLatency);
    p.linecardWakeLatency =
        msKey(cfg, "switch_power.linecard_wake_ms",
              p.linecardWakeLatency);
    p.validate();
    return p;
}

} // namespace holdcsim
