/**
 * @file
 * Fault-tolerance study: a 100-server fleet under steady load, swept
 * across component MTTF values (1 h, 10 h, 100 h) against a no-fault
 * baseline. Servers crash and recover per an exponential lifetime
 * model (MTTR 2 min); in-flight tasks die with them and the global
 * scheduler retries each task with exponential backoff.
 *
 * Reported per configuration: fleet availability, faults injected,
 * task retries, jobs abandoned, energy wasted on killed attempts and
 * the inflation of mean/99th-percentile job latency.
 *
 * The four configurations are sweep points of one CampaignRunner grid
 * and run concurrently:
 *
 *   fault_tolerance [jobs [replicas]]
 *
 * Deterministic: every random stream (arrivals, service, failures,
 * retry jitter) derives from the experiment seed and replica seeds
 * are a pure function of (seed, replica), so the table is identical
 * for any worker count. With replicas > 1 each row reports the
 * cross-replica mean.
 *
 * A second stage demonstrates campaign-level fault tolerance: a
 * three-point sweep in which one point is pathological (its horizon
 * exceeds the per-replica simulated-event budget). The CampaignRunner
 * retries the hung point with backoff, quarantines it after the
 * retries are exhausted, and completes the campaign with the healthy
 * points' results -- no manual babysitting, no lost work.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/fault_tolerance
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "dc/datacenter.hh"
#include "exp/aggregate.hh"
#include "exp/campaign.hh"
#include "exp/parallel_for.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

struct Sweep {
    const char *label;
    double mttfHours;
};

const Sweep sweep[] = {
    {"no faults", 0.0},
    {"MTTF 100h", 100.0},
    {"MTTF  10h", 10.0},
    {"MTTF   1h", 1.0},
};

MetricRow
runOnce(double mttf_hours, std::uint64_t seed)
{
    DataCenterConfig cfg;
    cfg.nServers = 100;
    cfg.nCores = 4;
    cfg.dispatch = DataCenterConfig::Dispatch::leastLoaded;
    cfg.seed = seed;
    if (mttf_hours > 0.0) {
        cfg.fault.enabled = true;
        cfg.fault.mttfHours = mttf_hours;
        cfg.fault.mttrMinutes = 2.0;
        cfg.fault.maxRetries = 4;
        cfg.fault.retryBackoffBase = 50 * msec;
        cfg.fault.retryBackoffMax = 5 * sec;
    }
    DataCenter dc(cfg);

    // 500 ms jobs at ~35% fleet utilization for 900 simulated
    // seconds.
    auto service = std::make_shared<FixedService>(500 * msec);
    SingleTaskGenerator jobs(service);
    double lambda = PoissonArrival::rateForUtilization(
        0.35, cfg.nServers, cfg.nCores, 0.5);
    const Tick horizon = 900 * sec;
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            jobs, static_cast<std::size_t>(-1), horizon);

    dc.run();
    dc.finishStats();

    const auto &lat = dc.scheduler().jobLatency();
    ReliabilitySummary rel = fleetReliability(dc.serverPtrs());
    MetricRow row{
        {"availability",
         dc.faults() ? dc.faults()->fleetAvailability() : 1.0},
        {"faults",
         dc.faults()
             ? static_cast<double>(dc.faults()->faultsInjected())
             : 0.0},
        {"retries",
         static_cast<double>(dc.scheduler().taskRetries())},
        {"done", static_cast<double>(dc.scheduler().jobsCompleted())},
        {"failed", static_cast<double>(dc.scheduler().jobsFailed())},
        {"wasted_j", rel.wastedJoules},
        {"wasted_frac", rel.wastedFraction()},
        {"mean_lat_ms", lat.mean() * 1e3},
        {"p99_lat_ms", lat.p99() * 1e3},
    };
    return row;
}

/**
 * One cell of the campaign demo. Point 1 is pathological: its
 * horizon is 500x the healthy points', so it exhausts the
 * per-replica event budget every attempt.
 */
MetricRow
runCampaignCell(std::size_t point, std::uint64_t seed,
                const ReplicaLimits &limits)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.nCores = 2;
    cfg.seed = seed;
    DataCenter dc(cfg);
    dc.sim().setInterruptFlag(limits.cancel);
    dc.sim().setEventBudget(limits.maxEvents);

    auto service = std::make_shared<FixedService>(5 * msec);
    SingleTaskGenerator jobs(service);
    double lambda = PoissonArrival::rateForUtilization(
        0.3, cfg.nServers, cfg.nCores, 0.005);
    const Tick horizon = point == 1 ? 1000 * sec : 2 * sec;
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            jobs, static_cast<std::size_t>(-1), horizon);
    dc.run();
    dc.finishStats();

    return MetricRow{
        {"done", static_cast<double>(dc.scheduler().jobsCompleted())},
    };
}

void
campaignDemo(unsigned n_jobs)
{
    std::printf("\ncampaign robustness demo: 3 sweep points, point 1 "
                "pathological\n");

    CampaignOptions opts;
    opts.jobs = n_jobs;
    opts.replicas = 1;
    opts.baseSeed = 7;
    // Journal completed and quarantined cells like a real campaign
    // would; rerunning with resume would skip the healthy points and
    // the quarantined one alike.
    opts.journalPath = "fault_tolerance_campaign.jsonl";
    // Generous for the healthy points, far too small for point 1's
    // 1000 s horizon.
    opts.maxEvents = 50000;
    opts.retry.maxAttempts = 2;
    // Host-side backoff; keep the demo snappy.
    opts.retry.backoffBase = 1 * msec;
    opts.retry.backoffMax = 4 * msec;

    CampaignRunner runner(opts);
    CampaignResult res = runner.run(
        3, "fault_tolerance campaign demo",
        [](std::size_t point, std::size_t, std::uint64_t seed,
           const ReplicaLimits &limits) {
            return runCampaignCell(point, seed, limits);
        });

    for (const ReplicaRecord &rec : res.records) {
        std::printf("  point %zu completed: %.0f jobs\n", rec.point,
                    rec.metrics.empty() ? 0.0 : rec.metrics[0].second);
    }
    for (const QuarantineRecord &q : res.quarantined) {
        std::printf("  point %zu QUARANTINED after retry: %s\n",
                    q.point, q.error.c_str());
    }
    std::printf("  executed=%zu retries=%llu quarantined=%zu -- the "
                "campaign completed despite the hung point\n",
                res.executed,
                static_cast<unsigned long long>(res.retries),
                res.quarantined.size());
    std::printf("  journal (incl. the quarantine record): %s\n",
                opts.journalPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned n_jobs = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                               : defaultWorkers();
    std::size_t replicas =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1;
    if (replicas == 0)
        replicas = 1;

    std::printf("fault tolerance: 100 servers x 4 cores, 35%% load, "
                "MTTR 2 min, 4 retries (jobs=%u, replicas=%zu)\n\n",
                n_jobs, replicas);
    std::printf("%-10s %12s %7s %8s %8s %7s %10s %8s %9s %9s\n",
                "config", "availability", "faults", "retries",
                "done", "failed", "wasted_J", "waste_%",
                "mean_ms", "p99_ms");

    CampaignOptions opts;
    opts.jobs = n_jobs;
    opts.replicas = replicas;
    opts.baseSeed = 7;
    opts.retry.maxAttempts = 1;
    CampaignResult res = CampaignRunner(opts).run(
        std::size(sweep), "fault_tolerance MTTF sweep",
        [](std::size_t point, std::size_t, std::uint64_t seed,
           const ReplicaLimits &) {
            return runOnce(sweep[point].mttfHours, seed);
        });
    ResultTable table;
    tabulate(res.records, table);

    for (std::size_t p = 0; p < std::size(sweep); ++p) {
        auto mean = [&table, p](const char *metric) {
            return table.summary(p, metric).mean;
        };
        std::printf("%-10s %12.6f %7.0f %8.0f %8.0f %7.0f %10.1f "
                    "%8.3f %9.2f %9.2f\n",
                    sweep[p].label, mean("availability"),
                    mean("faults"), mean("retries"), mean("done"),
                    mean("failed"), mean("wasted_j"),
                    100.0 * mean("wasted_frac"), mean("mean_lat_ms"),
                    mean("p99_lat_ms"));
    }

    campaignDemo(n_jobs);
    return 0;
}
