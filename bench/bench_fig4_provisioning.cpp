/**
 * @file
 * Reproduces paper Figure 4: number of active jobs and number of
 * active servers over time under the dynamic resource-provisioning
 * policy (case study IV-A).
 *
 * Setup: 50 four-core servers, Wikipedia-like trace, 3-10 ms tasks,
 * min/max load-per-server thresholds. All servers start active;
 * servers are gradually put aside until the load per server falls
 * inside the thresholds, then the active count tracks the trace's
 * fluctuation.
 *
 * Expected shape: active-server count drops steeply from 50 in the
 * initial phase, then follows the offered-job curve.
 *
 * Runs on the campaign runner:
 *
 *   bench_fig4_provisioning [jobs [replicas]] [--json]
 *
 * Replica 0 keeps the historical seed (4), so its printed time
 * series is unchanged; extra replicas rerun the study under fresh
 * seeds and the summary reports cross-replica mean +/- 95% CI.
 *
 * --json prints one JSON object per line: every 2 s sample of
 * replica 0 ("time_s", "active_jobs", "active_servers"), then one
 * "totals" object of cross-replica means. tests/paper/
 * fig4_provisioning.py gates it.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "dc/datacenter.hh"
#include "dc/metrics.hh"
#include "exp/aggregate.hh"
#include "exp/campaign.hh"
#include "sched/provisioning.hh"
#include "sim/logging.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

using namespace holdcsim;

namespace {

struct SeriesPair {
    std::vector<Sample> jobs;
    std::vector<Sample> servers;
};

MetricRow
provisionRun(std::uint64_t seed, SeriesPair *series_out)
{
    DataCenterConfig cfg;
    cfg.nServers = 50;
    cfg.nCores = 4;
    cfg.seed = seed;
    DataCenter dc(cfg);

    WikipediaTraceParams wp;
    wp.duration = 600 * sec;
    wp.baseRate = 3000.0;
    wp.diurnalPeriod = 300 * sec;
    wp.diurnalAmplitude = 0.6;
    auto arrivals = makeWikipediaTrace(wp, dc.makeRng("wiki"));

    auto service = std::make_shared<UniformService>(
        3 * msec, 10 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(service);
    dc.pumpTrace(std::move(arrivals), jobs);

    ProvisioningConfig pc;
    pc.minLoadPerServer = 0.4;
    pc.maxLoadPerServer = 1.2;
    pc.checkInterval = 250 * msec;
    ProvisioningPolicy prov(dc.scheduler(), pc);
    prov.start();

    GaugeSampler jobs_gauge(dc.sim(),
                            [&] {
                                return static_cast<double>(
                                    dc.scheduler().activeJobs());
                            },
                            2 * sec, "activeJobs");
    GaugeSampler servers_gauge(
        dc.sim(),
        [&] { return static_cast<double>(prov.activeServers()); },
        2 * sec, "activeServers");
    jobs_gauge.start();
    servers_gauge.start();

    dc.runUntil(wp.duration);
    prov.stop();
    jobs_gauge.stop();
    servers_gauge.stop();
    dc.run();

    if (series_out) {
        series_out->jobs = jobs_gauge.series();
        series_out->servers = servers_gauge.series();
    }
    return {
        {"jobs_completed",
         static_cast<double>(dc.scheduler().jobsCompleted())},
        {"park_events", static_cast<double>(prov.parkEvents())},
        {"activate_events",
         static_cast<double>(prov.activateEvents())},
        {"mean_active_jobs", jobs_gauge.mean()},
        {"mean_active_servers", servers_gauge.mean()},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    const bool json =
        bench::jsonFlag(argc, argv, &args, 2, "[jobs [replicas]] ");
    setQuiet(true);
    unsigned n_jobs =
        args.size() > 0 ? std::strtoul(args[0].c_str(), nullptr, 10) : 1;
    std::size_t replicas =
        args.size() > 1 ? std::strtoul(args[1].c_str(), nullptr, 10) : 1;
    if (replicas == 0)
        replicas = 1;

    if (!json) {
        std::printf("== Figure 4: active jobs and active servers over "
                    "time (jobs=%u, replicas=%zu) ==\n",
                    n_jobs, replicas);
    }

    // Only replica 0 writes the series slot; with one attempt per
    // cell the runner runs each (point, replica) exactly once, so
    // there is no race.
    SeriesPair series;
    CampaignOptions opts;
    opts.jobs = n_jobs;
    opts.replicas = replicas;
    opts.baseSeed = 4;
    opts.retry.maxAttempts = 1;
    CampaignResult res = CampaignRunner(opts).run(
        1, "fig4 provisioning",
        [&series](std::size_t, std::size_t replica, std::uint64_t seed,
                  const ReplicaLimits &) {
            return provisionRun(seed,
                                replica == 0 ? &series : nullptr);
        });

    ResultTable table;
    tabulate(res.records, table);

    if (json) {
        for (std::size_t i = 0; i < series.jobs.size(); ++i) {
            std::printf("{\"time_s\": %.17g, \"active_jobs\": %.17g, "
                        "\"active_servers\": %.17g}\n",
                        toSeconds(series.jobs[i].when),
                        series.jobs[i].value, series.servers[i].value);
        }
        std::printf("{\"totals\": true");
        for (const std::string &metric : table.metrics()) {
            std::printf(", \"%s\": %.17g", metric.c_str(),
                        table.summary(0, metric).mean);
        }
        std::printf("}\n");
        return 0;
    }

    std::printf("time_s  active_jobs  active_servers\n");
    for (std::size_t i = 0; i < series.jobs.size(); i += 5) {
        std::printf("%6.0f  %11.0f  %14.0f\n",
                    toSeconds(series.jobs[i].when),
                    series.jobs[i].value, series.servers[i].value);
    }

    if (replicas == 1) {
        std::printf("jobs completed: %.0f; park events: %.0f; "
                    "activate events: %.0f\n",
                    table.summary(0, "jobs_completed").mean,
                    table.summary(0, "park_events").mean,
                    table.summary(0, "activate_events").mean);
    } else {
        std::printf("across %zu replicas (mean +/- 95%% CI):\n",
                    replicas);
        for (const std::string &metric : table.metrics()) {
            Summary s = table.summary(0, metric);
            std::printf("  %-20s %10.1f +/- %.1f\n", metric.c_str(),
                        s.mean, s.ci95);
        }
    }
    return 0;
}
