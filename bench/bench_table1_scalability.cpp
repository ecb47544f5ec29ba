/**
 * @file
 * Reproduces the scalability row of paper Table I: HolDCSim
 * simulates more than 20K servers (versus <1K for BigHouse and
 * ~1.5K for CloudSim).
 *
 * The bench instantiates server farms from 1K up to 20,480 servers,
 * drives each with up to one million Poisson jobs under round-robin
 * dispatch, and reports wall-clock time, event throughput and job
 * throughput. The 20K+ configuration completing in seconds-to-
 * minutes on a laptop is the claim being checked.
 *
 * The farm sizes run as points of a CampaignRunner grid:
 *
 *   bench_table1_scalability [jobs [replicas]] [--json]
 *
 * With jobs == 1 (the default) points run sequentially and the
 * per-point timings are clean; with jobs > 1 the points (and
 * replicas) share the machine, so per-point throughput readings are
 * contended but the total wall-clock shows the parallel speedup.
 * --json prints one JSON object per farm, one per line (replica
 * means), instead of the table; tests/paper/table1_scalability.py
 * gates its model outputs (jobs completed, events).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "dc/datacenter.hh"
#include "exp/aggregate.hh"
#include "exp/campaign.hh"
#include "sim/logging.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

struct Farm {
    unsigned nServers;
    std::size_t nJobs;
};

const Farm farms[] = {
    {1'024, 500'000},
    {5'120, 500'000},
    {20'480, 1'000'000},
};

MetricRow
scaleRun(const Farm &farm, std::uint64_t seed)
{
    auto wall0 = std::chrono::steady_clock::now();
    DataCenterConfig cfg;
    cfg.nServers = farm.nServers;
    cfg.nCores = 4;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 500 * msec;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    cfg.seed = seed;
    DataCenter dc(cfg);
    auto wall1 = std::chrono::steady_clock::now();

    auto svc = std::make_shared<ExponentialService>(
        5 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(svc);
    double lambda = PoissonArrival::rateForUtilization(
        0.3, farm.nServers, 4, 0.005);
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            jobs, farm.nJobs);
    dc.run();
    auto wall2 = std::chrono::steady_clock::now();

    double build_s =
        std::chrono::duration<double>(wall1 - wall0).count();
    double run_s =
        std::chrono::duration<double>(wall2 - wall1).count();
    return {
        {"build_s", build_s},
        {"run_s", run_s},
        {"events", static_cast<double>(dc.sim().eventsProcessed())},
        {"events_per_s", dc.sim().eventsProcessed() / run_s},
        {"jobs_per_s", static_cast<double>(farm.nJobs) / run_s},
        {"jobs_completed",
         static_cast<double>(dc.scheduler().jobsCompleted())},
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
        std::printf("== Table I (scalability row): farm size sweep "
                    "(jobs=%u, replicas=%zu) ==\n",
                    n_jobs, replicas);
    }

    auto wall0 = std::chrono::steady_clock::now();
    CampaignOptions opts;
    opts.jobs = n_jobs;
    opts.replicas = replicas;
    opts.baseSeed = 1;
    opts.retry.maxAttempts = 1;
    CampaignResult res = CampaignRunner(opts).run(
        std::size(farms), "table1 farm-size sweep",
        [](std::size_t point, std::size_t, std::uint64_t seed,
           const ReplicaLimits &) {
            return scaleRun(farms[point], seed);
        });
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();

    ResultTable table;
    tabulate(res.records, table);

    if (json) {
        for (std::size_t p = 0; p < std::size(farms); ++p) {
            std::printf("{\"servers\": %u, \"jobs\": %zu, "
                        "\"jobs_completed\": %.17g, \"events\": %.17g, "
                        "\"build_s\": %.17g, \"run_s\": %.17g}\n",
                        farms[p].nServers, farms[p].nJobs,
                        table.summary(p, "jobs_completed").mean,
                        table.summary(p, "events").mean,
                        table.summary(p, "build_s").mean,
                        table.summary(p, "run_s").mean);
        }
        return 0;
    }

    std::printf("%8s  %9s  %10s  %8s  %8s  %10s  %11s\n", "servers",
                "jobs", "events", "build_s", "run_s", "events/s",
                "jobs/s");
    double cpu_s = 0.0;
    for (std::size_t p = 0; p < std::size(farms); ++p) {
        Summary build = table.summary(p, "build_s");
        Summary run = table.summary(p, "run_s");
        std::printf("%8u  %9zu  %10.0f  %8.2f  %8.2f  %10.0f  %11.0f\n",
                    farms[p].nServers, farms[p].nJobs,
                    table.summary(p, "events").mean, build.mean,
                    run.mean, table.summary(p, "events_per_s").mean,
                    table.summary(p, "jobs_per_s").mean);
        cpu_s += static_cast<double>(replicas) *
                 (build.mean + run.mean);
        double done = table.summary(p, "jobs_completed").mean;
        if (done != static_cast<double>(farms[p].nJobs))
            std::printf("  WARNING: only %.0f jobs completed\n", done);
    }
    std::printf("total wall %.2f s for %.2f s of simulation work "
                "(%.2fx)\n",
                wall, cpu_s, cpu_s / wall);
    std::printf("PASS criterion: the 20,480-server farm simulates "
                "without structural limits.\n");
    return 0;
}
