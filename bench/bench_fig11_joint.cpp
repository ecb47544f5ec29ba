/**
 * @file
 * Reproduces paper Figure 11 (and exercises the Figure 10 fat-tree
 * topology): server and network power consumption (11a) and the job
 * response-time CDF (11b) under the Server-Network-Aware placement
 * strategy versus the Server-Balanced (load-balancing) baseline.
 *
 * Setup (case study IV-D): fat-tree fabric with full bisection
 * bandwidth, jobs are DAGs of inter-dependent tasks with 100 MB
 * flows per edge, 2000 jobs with Poisson arrivals, flow-based
 * communication, at two server utilization levels.
 *
 * Expected shape: the network-aware policy trims both server and
 * switch power (paper: ~20% / ~18%) with a nearly overlapping
 * latency CDF.
 *
 * Usage: bench_fig11_joint [--json]
 *   --json  print one JSON object per utilization level, one per
 *           line (average powers in watts and median response times
 *           in seconds, at full precision), instead of the tables
 * tests/paper/fig11_joint.py gates the --json output.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common.hh"
#include "sim/logging.hh"

using namespace holdcsim;

namespace {

struct JointResult {
    double serverW = 0.0;
    double switchW = 0.0;
    std::vector<double> latencies; // sorted seconds
};

/** The @p q quantile of sorted @p v (0 when empty). */
double
quantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    return v[static_cast<std::size_t>(q * (v.size() - 1))];
}

JointResult
runOnce(bool aware, double rho, unsigned n_jobs)
{
    DataCenterConfig cfg;
    cfg.nCores = 4;
    cfg.fabric = DataCenterConfig::Fabric::fatTree;
    cfg.fabricParam = 4; // 16 servers
    cfg.dispatch = aware ? DataCenterConfig::Dispatch::networkAware
                         : DataCenterConfig::Dispatch::roundRobin;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 2 * sec;
    cfg.netConfig.switchSleepDelay = 1 * sec;
    cfg.taskAntiAffinity = true; // every DAG edge becomes a flow
    cfg.linkRate = 1e10; // 10 GbE: 100 MB transfers in ~80 ms
    cfg.seed = 11;
    DataCenter dc(cfg);

    // Random execution times (paper: "randomly assigned job
    // execution time"); rho is the *server* utilization level, with
    // services sized so the 100 MB flows (~80 ms on 10 GbE) are a
    // comparable but secondary cost.
    const Tick mean_service = 300 * msec;
    auto svc = std::make_shared<ExponentialService>(
        mean_service, dc.makeRng("service"));
    RandomDagGenerator jobs(svc, /*layers=*/3, /*width=*/2,
                            /*edge_probability=*/0.5,
                            /*transfer_bytes=*/100ull << 20,
                            dc.makeRng("dag"));
    // ~4 tasks per job on average.
    double lambda = PoissonArrival::rateForUtilization(
                        rho, 16, 4, toSeconds(mean_service)) /
                    4.0;
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            jobs, n_jobs);
    dc.run();
    dc.finishStats();

    JointResult r;
    double seconds = toSeconds(dc.sim().curTick());
    r.serverW = dc.energy().total.total() / seconds;
    r.switchW = dc.switchEnergy() / seconds;
    r.latencies = dc.scheduler().jobLatency().sorted();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool json = bench::jsonFlag(argc, argv);
    setQuiet(true);
    const unsigned n_jobs = 2000;
    if (!json) {
        std::printf("== Figure 11a: average power, fat-tree k=4, "
                    "%u jobs ==\n",
                    n_jobs);
        std::printf("rho   policy                 server_W  switch_W\n");
    }
    JointResult keep_balanced, keep_aware;
    for (double rho : {0.3, 0.6}) {
        JointResult balanced = runOnce(false, rho, n_jobs);
        JointResult aware = runOnce(true, rho, n_jobs);
        if (json) {
            std::printf("{\"rho\": %.1f, \"balanced_server_w\": %.17g, "
                        "\"aware_server_w\": %.17g, "
                        "\"balanced_switch_w\": %.17g, "
                        "\"aware_switch_w\": %.17g, "
                        "\"balanced_p50_s\": %.17g, "
                        "\"aware_p50_s\": %.17g}\n",
                        rho, balanced.serverW, aware.serverW,
                        balanced.switchW, aware.switchW,
                        quantile(balanced.latencies, 0.5),
                        quantile(aware.latencies, 0.5));
            continue;
        }
        std::printf("%.1f   server-balanced        %8.1f  %8.1f\n",
                    rho, balanced.serverW, balanced.switchW);
        std::printf("%.1f   server-network-aware   %8.1f  %8.1f\n",
                    rho, aware.serverW, aware.switchW);
        std::printf("%.1f   savings                %7.1f%%  "
                    "%7.1f%%\n",
                    rho,
                    100.0 * (1.0 - aware.serverW / balanced.serverW),
                    100.0 * (1.0 - aware.switchW / balanced.switchW));
        if (rho == 0.3) {
            keep_balanced = std::move(balanced);
            keep_aware = std::move(aware);
        }
    }

    if (json)
        return 0;
    std::printf("\n== Figure 11b: job response-time CDF "
                "(rho=0.3) ==\n");
    std::printf("cdf    balanced_s  aware_s\n");
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
        std::printf("%.2f   %9.3f  %8.3f\n", q,
                    quantile(keep_balanced.latencies, q),
                    quantile(keep_aware.latencies, q));
    }
    return 0;
}
