/**
 * @file
 * Shared helpers for the figure/table reproduction benches: a
 * canonical server-farm experiment runner and result record.
 *
 * Workload naming follows the paper: "web search" is the
 * short-service workload (5 ms) and "web serving" the long-service
 * one (120 ms); case study IV-B labels them Google and Apache in
 * Figure 6.
 */

#ifndef HOLDCSIM_BENCH_COMMON_HH
#define HOLDCSIM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dc/datacenter.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

namespace holdcsim::bench {

/**
 * Parse the command line of a bench whose only option is --json
 * (print machine-readable rows instead of the table). Up to
 * @p max_args plain arguments, named by @p args_usage, may come with
 * it and are appended to @p args in order. Anything else prints the
 * usage and exits with status 2.
 */
inline bool
jsonFlag(int argc, char **argv, std::vector<std::string> *args = nullptr,
         std::size_t max_args = 0, const char *args_usage = "")
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (args && args->size() < max_args &&
                   argv[i][0] != '-') {
            args->push_back(argv[i]);
        } else {
            std::fprintf(stderr, "usage: %s %s[--json]\n", argv[0],
                         args_usage);
            std::exit(2);
        }
    }
    return json;
}

/** Outcome of one server-farm run. */
struct FarmResult {
    Joules energy = 0.0;
    double meanLatencySec = 0.0;
    double p90Sec = 0.0;
    double p95Sec = 0.0;
    double p99Sec = 0.0;
    std::uint64_t jobs = 0;
    double simSeconds = 0.0;
};

/** Parameters of the canonical single-task-job farm experiment. */
struct FarmParams {
    unsigned nServers = 50;
    unsigned nCores = 4;
    /** Mean service time of the exponential service distribution. */
    Tick serviceTime = 5 * msec;
    /** Target utilization (sets the Poisson arrival rate). */
    double rho = 0.3;
    /** Simulated duration of the measured window. */
    Tick duration = 60 * sec;
    /** Delay-timer tau; maxTick = Active-Idle baseline. */
    Tick tau = maxTick;
    std::uint64_t seed = 1;
};

/**
 * Build the diurnal (Wikipedia-like) arrival trace the delay-timer
 * case studies run on: mean rate matching the target utilization,
 * with pronounced peaks and deep troughs so idle gaps are bimodal
 * (short within the busy phase, long in the quiet phase) -- the
 * regime where an interior optimal tau exists.
 */
inline std::vector<Tick>
makeDiurnalArrivals(const FarmParams &p)
{
    WikipediaTraceParams wp;
    wp.duration = p.duration;
    wp.baseRate = PoissonArrival::rateForUtilization(
        p.rho, p.nServers, p.nCores, toSeconds(p.serviceTime));
    wp.diurnalAmplitude = 1.1; // slightly clipped: quiet troughs
    wp.diurnalPeriod = p.duration / 2;
    wp.noiseLevel = 0.1;
    wp.burstProbability = 0.0;
    return makeWikipediaTrace(wp, Rng(p.seed, "diurnal"));
}

/** Run the canonical experiment on an explicit arrival trace. */
inline FarmResult
runFarmWithArrivals(const FarmParams &p, std::vector<Tick> arrivals)
{
    DataCenterConfig cfg;
    cfg.nServers = p.nServers;
    cfg.nCores = p.nCores;
    cfg.seed = p.seed;
    if (p.tau == maxTick) {
        cfg.controller = DataCenterConfig::Controller::alwaysOn;
    } else {
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = p.tau;
    }
    DataCenter dc(cfg);

    auto service = std::make_shared<ExponentialService>(
        p.serviceTime, dc.makeRng("service"));
    SingleTaskGenerator jobs(service);
    dc.pumpTrace(std::move(arrivals), jobs);
    dc.runUntil(p.duration);
    dc.run();
    dc.finishStats();

    FarmResult r;
    r.energy = dc.energy().total.total();
    const auto &lat = dc.scheduler().jobLatency();
    r.meanLatencySec = lat.mean();
    r.p90Sec = lat.p90();
    r.p95Sec = lat.p95();
    r.p99Sec = lat.p99();
    r.jobs = dc.scheduler().jobsCompleted();
    r.simSeconds = toSeconds(dc.sim().curTick());
    return r;
}

/** Run the canonical experiment and collect energy + latency. */
inline FarmResult
runFarm(const FarmParams &p)
{
    DataCenterConfig cfg;
    cfg.nServers = p.nServers;
    cfg.nCores = p.nCores;
    cfg.seed = p.seed;
    if (p.tau == maxTick) {
        cfg.controller = DataCenterConfig::Controller::alwaysOn;
    } else {
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = p.tau;
    }
    DataCenter dc(cfg);

    auto service = std::make_shared<ExponentialService>(
        p.serviceTime, dc.makeRng("service"));
    SingleTaskGenerator jobs(service);
    double lambda = PoissonArrival::rateForUtilization(
        p.rho, p.nServers, p.nCores, toSeconds(p.serviceTime));
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            jobs, static_cast<std::size_t>(-1), p.duration);
    dc.runUntil(p.duration);
    dc.run(); // drain in-flight jobs
    dc.finishStats();

    FarmResult r;
    r.energy = dc.energy().total.total();
    const auto &lat = dc.scheduler().jobLatency();
    r.meanLatencySec = lat.mean();
    r.p90Sec = lat.p90();
    r.p95Sec = lat.p95();
    r.p99Sec = lat.p99();
    r.jobs = dc.scheduler().jobsCompleted();
    r.simSeconds = toSeconds(dc.sim().curTick());
    return r;
}

} // namespace holdcsim::bench

#endif // HOLDCSIM_BENCH_COMMON_HH
