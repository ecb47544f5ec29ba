/**
 * @file
 * Reproduces paper Figure 6: energy reduction of the dual
 * delay-timer policy over the Active-Idle baseline, for web search
 * ("Google") and web serving ("Apache") workloads at utilization
 * 0.1 / 0.3 / 0.6 on 20- and 100-server farms.
 *
 * Expected shape: substantial (tens of percent, up to ~45%) energy
 * reduction, larger at low utilization, similar across farm sizes,
 * with job tail latency staying comparable.
 *
 * Usage: bench_fig6_dual_timer [--quick] [--json]
 *   --quick  simulate a fifth of each window (6 s web search, 24 s
 *            web serving) instead of 30 s / 120 s
 *   --json   print one JSON object per cell, one per line (energies
 *            in joules, saving as a fraction, p95 in seconds, all at
 *            full precision), instead of the table
 * tests/paper/fig6_dual_timer.py gates the --quick --json output.
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "common.hh"
#include "sched/adaptive_policy.hh"
#include "sim/logging.hh"

using namespace holdcsim;
using namespace holdcsim::bench;

namespace {

struct DualResult {
    Joules energy;
    double p95Sec;
};

DualResult
runDual(unsigned n_servers, Tick service, double rho, Tick tau_high,
        Tick tau_low, Tick duration)
{
    DataCenterConfig cfg;
    cfg.nServers = n_servers;
    cfg.nCores = 4;
    cfg.seed = 6;
    DataCenter dc(cfg);

    DualTimerConfig dt;
    // High pool sized to carry the offered load at ~75% pool
    // utilization, with one server of headroom.
    dt.highPoolSize = std::min<std::size_t>(
        n_servers,
        static_cast<std::size_t>(rho * n_servers / 0.75) + 1);
    dt.tauHigh = tau_high;
    dt.tauLow = tau_low;
    configureDualTimers(dc.scheduler(), dt);

    auto svc = std::make_shared<ExponentialService>(
        service, dc.makeRng("service"));
    SingleTaskGenerator jobs(svc);
    double lambda = PoissonArrival::rateForUtilization(
        rho, n_servers, 4, toSeconds(service));
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            jobs, static_cast<std::size_t>(-1), duration);
    dc.runUntil(duration);
    dc.run();
    dc.finishStats();
    return DualResult{dc.energy().total.total(),
                      dc.scheduler().jobLatency().p95()};
}

struct Options {
    bool quick = false;
    bool json = false;
};

void
farmSize(unsigned n_servers, const Options &o)
{
    if (!o.json) {
        std::printf("-- %u servers --\n", n_servers);
        std::printf("workload     rho  baseline_J  dual_J    saving  "
                    "base_p95_ms  dual_p95_ms\n");
    }
    struct Wl {
        const char *name;
        const char *key;
        Tick service;
        Tick tauHigh, tauLow;
        Tick duration;
    };
    const Wl wls[] = {
        {"Google (search)", "google", 5 * msec, 800 * msec, 50 * msec,
         30 * sec},
        {"Apache (serving)", "apache", 120 * msec, 2400 * msec,
         200 * msec, 120 * sec},
    };
    for (const Wl &wl : wls) {
        const Tick duration = o.quick ? wl.duration / 5 : wl.duration;
        for (double rho : {0.1, 0.3, 0.6}) {
            FarmParams base;
            base.nServers = n_servers;
            base.serviceTime = wl.service;
            base.rho = rho;
            base.duration = duration;
            base.tau = maxTick; // Active-Idle
            base.seed = 6;
            FarmResult b = runFarm(base);
            DualResult d = runDual(n_servers, wl.service, rho, wl.tauHigh,
                                   wl.tauLow, duration);
            const double saving = 1.0 - d.energy / b.energy;
            if (o.json) {
                std::printf("{\"servers\": %u, \"workload\": \"%s\", "
                            "\"rho\": %.1f, \"baseline_j\": %.17g, "
                            "\"dual_j\": %.17g, \"saving\": %.17g, "
                            "\"base_p95_s\": %.17g, \"dual_p95_s\": "
                            "%.17g}\n",
                            n_servers, wl.key, rho, b.energy, d.energy,
                            saving, b.p95Sec, d.p95Sec);
                continue;
            }
            std::printf("%-16s %.1f  %10.0f  %8.0f  %5.1f%%  %11.2f  "
                        "%11.2f\n",
                        wl.name, rho, b.energy, d.energy, 100.0 * saving,
                        b.p95Sec * 1e3, d.p95Sec * 1e3);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            o.quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            o.json = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--json]\n", argv[0]);
            return 2;
        }
    }
    setQuiet(true);
    if (!o.json)
        std::printf("== Figure 6: dual delay timers vs Active-Idle ==\n");
    farmSize(20, o);
    farmSize(100, o);
    return 0;
}
