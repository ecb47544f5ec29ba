/**
 * @file
 * Reproduces paper Figure 5: exploration of the single delay-timer
 * parameter for the system on-off mechanism.
 *
 * Setup (section IV-B): a 50-server four-core farm driven by the
 * fluctuating (Wikipedia-like) trace of case study IV-A, rescaled
 * to utilization 0.1 / 0.3 / 0.6; a web search workload (short,
 * ~5 ms service) swept over tau in [0, 5] s and a web serving
 * workload (~120 ms) swept over tau in [0, 20] s.
 *
 * Expected shape: for each (workload, rho) the energy-vs-tau curve
 * is U-shaped -- suspending too eagerly wastes energy on wakeups
 * inside the busy phase, too lazily wastes idle power through the
 * quiet phase -- and the tau minimizing energy is consistent across
 * utilizations for a given workload, with the longer-service
 * workload preferring a much larger tau.
 *
 * Usage: bench_fig5_delay_timer [--quick] [--json]. --quick runs a
 * fifth of each window (24 s of web search, 60 s of web serving);
 * --json prints one object per (workload, rho, tau) cell instead of
 * the table.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hh"
#include "sim/logging.hh"

using namespace holdcsim;
using namespace holdcsim::bench;

namespace {

struct Options {
    bool quick = false;
    bool json = false;
};

void
sweep(const char *name, const char *key, Tick service,
      const std::vector<double> &taus, Tick duration, const Options &o)
{
    if (o.quick)
        duration /= 5;
    if (!o.json) {
        std::printf("== Figure 5: %s (service %.0f ms) ==\n", name,
                    toSeconds(service) * 1e3);
        std::printf("%8s", "tau_s");
        for (double rho : {0.1, 0.3, 0.6})
            std::printf("  energy_J(rho=%.1f)", rho);
        std::printf("\n");
    }

    std::vector<std::vector<double>> energy(taus.size());
    for (std::size_t ti = 0; ti < taus.size(); ++ti) {
        if (!o.json)
            std::printf("%8.2f", taus[ti]);
        for (double rho : {0.1, 0.3, 0.6}) {
            FarmParams p;
            p.serviceTime = service;
            p.rho = rho;
            p.duration = duration;
            p.tau = fromSeconds(taus[ti]);
            p.seed = 5;
            // Same trace for every tau at a given (workload, rho).
            FarmResult r =
                runFarmWithArrivals(p, makeDiurnalArrivals(p));
            energy[ti].push_back(r.energy);
            if (o.json) {
                std::printf("{\"workload\": \"%s\", \"rho\": %.1f, "
                            "\"tau_s\": %.17g, \"energy_j\": %.17g}\n",
                            key, rho, taus[ti], r.energy);
            } else {
                std::printf("  %17.0f", r.energy);
            }
        }
        if (!o.json)
            std::printf("\n");
    }
    if (o.json)
        return;

    // Report the optimum per utilization.
    std::printf("optimum  ");
    for (std::size_t ri = 0; ri < 3; ++ri) {
        std::size_t best = 0;
        for (std::size_t ti = 1; ti < taus.size(); ++ti) {
            if (energy[ti][ri] < energy[best][ri])
                best = ti;
        }
        std::printf("  tau*=%.2fs        ", taus[best]);
    }
    std::printf("\n\n");
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
    // Web search: tau swept over [0, 5] s as in Figure 5a.
    sweep("web search", "search", 5 * msec,
          {0.0, 0.1, 0.2, 0.4, 0.8, 1.6, 3.0, 5.0}, 120 * sec, o);
    // Web serving: tau swept over [0, 20] s as in Figure 5b.
    sweep("web serving", "serving", 120 * msec,
          {0.0, 0.5, 1.2, 2.4, 4.8, 9.6, 14.4, 20.0}, 300 * sec, o);
    return 0;
}
