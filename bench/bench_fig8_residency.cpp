/**
 * @file
 * Reproduces paper Figure 8: servers' overall state residency under
 * the workload-adaptive energy-latency optimization framework, for
 * web search (5 ms) and web serving (120 ms) at utilization 0.1 to
 * 0.9.
 *
 * Expected shape: the Active fraction tracks the utilization, and
 * up to moderate utilization the non-active time is dominated by
 * the deepest state (system sleep), with small wake-up/idle/pkg-C6
 * slivers -- i.e. the framework coordinates a minimal set of busy
 * servers and suspends the rest.
 *
 * Usage: bench_fig8_residency [--json]
 *   --json  print one JSON object per (workload, rho) cell, one per
 *           line, with the five residency fractions instead of the
 *           tables. tests/paper/fig8_residency.py gates it.
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "dc/datacenter.hh"
#include "sched/adaptive_policy.hh"
#include "sim/logging.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

void
residencySweep(const char *name, const char *key, Tick service,
               Tick duration, bool json)
{
    if (!json) {
        std::printf("-- %s (service %.0f ms), 10 x 10-core servers --\n",
                    name, toSeconds(service) * 1e3);
        std::printf("rho   active  wakeup   idle   pkgC6  sysSleep\n");
    }
    for (int r = 1; r <= 9; ++r) {
        double rho = r / 10.0;
        DataCenterConfig cfg;
        cfg.nServers = 10;
        cfg.nCores = 10;
        cfg.serverProfile = ServerPowerProfile::xeonE5_2680();
        cfg.seed = 8;
        DataCenter dc(cfg);

        AdaptiveConfig ac;
        // Thresholds around the core count pack the active pool to
        // (nearly) all cores before another server is woken, so the
        // fleet's active fraction tracks utilization.
        ac.wakeupThreshold = 13.0;
        ac.sleepThreshold = 9.0;
        ac.deepSleepAfter = 100 * msec;
        ac.transitionCooldown = 3 * sec;
        ac.initialActive = std::max(1, static_cast<int>(rho * 10) + 1);
        AdaptivePoolPolicy wasp(dc.scheduler(), ac);
        wasp.start();

        auto svc = std::make_shared<ExponentialService>(
            service, dc.makeRng("service"));
        SingleTaskGenerator jobs(svc);
        double lambda = PoissonArrival::rateForUtilization(
            rho, 10, 10, toSeconds(service));
        dc.pump(std::make_unique<PoissonArrival>(
                    lambda, dc.makeRng("arrivals")),
                jobs, static_cast<std::size_t>(-1), duration);
        dc.runUntil(duration);
        wasp.stop();
        dc.run();
        auto frac = dc.residency();
        if (json) {
            std::printf("{\"workload\": \"%s\", \"rho\": %.1f, "
                        "\"active\": %.17g, \"wakeup\": %.17g, "
                        "\"idle\": %.17g, \"pkg_c6\": %.17g, "
                        "\"sys_sleep\": %.17g}\n",
                        key, rho, frac[0], frac[1], frac[2], frac[3],
                        frac[4]);
            continue;
        }
        std::printf("%.1f   %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%%  "
                    "%6.1f%%\n",
                    rho, 100 * frac[0], 100 * frac[1], 100 * frac[2],
                    100 * frac[3], 100 * frac[4]);
    }
    if (!json)
        std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const bool json = bench::jsonFlag(argc, argv);
    setQuiet(true);
    if (!json) {
        std::printf("== Figure 8: state residency under the adaptive "
                    "framework ==\n");
    }
    residencySweep("web search", "search", 5 * msec, 60 * sec, json);
    residencySweep("web serving", "serving", 120 * msec, 120 * sec,
                   json);
    return 0;
}
