/**
 * @file
 * Reproduces paper Figure 9: per-server energy breakdown (CPU /
 * DRAM / platform) for ten 10-core servers under (a) delay-timer
 * power management and (b) the workload-adaptive sleep policy.
 *
 * Expected shape: the delay-timer farm spreads energy almost
 * uniformly across servers (load balancing keeps them all warm),
 * while the adaptive policy concentrates work on a small subset and
 * keeps the rest in deep sleep, cutting total energy substantially
 * (the paper reports 39%).
 *
 * Usage: bench_fig9_breakdown [--json]
 *   --json  print one JSON object per policy, one per line (fleet
 *           energies in joules, at full precision), instead of the
 *           table
 * tests/paper/fig9_breakdown.py gates the --json output.
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "sched/adaptive_policy.hh"
#include "sim/logging.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

using namespace holdcsim;

namespace {

FleetEnergy
runOnce(bool adaptive)
{
    DataCenterConfig cfg;
    cfg.nServers = 10;
    cfg.nCores = 10;
    cfg.serverProfile = ServerPowerProfile::xeonE5_2680();
    cfg.seed = 9;
    if (!adaptive) {
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = 1 * sec;
    }
    DataCenter dc(cfg);

    std::unique_ptr<AdaptivePoolPolicy> wasp;
    if (adaptive) {
        AdaptiveConfig ac;
        ac.wakeupThreshold = 7.0;
        ac.sleepThreshold = 3.0;
        ac.deepSleepAfter = 100 * msec;
        ac.initialActive = 2;
        wasp = std::make_unique<AdaptivePoolPolicy>(dc.scheduler(),
                                                    ac);
        wasp->start();
    }

    // Wikipedia-like fluctuating arrivals (web search service).
    WikipediaTraceParams wp;
    wp.duration = 120 * sec;
    wp.baseRate = 0.15 * 10 * 10 / 0.005; // ~15% mean utilization
    wp.diurnalPeriod = 60 * sec;
    auto arrivals = makeWikipediaTrace(wp, dc.makeRng("wiki"));
    auto svc = std::make_shared<ExponentialService>(
        5 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(svc);
    dc.pumpTrace(std::move(arrivals), jobs);
    dc.runUntil(wp.duration);
    if (wasp)
        wasp->stop();
    dc.run();
    dc.finishStats();
    return dc.energy();
}

void
print(const char *title, const FleetEnergy &e)
{
    std::printf("-- %s --\n", title);
    std::printf("server   cpu_J    dram_J   platform_J  total_J\n");
    for (std::size_t i = 0; i < e.perServer.size(); ++i) {
        std::printf("  %2zu   %7.0f   %6.0f   %9.0f   %7.0f\n", i,
                    e.perServer[i].cpu, e.perServer[i].dram,
                    e.perServer[i].platform, e.perServer[i].total());
    }
    std::printf("total  %7.0f   %6.0f   %9.0f   %7.0f\n",
                e.total.cpu, e.total.dram, e.total.platform,
                e.total.total());
}

void
printJson(const char *policy, const FleetEnergy &e)
{
    std::printf("{\"policy\": \"%s\", \"cpu_j\": %.17g, "
                "\"dram_j\": %.17g, \"platform_j\": %.17g, "
                "\"total_j\": %.17g}\n",
                policy, e.total.cpu, e.total.dram, e.total.platform,
                e.total.total());
}

} // namespace

int
main(int argc, char **argv)
{
    const bool json = bench::jsonFlag(argc, argv);
    setQuiet(true);
    FleetEnergy timer = runOnce(false);
    FleetEnergy adaptive = runOnce(true);
    if (json) {
        printJson("delay_timer", timer);
        printJson("adaptive", adaptive);
        return 0;
    }
    std::printf("== Figure 9: per-server energy breakdown ==\n");
    print("delay-timer based power management", timer);
    print("workload-adaptive sleep policy", adaptive);
    std::printf("adaptive saving over delay-timer: %.1f%%\n",
                100.0 *
                    (1.0 - adaptive.total.total() /
                               timer.total.total()));
    return 0;
}
