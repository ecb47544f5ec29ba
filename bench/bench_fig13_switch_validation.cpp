/**
 * @file
 * Reproduces paper Figures 13 and 14 (section V-B): switch power
 * validation. The paper connects 24 servers to one Cisco
 * WS-C2960-24-S (base 14.7 W, 0.23 W/port), replays a Wikipedia
 * trace under load-balanced scheduling for two hours, and compares
 * simulated vs measured switch power; it reports < 0.12 W average
 * difference with 0.04 W standard deviation, plus segments where
 * the physical switch sits slightly above the simulation (Fig 14b).
 *
 * The physical switch here is the reference-noise model of
 * DESIGN.md section 3. The bench prints the residual statistics and
 * two representative segments (the Figure 14 views).
 *
 * Usage: bench_fig13_switch_validation [--json]
 *   --json  print the residual statistics as one JSON object (powers
 *           in watts, at full precision) instead of the report
 * tests/paper/fig13_switch_validation.py gates the --json output.
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "dc/metrics.hh"
#include "dc/validation.hh"
#include "sim/logging.hh"

using namespace holdcsim;

int
main(int argc, char **argv)
{
    const bool json = bench::jsonFlag(argc, argv);
    setQuiet(true);

    DataCenterConfig cfg;
    cfg.nServers = 24;
    cfg.nCores = 4;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.switchProfile = SwitchPowerProfile::cisco2960_24();
    cfg.dispatch = DataCenterConfig::Dispatch::leastLoaded;
    // Two-tier requests (front end -> backend) whose results cross
    // the switch, so port/line-card activity -- and hence switch
    // power -- tracks the offered load.
    cfg.taskAntiAffinity = true;
    cfg.seed = 13;
    DataCenter dc(cfg);

    // Wikipedia-like arrivals for a 2-hour window.
    const Tick duration = 7200 * sec;
    WikipediaTraceParams wp;
    wp.duration = duration;
    wp.baseRate = 40.0;
    wp.diurnalPeriod = 3600 * sec;
    wp.diurnalAmplitude = 0.5;
    auto arrivals = makeWikipediaTrace(wp, dc.makeRng("wiki"));
    auto front = std::make_shared<ExponentialService>(
        2 * msec, dc.makeRng("svc.front"));
    auto back = std::make_shared<ExponentialService>(
        10 * msec, dc.makeRng("svc.back"));
    ChainJobGenerator jobs({front, back}, {0, 0},
                           /*transfer_bytes=*/2'000'000);
    dc.pumpTrace(std::move(arrivals), jobs);

    Switch &sw = dc.network()->switchAt(0);
    PhysicalPowerModel phys([&] { return sw.power(); },
                            switchMeasurementNoise(),
                            dc.makeRng("measurement"));
    GaugeSampler sim_trace(dc.sim(), [&] { return sw.power(); },
                           1 * sec, "simSwitchPower");
    GaugeSampler phys_trace(dc.sim(), [&] { return phys.sample(); },
                            1 * sec, "physSwitchPower");
    sim_trace.start();
    phys_trace.start();
    dc.runUntil(duration);
    sim_trace.stop();
    phys_trace.stop();
    dc.run();

    auto cmp = compareTraces(phys_trace.series(), sim_trace.series());
    if (json) {
        std::printf("{\"samples\": %zu, \"sim_mean_w\": %.17g, "
                    "\"phys_mean_w\": %.17g, \"mean_diff_w\": %.17g, "
                    "\"stddev_diff_w\": %.17g}\n",
                    cmp.points, sim_trace.mean(), phys_trace.mean(),
                    cmp.meanDiff, cmp.stddevDiff);
        return 0;
    }
    std::printf("== Figures 13/14: switch power validation ==\n");
    std::printf("samples            : %zu (1 Hz over %.0f min)\n",
                cmp.points, toSeconds(duration) / 60.0);
    std::printf("simulated mean     : %.2f W\n", sim_trace.mean());
    std::printf("physical mean      : %.2f W\n", phys_trace.mean());
    std::printf("avg difference     : %.3f W   [paper: < 0.12 W]\n",
                cmp.meanDiff);
    std::printf("stddev of residual : %.3f W   [paper: ~0.04 W]\n",
                cmp.stddevDiff);

    auto segment = [&](const char *title, std::size_t from_min) {
        std::printf("\n%s\n", title);
        std::printf("time_min  physical_W  simulated_W\n");
        for (std::size_t m = from_min; m < from_min + 10; m += 2) {
            std::size_t i = m * 60;
            if (i >= sim_trace.series().size())
                break;
            std::printf("%8zu  %10.2f  %11.2f\n", m,
                        phys_trace.series()[i].value,
                        sim_trace.series()[i].value);
        }
    };
    segment("segment 1 (80-100 min, Figure 14a view):", 80);
    segment("segment 2 (40-60 min, Figure 14b view):", 40);
    return 0;
}
