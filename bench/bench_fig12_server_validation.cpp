/**
 * @file
 * Reproduces paper Figure 12 (section V-A): server power
 * validation. The paper replays an NLANR web trace against a
 * physical 10-core Xeon E5-2680 (RAPL package power, C0/C6
 * enabled) and against HolDCSim, then compares the two power
 * traces; it reports a 0.22 W average difference (~1.3%) and a
 * ~1.5 W standard deviation attributed to OS background activity.
 *
 * Here the physical machine is a reference model: the same
 * simulated server plus the measured-residual process (DESIGN.md
 * section 3). The bench prints both 1 Hz power traces (snippet) and
 * the residual statistics.
 *
 * Usage: bench_fig12_server_validation [--json]
 *   --json  print the residual statistics as one JSON object (powers
 *           in watts, at full precision) instead of the report
 * tests/paper/fig12_server_validation.py gates the --json output.
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
    cfg.nServers = 1;
    cfg.nCores = 10;
    // RAPL scope: package power only, as measured in the paper.
    cfg.serverProfile = ServerPowerProfile::xeonE5_2680RaplOnly();
    cfg.seed = 12;
    DataCenter dc(cfg);

    // NLANR-like web request arrivals, heavy-tailed service.
    NlanrTraceParams np;
    np.duration = 1000 * sec;
    np.baseRate = 600.0;
    auto arrivals = makeNlanrTrace(np, dc.makeRng("nlanr"));
    auto svc = std::make_shared<BoundedParetoService>(
        1.5, 1 * msec, 100 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(svc);
    dc.pumpTrace(std::move(arrivals), jobs);

    // 1 Hz samplers: the simulator trace and the "physical" trace.
    PhysicalPowerModel phys([&] { return dc.server(0).power(); },
                            serverMeasurementNoise(),
                            dc.makeRng("measurement"));
    GaugeSampler sim_trace(dc.sim(),
                           [&] { return dc.server(0).power(); },
                           1 * sec, "simPower");
    GaugeSampler phys_trace(dc.sim(), [&] { return phys.sample(); },
                            1 * sec, "physPower");
    sim_trace.start();
    phys_trace.start();
    dc.runUntil(np.duration);
    sim_trace.stop();
    phys_trace.stop();
    dc.run();

    auto cmp = compareTraces(phys_trace.series(), sim_trace.series());
    double sim_mean = sim_trace.mean();
    if (json) {
        std::printf("{\"samples\": %zu, \"sim_mean_w\": %.17g, "
                    "\"phys_mean_w\": %.17g, \"mean_diff_w\": %.17g, "
                    "\"stddev_diff_w\": %.17g}\n",
                    cmp.points, sim_mean, phys_trace.mean(),
                    cmp.meanDiff, cmp.stddevDiff);
        return 0;
    }
    std::printf("== Figure 12: server power validation ==\n");
    std::printf("samples            : %zu (1 Hz)\n", cmp.points);
    std::printf("simulated mean     : %.2f W\n", sim_mean);
    std::printf("physical mean      : %.2f W\n", phys_trace.mean());
    std::printf("avg difference     : %.2f W (%.1f%%)   "
                "[paper: 0.22 W, ~1.3%%]\n",
                cmp.meanDiff, 100.0 * cmp.meanDiff / sim_mean);
    std::printf("stddev of residual : %.2f W          "
                "[paper: ~1.5 W]\n",
                cmp.stddevDiff);

    std::printf("\ntrace snippet (100-110 s):\n");
    std::printf("time_s  physical_W  simulated_W\n");
    for (std::size_t i = 100; i < 110 &&
                              i < sim_trace.series().size();
         ++i) {
        std::printf("%6.0f  %10.2f  %11.2f\n",
                    toSeconds(phys_trace.series()[i].when),
                    phys_trace.series()[i].value,
                    sim_trace.series()[i].value);
    }
    return 0;
}
