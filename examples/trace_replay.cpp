/**
 * @file
 * Trace-driven simulation example: replay an arrival trace file
 * against a configurable data center (INI config), print latency
 * percentiles, per-server energy and an optional power trace --
 * the workflow the paper's validation experiments use.
 *
 * Usage:
 *   trace_replay [config.ini [trace.txt]]
 *
 * Without arguments, a built-in NLANR-like synthetic trace and a
 * default configuration are used so the example is self-contained.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "dc/datacenter.hh"
#include "dc/metrics.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

using namespace holdcsim;

int
main(int argc, char **argv)
{
    DataCenterConfig cfg;
    if (argc > 1) {
        // Profiles come with the rest: [server_power] and
        // [switch_power] overrides apply here as in holdcsim_cli.
        Config ini = Config::load(argv[1]);
        warnUnknownConfigKeys(ini);
        cfg = DataCenterConfig::fromConfig(ini);
    } else {
        cfg.nServers = 10;
        cfg.nCores = 4;
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = 1 * sec;
    }
    DataCenter dc(cfg);

    std::vector<Tick> arrivals;
    if (argc > 2) {
        arrivals = loadArrivalTrace(argv[2]);
    } else {
        NlanrTraceParams np;
        np.duration = 300 * sec;
        np.baseRate = 400.0;
        arrivals = makeNlanrTrace(np, dc.makeRng("nlanr"));
    }
    std::printf("# replaying %zu arrivals over %.1f s on %u servers\n",
                arrivals.size(),
                arrivals.empty() ? 0.0 : toSeconds(arrivals.back()),
                cfg.nServers);

    auto service = std::make_shared<BoundedParetoService>(
        1.5, 1 * msec, 200 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(service);

    GaugeSampler power(dc.sim(), [&] { return dc.serverPower(); },
                       1 * sec, "fleetPower");
    power.start();
    dc.pumpTrace(std::move(arrivals), jobs);
    dc.run();
    power.stop();
    dc.finishStats();

    const auto &lat = dc.scheduler().jobLatency();
    std::printf("jobs        : %llu\n",
                static_cast<unsigned long long>(
                    dc.scheduler().jobsCompleted()));
    std::printf("latency ms  : mean %.2f  p50 %.2f  p90 %.2f  "
                "p99 %.2f\n",
                lat.mean() * 1e3, lat.p50() * 1e3, lat.p90() * 1e3,
                lat.p99() * 1e3);

    auto fleet = dc.energy();
    std::printf("energy J    : total %.0f\n", fleet.total.total());
    for (std::size_t i = 0; i < fleet.perServer.size(); ++i) {
        std::printf("  server %2zu : cpu %7.1f  dram %6.1f  "
                    "platform %7.1f\n",
                    i, fleet.perServer[i].cpu, fleet.perServer[i].dram,
                    fleet.perServer[i].platform);
    }
    std::printf("power trace : %zu samples, mean %.1f W\n",
                power.series().size(), power.mean());
    return 0;
}
