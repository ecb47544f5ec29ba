/**
 * @file
 * A three-tier web service on typed servers (paper section III-C:
 * "servers in the simulated environment can be configured to perform
 * different tasks ... a web request can be modeled as two sequential
 * tasks, one serviced by the application server and another
 * corresponding to queries sent to database servers").
 *
 * The fleet is partitioned into web, application and database tiers
 * via task-type restrictions; each request is a chain
 * web -> app -> db whose inter-tier results cross a star fabric.
 * The example prints the request latency percentiles and per-tier
 * utilization.
 *
 * --queue=heap|calendar selects the event-queue backend. Both pop in
 * the same order, so stdout is identical and timing alternating runs
 * of the two measures the calendar queue end to end (README
 * "Performance"). The governor timers always ride the simulator's
 * timer wheel; --timer-mode=wheel sets its bucket width to
 * --wheel-granularity-us (under one tick means exact 1-tick firing,
 * the events-mode default) and prints its profile.wheel.* stats
 * under --profile. --profile attaches the layer probe (telemetry/layer_probe.hh)
 * and prints its profile.* stats, hot-events table and per-layer
 * host-time split, as holdcsim_cli --profile does. The probe counts
 * every event but times only one in LayerProbe::timingStride, which
 * keeps its cost to a few percent of the plain run (README
 * "Observability").
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "dc/datacenter.hh"
#include "telemetry/layer_probe.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

constexpr int webTier = 1;
constexpr int appTier = 2;
constexpr int dbTier = 3;

} // namespace

int
main(int argc, char **argv)
{
    bool profile_on = false;
    auto backend = EventQueue::Backend::calendar;
    bool use_wheel = false;
    Tick wheel_granularity = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--profile") {
            profile_on = true;
        } else if (arg == "--queue=heap") {
            backend = EventQueue::Backend::binaryHeap;
        } else if (arg == "--queue=calendar") {
            backend = EventQueue::Backend::calendar;
        } else if (arg == "--timer-mode=wheel") {
            use_wheel = true;
        } else if (arg == "--timer-mode=events") {
            use_wheel = false;
        } else if (arg.rfind("--wheel-granularity-us=", 0) == 0) {
            const double ticks =
                std::stod(arg.substr(23)) * static_cast<double>(usec);
            wheel_granularity =
                ticks < 1.0 ? 1 : static_cast<Tick>(ticks);
        } else {
            std::fprintf(stderr,
                         "usage: three_tier [--profile] "
                         "[--queue=heap|calendar] "
                         "[--timer-mode=events|wheel] "
                         "[--wheel-granularity-us=N]\n");
            return 2;
        }
    }

    // 12 servers behind one switch; tiers are assigned by task type
    // (DataCenter builds untyped servers, so build this fleet by
    // hand to show the lower-level API).
    Simulator sim(backend, use_wheel ? wheel_granularity : 1);
    ServerPowerProfile profile;
    Topology topo = Topology::star(12, 1e9, 5 * usec);
    Network net(sim, std::move(topo),
                SwitchPowerProfile::cisco2960_24());

    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    for (unsigned i = 0; i < 12; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 4;
        // 4 web, 4 app, 4 db servers.
        cfg.taskTypes = {i < 4 ? webTier : i < 8 ? appTier : dbTier};
        auto server = std::make_unique<Server>(sim, cfg, profile);
        servers.push_back(server.get());
        owned.push_back(std::move(server));
    }

    GlobalScheduler sched(sim, servers,
                          std::make_unique<LeastLoadedPolicy>(), {},
                          &net);

    // Request = 1 ms web + 4 ms app + 8 ms db, shipping 64 kB
    // between tiers.
    auto web = std::make_shared<ExponentialService>(1 * msec,
                                                    Rng(17, "web"));
    auto app = std::make_shared<ExponentialService>(4 * msec,
                                                    Rng(17, "app"));
    auto db = std::make_shared<ExponentialService>(8 * msec,
                                                   Rng(17, "db"));
    ChainJobGenerator requests({web, app, db},
                               {webTier, appTier, dbTier}, 64 * 1024);

    PoissonArrival arrivals(600.0, Rng(17, "arrivals"));
    const std::size_t n_requests = 20'000;
    std::size_t injected = 0;
    // Named like DataCenter's pump, so the probe books it to sched.
    EventFunctionWrapper inject(
        [&] {
            sched.submitJob(requests.makeJob(sim.curTick()));
            if (++injected < n_requests)
                sim.schedule(inject, arrivals.nextArrival());
        },
        "pump.arrival");
    sim.schedule(inject, arrivals.nextArrival());

    LayerProbe probe;
    if (profile_on)
        sim.setProbe(&probe);
    sim.run();

    std::printf("simulated time     : %.2f s\n",
                toSeconds(sim.curTick()));
    std::printf("requests completed : %llu\n",
                static_cast<unsigned long long>(
                    sched.jobsCompleted()));
    const auto &lat = sched.jobLatency();
    std::printf("request latency ms : mean %.2f  p50 %.2f  p95 %.2f  "
                "p99 %.2f\n",
                lat.mean() * 1e3, lat.p50() * 1e3, lat.p95() * 1e3,
                lat.p99() * 1e3);
    std::printf("inter-tier flows   : %llu\n",
                static_cast<unsigned long long>(
                    sched.transfersStarted()));

    const char *tier_names[] = {"web", "app", "db "};
    for (int tier = 0; tier < 3; ++tier) {
        std::uint64_t tasks = 0;
        double busy = 0.0;
        for (int s = tier * 4; s < (tier + 1) * 4; ++s) {
            servers[s]->finishStats();
            tasks += servers[s]->tasksCompleted();
            for (unsigned c = 0; c < 4; ++c) {
                busy += servers[s]->core(c).residency().fraction(
                    static_cast<int>(CoreCState::c0Active));
            }
        }
        std::printf("tier %s            : %llu tasks, core "
                    "utilization %.1f%%\n",
                    tier_names[tier],
                    static_cast<unsigned long long>(tasks),
                    100.0 * busy / 16.0);
    }

    if (profile_on)
        probe.dump(std::cout, sim.eventQueue(),
                   use_wheel ? &sim.timerWheel() : nullptr);
    return 0;
}
