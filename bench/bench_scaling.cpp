/**
 * @file
 * Two scaling curves that perfbench's fixed workloads cannot draw.
 * It prints a table, writes no file and checks nothing: every
 * correctness gate lives in ctest.
 *
 * Flow churn: a standing flow population is bulk-loaded on a fat
 * tree, then a churn of abort+start updates is replayed through one
 * FlowManager, reporting microseconds per update, the mean dirty set
 * per resolve and the fraction of resolves that went global.
 * Rack-local populations (10k / 100k / 1M concurrent) keep every
 * component at one rack, so the solver should re-solve that rack
 * only: the lazy-invalidation win. A dense point of 100 inter-pod
 * fan-out flows on fatTree(8) ties every flow into one component,
 * where the walk is overhead and the solver should go global.
 *
 * PDES: an 8-pod PodCluster with cross-pod request forwarding and a
 * 1 ms inter-pod latency (the lookahead) runs on the sequential
 * kernel and on 1/2/4 partitions of the conservative parallel kernel
 * (src/sim/pdes), reporting events/s, the speedup over the
 * sequential kernel on this host, and the window-protocol counters.
 *
 * Usage: bench_scaling [--churn-max=FLOWS]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "dc/pod_cluster.hh"
#include "network/flow_manager.hh"
#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------- flow churn (dirty-set scope scaling)

struct ChurnPoint {
    const char *traffic = "";
    std::size_t flows = 0;
    std::size_t racks = 0;
    std::size_t ops = 0;
    double us_per_update = 0.0;
    std::uint64_t mean_dirty = 0;
    double global_frac = 0.0;
};

/**
 * Rack-local routes on an Al-Fares fat tree of parameter @p k:
 * flow j connects two servers under the same edge switch, cycling
 * through all racks and intra-rack partners. The connected component
 * for any one update is therefore a single rack's flow set.
 */
std::vector<Route>
rackLocalRoutes(const Topology &topo, StaticRouting &routing,
                unsigned k, std::size_t n_flows)
{
    const std::size_t per_rack = k / 2;
    const std::size_t n_srv = topo.numServers();
    std::vector<Route> routes;
    routes.reserve(n_flows);
    for (std::size_t j = 0; j < n_flows; ++j) {
        std::size_t src = j % n_srv;
        std::size_t rack_base = src - src % per_rack;
        std::size_t offset =
            1 + (j / n_srv) % (per_rack - 1); // never 0: dst != src
        std::size_t dst =
            rack_base + (src - rack_base + offset) % per_rack;
        routes.push_back(routing.route(topo.serverNode(src),
                                       topo.serverNode(dst), j));
    }
    return routes;
}

/**
 * Inter-pod fan-out routes on an Al-Fares fat tree of parameter
 * @p k, the shape of perfbench's fattree_fanout: each group of four
 * flows leaves one server for four servers in four other pods. The
 * shared uplinks and the core tier tie (nearly) every flow into one
 * component.
 */
std::vector<Route>
interPodRoutes(const Topology &topo, StaticRouting &routing,
               unsigned k, std::size_t n_flows)
{
    const std::size_t per_pod = (k / 2) * (k / 2);
    const std::size_t n_srv = topo.numServers();
    std::vector<Route> routes;
    routes.reserve(n_flows);
    for (std::size_t j = 0; j < n_flows; ++j) {
        std::size_t src = (j / 4) * 5 % n_srv;
        std::size_t dst = (src + per_pod * (1 + j % (k - 1))) % n_srv;
        routes.push_back(routing.route(topo.serverNode(src),
                                       topo.serverNode(dst), j));
    }
    return routes;
}

/**
 * Bulk-load the standing population, then replay @p p.ops
 * abort+start updates through one FlowManager and fill in @p p's
 * cost and scope figures.
 */
void
churnRun(ChurnPoint &p, const Topology &topo,
         const std::vector<Route> &routes)
{
    Simulator sim;
    FlowManager model(sim, topo);

    constexpr Bytes huge = 1'000'000'000'000'000; // completions far out
    std::vector<FlowId> ids(routes.size());
    double t_load = now_s();
    model.beginBulkLoad();
    for (std::size_t i = 0; i < routes.size(); ++i)
        ids[i] = model.startFlow(routes[i], huge, [] {});
    sim.runUntil(0);
    model.endBulkLoad();
    std::printf("    %zu flows bulk-loaded in %.1f s\n", routes.size(),
                now_s() - t_load);
    std::fflush(stdout);

    NetSolverStats before = model.solverStats();
    double t0 = now_s();
    for (std::size_t op = 0; op < p.ops; ++op) {
        std::size_t i = op % ids.size();
        model.abortFlow(ids[i]);
        ids[i] = model.startFlow(routes[i], huge, [] {});
        sim.runUntil(sim.curTick());
    }
    p.us_per_update = (now_s() - t0) * 1e6 / p.ops;
    std::printf("    %zu updates in %.1f s\n", p.ops, now_s() - t0);
    std::fflush(stdout);
    const NetSolverStats &after = model.solverStats();
    std::uint64_t resolves = after.resolves - before.resolves;
    if (resolves > 0) {
        p.mean_dirty =
            (after.resolvedFlows - before.resolvedFlows) / resolves;
        p.global_frac = static_cast<double>(after.globalResolves -
                                            before.globalResolves) /
                        static_cast<double>(resolves);
    }
}

ChurnPoint
churnPoint(std::size_t n_flows, bool inter_pod = false)
{
    // 1M concurrent flows get the bigger fabric (1024 servers, 128
    // racks); the smaller points use fatTree(8) (128 servers, 32
    // racks).
    const unsigned k = n_flows >= 1'000'000 ? 16 : 8;
    auto topo = Topology::fatTree(k, 1e9, 5 * usec);
    StaticRouting routing(topo);
    auto routes = inter_pod
                      ? interPodRoutes(topo, routing, k, n_flows)
                      : rackLocalRoutes(topo, routing, k, n_flows);

    ChurnPoint p;
    p.traffic = inter_pod ? "inter_pod" : "rack_local";
    p.flows = n_flows;
    p.racks = topo.numServers() / (k / 2);
    p.ops = n_flows >= 1'000'000 ? 4
            : n_flows >= 100'000 ? 16
            : n_flows >= 10'000  ? 64
                                 : 4096;
    churnRun(p, topo, routes);
    return p;
}

// ------------------------------------ PDES (partition-count scaling)

struct PdesRun {
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
    pdes::WindowScheduler::Stats stats;

    double eventsPerSec() const
    {
        return wallSeconds > 0.0 ? double(events) / wallSeconds : 0.0;
    }
};

PdesRun
runPods(const PodClusterConfig &cfg, unsigned partitions)
{
    PodCluster cluster(cfg, partitions);
    double start = now_s();
    cluster.run();
    PdesRun r;
    r.wallSeconds = now_s() - start;
    r.events = cluster.eventsTotal();
    r.stats = cluster.pdesStats();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::size_t churn_max = 1'000'000;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--churn-max=", 0) == 0) {
            churn_max = std::strtoull(arg.c_str() + 12, nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: bench_scaling [--churn-max=FLOWS]\n");
            return 2;
        }
    }

    std::printf("== flow churn: solver-picked dirty-set scope ==\n");
    std::vector<ChurnPoint> churn;
    churn.push_back(churnPoint(100, /*inter_pod=*/true));
    for (std::size_t n : {std::size_t{10'000}, std::size_t{100'000},
                          std::size_t{1'000'000}}) {
        if (n <= churn_max)
            churn.push_back(churnPoint(n));
    }
    for (const ChurnPoint &p : churn) {
        std::printf("%8zu %s flows (%zu racks): %.1f us/update, mean "
                    "dirty set %llu flows, %.1f%% of resolves "
                    "global\n",
                    p.flows, p.traffic, p.racks, p.us_per_update,
                    static_cast<unsigned long long>(p.mean_dirty),
                    100.0 * p.global_frac);
    }

    PodClusterConfig cfg;
    cfg.pods = 8;
    cfg.requestsPerPod = 6'000;
    cfg.arrivalRate = 1'500.0;
    cfg.forwardProbability = 0.3;
    // A metro-scale 1 ms inter-pod latency: wide windows amortize the
    // barrier. The conservative protocol is latency-bound by design;
    // at the 20 us default the barrier dominates.
    cfg.interPodLatency = 1 * msec;
    cfg.statsHorizon = 6 * sec;
    cfg.seed = 7;

    std::printf("== pdes: %u pods, %zu req/pod, 1 ms lookahead, "
                "host_cpus=%u ==\n",
                cfg.pods, cfg.requestsPerPod,
                std::thread::hardware_concurrency());
    const PdesRun seq = runPods(cfg, 0);
    std::printf("sequential: %.0f ev/s (%llu events)\n",
                seq.eventsPerSec(),
                static_cast<unsigned long long>(seq.events));
    for (unsigned parts : {1u, 2u, 4u}) {
        const PdesRun r = runPods(cfg, parts);
        std::printf("partitions=%u: %.0f ev/s (%.2fx), %llu windows, "
                    "%llu messages, %llu fast-forwards, blocked "
                    "%.0f%%\n",
                    parts, r.eventsPerSec(),
                    r.eventsPerSec() / seq.eventsPerSec(),
                    static_cast<unsigned long long>(r.stats.windows),
                    static_cast<unsigned long long>(r.stats.messages),
                    static_cast<unsigned long long>(
                        r.stats.fastForwards),
                    100.0 * r.stats.blockedFraction());
    }
    return 0;
}
