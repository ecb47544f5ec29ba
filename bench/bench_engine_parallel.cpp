/**
 * @file
 * Acceptance bench for the parallel campaign runner and the dense
 * flow-reshare rewrite.
 *
 * Part 1 runs the same (tau sweep x 8 replica) farm grid twice on
 * the CampaignRunner -- sequentially (jobs=1) and on N threads
 * (jobs=N) -- and REQUIRES every per-replica metric to be
 * bit-identical between the two runs (exit 1 otherwise; CI runs
 * this). The wall-clock ratio of the two runs is the speedup.
 *
 * Part 2 replays the same flow-activation churn through the current
 * dense-indexed FlowManager solve and through a reference
 * re-implementation of the previous algorithm (per-round std::map
 * lookups for capacity/users/bottleneck membership), and reports
 * microseconds per reshare for both.
 *
 * Part 3 measures the dirty-set scope FlowManager picks for itself:
 * a standing flow population is bulk-loaded on a fat tree, then a
 * churn of abort+start updates is replayed through one FlowManager,
 * reporting microseconds per update, the mean dirty set per resolve
 * and the fraction of resolves that went global. Rack-local
 * populations (10k / 100k / 1M concurrent) keep every component at
 * one rack, so the solver should re-solve that rack only: the
 * lazy-invalidation win. A dense point of 100 inter-pod fan-out
 * flows on fatTree(8) ties every flow into one component, where the
 * walk is overhead and the solver should go global.
 *
 * Usage: bench_engine_parallel [--json=FILE] [--jobs=N]
 *                              [--churn-max=FLOWS] [--churn-only]
 *
 * --churn-only skips parts 1 and 2 (and JSON output) for quick
 * iteration on the churn points.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hh"
#include "exp/campaign.hh"
#include "exp/parallel_for.hh"
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

// ---------------------------------------- part 1: the campaign runner

const Tick taus[] = {250 * msec, 1000 * msec};
constexpr std::size_t n_replicas = 8;

MetricRow
farmCell(std::size_t point, std::uint64_t seed)
{
    bench::FarmParams p;
    p.nServers = 50;
    p.nCores = 4;
    p.duration = 20 * sec;
    p.tau = taus[point];
    p.seed = seed;
    bench::FarmResult r = bench::runFarm(p);
    return {
        {"energy_j", r.energy},
        {"mean_latency_s", r.meanLatencySec},
        {"p95_s", r.p95Sec},
        {"p99_s", r.p99Sec},
        {"jobs", static_cast<double>(r.jobs)},
        {"sim_seconds", r.simSeconds},
    };
}

/** Bitwise comparison: even sign-of-zero or NaN payloads must agree. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
recordsIdentical(const std::vector<ReplicaRecord> &a,
                 const std::vector<ReplicaRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].point != b[i].point || a[i].replica != b[i].replica ||
            a[i].seed != b[i].seed ||
            a[i].metrics.size() != b[i].metrics.size())
            return false;
        for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
            if (a[i].metrics[m].first != b[i].metrics[m].first ||
                !sameBits(a[i].metrics[m].second,
                          b[i].metrics[m].second))
                return false;
        }
    }
    return true;
}

// ---------------------------------------- part 2: reshare before/after

/**
 * The pre-rewrite reshare data layout: capacity, user counts and the
 * per-round bottleneck set all live in ordered maps keyed by the
 * directed-link id, so every flow-hop visit pays three tree lookups.
 * Same water-filling algorithm (and same bottleneck-snapshot fix) as
 * the production code -- only the containers differ.
 */
double
mapReshare(const Topology &topo,
           const std::vector<std::vector<std::uint32_t>> &paths,
           std::size_t n_active)
{
    std::map<std::uint32_t, double> cap;
    std::map<std::uint32_t, unsigned> users;
    std::vector<std::size_t> unfrozen;
    for (std::size_t f = 0; f < n_active; ++f) {
        unfrozen.push_back(f);
        for (std::uint32_t dl : paths[f]) {
            auto [it, fresh] = cap.emplace(dl, 0.0);
            if (fresh)
                it->second = topo.link(dl / 2).rate;
            ++users[dl];
        }
    }

    double checksum = 0.0;
    while (!unfrozen.empty()) {
        double best = -1.0;
        for (std::size_t f : unfrozen) {
            for (std::uint32_t dl : paths[f]) {
                double share = cap[dl] / users[dl];
                if (best < 0.0 || share < best)
                    best = share;
            }
        }
        double tol = 1e-9 * std::max(1.0, best);
        std::set<std::uint32_t> bottleneck;
        for (std::size_t f : unfrozen) {
            for (std::uint32_t dl : paths[f]) {
                if (cap[dl] / users[dl] <= best + tol)
                    bottleneck.insert(dl);
            }
        }
        std::vector<std::size_t> next;
        for (std::size_t f : unfrozen) {
            bool frozen = false;
            for (std::uint32_t dl : paths[f]) {
                if (bottleneck.count(dl)) {
                    frozen = true;
                    break;
                }
            }
            if (!frozen) {
                next.push_back(f);
                continue;
            }
            checksum += best;
            for (std::uint32_t dl : paths[f]) {
                cap[dl] = std::max(0.0, cap[dl] - best);
                --users[dl];
            }
        }
        if (next.size() == unfrozen.size())
            break; // no progress; cannot happen with the snapshot fix
        unfrozen.swap(next);
    }
    return checksum;
}

struct ReshareTimings {
    std::size_t flows = 0;
    double dense_us = 0.0;
    double map_us = 0.0;
};

ReshareTimings
reshareChurn(std::size_t n_flows)
{
    auto topo = Topology::fatTree(8, 1e9, 5 * usec);
    StaticRouting routing(topo);

    // The same route set feeds both implementations.
    std::vector<Route> routes;
    for (std::size_t i = 0; i < n_flows; ++i)
        routes.push_back(routing.route(
            topo.serverNode(i % 128),
            topo.serverNode((i * 7 + 3) % 128), i));
    std::vector<std::vector<std::uint32_t>> paths(n_flows);
    for (std::size_t i = 0; i < n_flows; ++i) {
        for (std::size_t h = 0; h < routes[i].links.size(); ++h) {
            LinkId l = routes[i].links[h];
            bool forward = topo.link(l).a == routes[i].nodes[h];
            paths[i].push_back(static_cast<std::uint32_t>(
                l * 2 + (forward ? 1 : 0)));
        }
    }

    ReshareTimings t;
    t.flows = n_flows;

    // Dense path: every activation event triggers one production
    // reshare over the flows admitted so far.
    {
        Simulator sim;
        FlowManager mgr(sim, topo);
        double t0 = now_s();
        for (std::size_t i = 0; i < n_flows; ++i) {
            mgr.startFlow(routes[i], 1'000'000'000'000, [] {});
            sim.runUntil(0);
        }
        t.dense_us = (now_s() - t0) * 1e6 / n_flows;
    }

    // Map-based reference on the identical churn pattern.
    {
        double acc = 0.0;
        double t0 = now_s();
        for (std::size_t i = 1; i <= n_flows; ++i)
            acc += mapReshare(topo, paths, i);
        t.map_us = (now_s() - t0) * 1e6 / n_flows;
        if (acc < 0.0)
            std::printf("%f\n", acc); // keep acc observable
    }
    return t;
}

// ------------------------ part 3: flow-churn scaling (dirty-set scope)

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

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string json_path;
    unsigned jobs = defaultWorkers();
    std::size_t churn_max = 1'000'000;
    bool churn_only = false; // debug: skip parts 1+2, no JSON
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg.rfind("--jobs=", 0) == 0)
            jobs = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
        else if (arg.rfind("--churn-max=", 0) == 0)
            churn_max = static_cast<std::size_t>(
                std::strtoul(arg.c_str() + 12, nullptr, 10));
        else if (arg == "--churn-only")
            churn_only = true;
    }
    if (jobs == 0)
        jobs = defaultWorkers();

    const std::size_t points = std::size(taus);
    bool identical = true;
    double seq_s = 0.0, par_s = 0.0, speedup = 0.0;
    ReshareTimings rt;
    if (!churn_only) {
        std::printf(
            "== campaign runner: %zu points x %zu replicas ==\n",
            points, n_replicas);

        auto grid = [points](unsigned n_jobs) {
            CampaignOptions opts;
            opts.jobs = n_jobs;
            opts.replicas = n_replicas;
            opts.baseSeed = 1;
            opts.retry.maxAttempts = 1;
            return CampaignRunner(opts)
                .run(points, "engine farm grid",
                     [](std::size_t point, std::size_t,
                        std::uint64_t seed, const ReplicaLimits &) {
                         return farmCell(point, seed);
                     })
                .records;
        };

        double t0 = now_s();
        auto seq = grid(1);
        seq_s = now_s() - t0;

        t0 = now_s();
        auto par = grid(jobs);
        par_s = now_s() - t0;

        identical = recordsIdentical(seq, par);
        speedup = seq_s / par_s;
        std::printf("sequential %.2f s, parallel (%u jobs) %.2f s: "
                    "%.2fx speedup, stats %s\n",
                    seq_s, jobs, par_s, speedup,
                    identical ? "bit-identical" : "MISMATCH");

        std::printf(
            "== flow reshare: dense vs map (512-flow churn) ==\n");
        rt = reshareChurn(512);
        std::printf("dense %.1f us/reshare, map %.1f us/reshare: "
                    "%.2fx faster\n",
                    rt.dense_us, rt.map_us, rt.map_us / rt.dense_us);
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

    if (!json_path.empty() && !churn_only) {
        std::ofstream os(json_path);
        os << "{\n"
           << "  \"engine\": {\n"
           << "    \"points\": " << points << ",\n"
           << "    \"replicas\": " << n_replicas << ",\n"
           << "    \"jobs\": " << jobs << ",\n"
           << "    \"sequential_s\": " << seq_s << ",\n"
           << "    \"parallel_s\": " << par_s << ",\n"
           << "    \"speedup\": " << speedup << ",\n"
           << "    \"stats_bit_identical\": "
           << (identical ? "true" : "false") << "\n"
           << "  },\n"
           << "  \"reshare\": {\n"
           << "    \"flows\": " << rt.flows << ",\n"
           << "    \"dense_us_per_reshare\": " << rt.dense_us << ",\n"
           << "    \"map_us_per_reshare\": " << rt.map_us << ",\n"
           << "    \"speedup\": " << rt.map_us / rt.dense_us << "\n"
           << "  },\n"
           << "  \"flow_churn\": [\n";
        for (std::size_t i = 0; i < churn.size(); ++i) {
            const ChurnPoint &p = churn[i];
            os << "    {\n"
               << "      \"traffic\": \"" << p.traffic << "\",\n"
               << "      \"concurrent_flows\": " << p.flows << ",\n"
               << "      \"racks\": " << p.racks << ",\n"
               << "      \"updates\": " << p.ops << ",\n"
               << "      \"us_per_update\": " << p.us_per_update
               << ",\n"
               << "      \"mean_dirty_flows\": " << p.mean_dirty
               << ",\n"
               << "      \"global_resolve_frac\": " << p.global_frac
               << "\n"
               << "    }" << (i + 1 < churn.size() ? "," : "")
               << "\n";
        }
        os << "  ]\n"
           << "}\n";
        std::printf("results written to %s\n", json_path.c_str());
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: parallel replica stats differ "
                             "from sequential\n");
        return 1;
    }
    return 0;
}
