/**
 * @file
 * Tests for FlowManager's self-chosen dirty-set scope (the changed
 * flow's component, or every active flow) and its fast path.
 *
 * Whichever scope a change takes, the rates it leaves must be the
 * global max-min allocation: ModelEquivalence checks every active
 * flow against an in-test from-scratch water-filling after every
 * event tick, to 1e-9 relative, and compares completion ticks of a
 * replay steered into the component scope with one left alone.
 * FlowScope checks the scope choice itself on the populations the
 * rule was tuned on. FastPath and SolverAbort run under both scopes,
 * the component-scope specifics under the component scope
 * (flow_scope.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "flow_scope.hh"
#include "network/flow_manager.hh"
#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

constexpr Tick lat = 5 * usec;

std::unique_ptr<FlowManager>
makeBackend(Simulator &sim, const Topology &topo, Bytes fast_path = 0)
{
    return std::make_unique<FlowManager>(sim, topo, fast_path);
}

/** Dense directed-link index of each hop of @p r. */
std::vector<std::size_t>
directedPath(const Topology &topo, const Route &r)
{
    std::vector<std::size_t> path;
    for (std::size_t i = 0; i < r.links.size(); ++i) {
        bool forward = topo.link(r.links[i]).a == r.nodes[i];
        path.push_back(r.links[i] * 2 + (forward ? 1 : 0));
    }
    return path;
}

/**
 * Textbook progressive filling over @p paths from scratch: raise
 * every unfrozen flow's rate together until a directed link
 * saturates, freeze the flows crossing it, repeat.
 */
std::vector<double>
waterFill(const Topology &topo,
          const std::vector<std::vector<std::size_t>> &paths)
{
    std::vector<double> cap(2 * topo.numLinks());
    std::vector<unsigned> users(cap.size(), 0);
    for (std::size_t dl = 0; dl < cap.size(); ++dl)
        cap[dl] = topo.link(dl / 2).rate;
    for (const auto &path : paths) {
        for (std::size_t dl : path)
            ++users[dl];
    }
    std::vector<double> rate(paths.size(), 0.0);
    std::vector<char> frozen(paths.size(), 0);
    for (std::size_t left = paths.size(); left > 0;) {
        double share = std::numeric_limits<double>::infinity();
        for (std::size_t dl = 0; dl < cap.size(); ++dl) {
            if (users[dl] > 0)
                share = std::min(share, cap[dl] / users[dl]);
        }
        std::vector<std::size_t> now;
        for (std::size_t f = 0; f < paths.size(); ++f) {
            if (frozen[f])
                continue;
            for (std::size_t dl : paths[f]) {
                if (cap[dl] / users[dl] <= share * (1.0 + 1e-12)) {
                    now.push_back(f);
                    break;
                }
            }
        }
        for (std::size_t f : now) {
            rate[f] = share;
            frozen[f] = 1;
            for (std::size_t dl : paths[f]) {
                cap[dl] -= share;
                --users[dl];
            }
        }
        left -= now.size();
    }
    return rate;
}

/**
 * Random connected topology: a random tree over 2-5 switches with a
 * few redundant switch-switch links, 4-10 servers attached to random
 * switches, and link rates drawn from {0.5, 1, 2, 4} Gb/s so the
 * water filling runs multiple freeze rounds.
 */
Topology
randomTopology(Rng &rng)
{
    Topology topo;
    const unsigned n_sw = 2 + rng.uniformInt(0, 3);
    const unsigned n_srv = 4 + rng.uniformInt(0, 6);
    const double rates[] = {0.5e9, 1e9, 2e9, 4e9};
    auto rate = [&] { return rates[rng.uniformInt(0, 3)]; };

    std::vector<NodeId> sw;
    for (unsigned i = 0; i < n_sw; ++i)
        sw.push_back(topo.addSwitch());
    for (unsigned i = 1; i < n_sw; ++i)
        topo.addLink(sw[rng.uniformInt(0, i - 1)], sw[i], rate(), lat);
    // Redundant trunks exercise ECMP route diversity.
    for (unsigned i = 0; i + 1 < n_sw && i < 2; ++i) {
        unsigned a = rng.uniformInt(0, n_sw - 1);
        unsigned b = rng.uniformInt(0, n_sw - 2);
        if (b >= a)
            ++b;
        topo.addLink(sw[a], sw[b], rate(), lat);
    }
    for (unsigned i = 0; i < n_srv; ++i) {
        NodeId s = topo.addServer();
        topo.addLink(s, sw[rng.uniformInt(0, n_sw - 1)], rate(), lat);
    }
    return topo;
}

/** One scripted flow: start, size, optional abort. */
struct FlowOp {
    Tick startAt;
    Route route;
    Bytes bytes;
    Tick abortAt; // 0 = never
};

/**
 * Random churn script over @p topo: flows start within 50 ms, are
 * large enough (>= 10 MB) that none completes before 5 ms, and a
 * third are aborted within (start, start + 4 ms] -- safely before
 * any completion, so abort/complete ordering cannot differ between
 * backends inside the comparison tolerance.
 */
std::vector<FlowOp>
randomScript(const Topology &topo, Rng &rng, std::size_t n_flows)
{
    StaticRouting routing(topo);
    std::vector<FlowOp> script;
    for (std::size_t i = 0; i < n_flows; ++i) {
        FlowOp op;
        std::size_t src = rng.uniformInt(0, topo.numServers() - 1);
        std::size_t dst = rng.uniformInt(0, topo.numServers() - 2);
        if (dst >= src)
            ++dst;
        op.route = routing.route(topo.serverNode(src),
                                 topo.serverNode(dst), i);
        op.bytes = 10'000'000 + 1'000'000 * rng.uniformInt(0, 40);
        op.startAt = rng.uniformInt(0, 50) * msec;
        op.abortAt = rng.uniformInt(0, 2) == 0
                         ? op.startAt + rng.uniformInt(1, 4) * msec
                         : 0;
        script.push_back(op);
    }
    return script;
}

struct RunResult {
    std::vector<Tick> doneAt; // maxTick when never completed
    std::vector<char> aborted;
    /** Solver counters the script added (the ballast's excluded). */
    NetSolverStats stats;
};

/** Long enough for every script; far short of the ballast. */
constexpr Tick replayHorizon = 1000 * sec;

/**
 * Replay @p script with the solver steered into @p scope
 * (flow_scope.hh), stepping one event tick at a time, and check
 * every active flow's rate against waterFill() after each tick.
 * Records each flow's completion tick and abort.
 */
RunResult
replayChecked(const Topology &script_topo,
              const std::vector<FlowOp> &script, test::Scope scope)
{
    Topology topo = script_topo;
    Route island = test::addIsland(topo, scope);
    Simulator sim;
    auto model = makeBackend(sim, topo);
    test::loadBallast(sim, *model, island);
    const NetSolverStats ballast = model->solverStats();

    RunResult res;
    res.doneAt.assign(script.size(), maxTick);
    res.aborted.assign(script.size(), 0);
    std::vector<FlowId> ids(script.size(), 0);
    std::vector<char> live(script.size(), 0);
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (std::size_t i = 0; i < script.size(); ++i) {
        const FlowOp &op = script[i];
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&, i] {
                live[i] = 1;
                ids[i] = model->startFlow(
                    script[i].route, script[i].bytes, [&, i] {
                        live[i] = 0;
                        res.doneAt[i] = sim.curTick();
                    });
                model->setAbortCallback(ids[i], [&, i] {
                    live[i] = 0;
                    res.aborted[i] = 1;
                });
            },
            "start"));
        sim.schedule(*events.back(), op.startAt);
        if (op.abortAt != 0) {
            events.push_back(std::make_unique<EventFunctionWrapper>(
                [&, i] { model->abortFlow(ids[i]); }, "abort"));
            sim.schedule(*events.back(), op.abortAt);
        }
    }

    while (sim.hasPendingEvents() &&
           sim.nextEventTick() < replayHorizon) {
        Tick t = sim.nextEventTick();
        sim.runUntil(t);
        std::vector<std::size_t> active;
        std::vector<std::vector<std::size_t>> paths;
        for (std::size_t i = 0; i < script.size(); ++i) {
            if (live[i]) {
                active.push_back(i);
                paths.push_back(directedPath(topo, script[i].route));
            }
        }
        std::vector<double> want = waterFill(topo, paths);
        for (std::size_t k = 0; k < active.size(); ++k) {
            double got = model->flowRate(ids[active[k]]);
            EXPECT_NEAR(got, want[k], 1e-9 * want[k])
                << "flow " << active[k] << " at tick " << t;
        }
    }
    EXPECT_EQ(model->activeFlows(),
              scope == test::Scope::fluid ? test::ballastFlows : 0u);
    test::expectScope(*model, scope);
    res.stats = model->solverStats();
    res.stats.resolves -= ballast.resolves;
    res.stats.resolvedFlows -= ballast.resolvedFlows;
    res.stats.globalResolves -= ballast.globalResolves;
    return res;
}

} // namespace

// ------------------------------------------------- differential equivalence

class ModelEquivalence : public ::testing::TestWithParam<std::uint64_t>
{};

/**
 * On random topologies under random churn, a replay steered into the
 * component scope ("fluid") and one left to its own choice (mostly
 * global, "exact") both leave the from-scratch max-min rates after
 * every tick, and their completion ticks agree within 2 ticks + 1e-6
 * relative (settles round differently per scope).
 */
TEST_P(ModelEquivalence, FluidMatchesExactWithinTolerance)
{
    Rng rng(GetParam());
    Topology topo = randomTopology(rng);
    auto script = randomScript(topo, rng, 24);

    RunResult exact = replayChecked(topo, script, test::Scope::exact);
    RunResult fluid = replayChecked(topo, script, test::Scope::fluid);

    for (std::size_t i = 0; i < script.size(); ++i) {
        SCOPED_TRACE("flow " + std::to_string(i));
        ASSERT_EQ(exact.aborted[i], fluid.aborted[i]);
        ASSERT_NE(exact.doneAt[i] == maxTick, exact.aborted[i] == 0)
            << "a flow neither completed nor was aborted";
        if (exact.doneAt[i] == maxTick) {
            EXPECT_EQ(fluid.doneAt[i], maxTick);
            continue;
        }
        double tol =
            2.0 + 1e-6 * static_cast<double>(exact.doneAt[i]);
        EXPECT_NEAR(static_cast<double>(exact.doneAt[i]),
                    static_cast<double>(fluid.doneAt[i]), tol);
    }
    // The component scope re-solves a subset per change, never more.
    EXPECT_LE(fluid.stats.resolvedFlows, exact.stats.resolvedFlows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

/** Left to itself, the solver takes both scopes on these seeds. */
TEST(ModelEquivalenceSeeds, TakeBothScopes)
{
    std::uint64_t resolves = 0, global = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        Topology topo = randomTopology(rng);
        RunResult run = replayChecked(
            topo, randomScript(topo, rng, 24), test::Scope::exact);
        resolves += run.stats.resolves;
        global += run.stats.globalResolves;
    }
    EXPECT_GT(global, 0u);
    EXPECT_LT(global, resolves);
}

// ------------------------------------------------------------ fast path

namespace {

/**
 * The fast path bypasses the solver whichever scope it would take;
 * run each case under both (flow_scope.hh).
 */
class FastPath : public ::testing::TestWithParam<test::Scope>
{};

/** Long enough for every scenario below, far short of the ballast. */
constexpr Tick horizon = 10 * sec;

} // namespace

TEST_P(FastPath, ShortTransferCompletesAnalytically)
{
    Topology topo = Topology::star(4, 1e9, lat);
    Route island = test::addIsland(topo, GetParam());
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));

    Simulator sim;
    auto model = makeBackend(sim, topo, /*fast_path=*/64 * 1024);
    test::loadBallast(sim, *model, island);
    const std::uint64_t resolves = model->solverStats().resolves;
    const Bytes bytes = 1500;
    const Tick start_delay = 3 * usec;
    Tick done_at = 0;
    model->startFlow(r, bytes, [&] { done_at = sim.curTick(); },
                     start_delay);
    sim.runUntil(horizon);

    EXPECT_EQ(done_at, start_delay + fastPathDuration(topo, r, bytes));
    EXPECT_EQ(model->flowsCompleted(), 1u);
    EXPECT_EQ(model->solverStats().fastPathHits, 1u);
    EXPECT_EQ(model->solverStats().resolves, resolves);
}

TEST_P(FastPath, LargeTransferStillUsesSolver)
{
    Topology topo = Topology::star(4, 1e9, lat);
    Route island = test::addIsland(topo, GetParam());
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));

    Simulator sim;
    auto model = makeBackend(sim, topo, /*fast_path=*/1024);
    test::loadBallast(sim, *model, island);
    const std::uint64_t resolves = model->solverStats().resolves;
    Tick done_at = 0;
    model->startFlow(r, 125'000'000,
                     [&] { done_at = sim.curTick(); });
    sim.runUntil(horizon);

    // 1 Gb at 1 Gb/s: about one second, via the solver.
    EXPECT_NEAR(toSeconds(done_at), 1.0, 0.01);
    EXPECT_EQ(model->solverStats().fastPathHits, 0u);
    EXPECT_GE(model->solverStats().resolves, resolves + 1);
    test::expectScope(*model, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Tiers, FastPath,
                         ::testing::Values(test::Scope::exact,
                                           test::Scope::fluid),
                         [](const auto &info) {
                             return test::scopeName(info.param);
                         });

// ----------------------------------------------------- structured aborts

namespace {

class SolverAbort : public ::testing::TestWithParam<test::Scope>
{};

} // namespace

/**
 * An infinite-capacity link makes every share infinite: the solver
 * can find no bottleneck and must abort with a structured dump
 * naming the offending flow instead of a bare panic.
 */
TEST_P(SolverAbort, NoBottleneckAbortsWithDiagnostic)
{
    Topology topo;
    NodeId a = topo.addServer(), b = topo.addServer();
    LinkId inf =
        topo.addLink(a, b, std::numeric_limits<double>::infinity(), lat);
    Route island = test::addIsland(topo, GetParam());
    Route r;
    r.links = {inf};
    r.nodes = {a, b};

    Simulator sim;
    auto model = makeBackend(sim, topo);
    test::loadBallast(sim, *model, island);
    FlowId f = model->startFlow(r, 1'000'000, [] {});
    try {
        sim.runUntil(horizon);
        FAIL() << "expected SimAbortError";
    } catch (const SimAbortError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("no bottleneck"), std::string::npos)
            << what;
        EXPECT_NE(what.find("flow " + std::to_string(f) + " "),
                  std::string::npos)
            << what;
    }
    test::expectScope(*model, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Tiers, SolverAbort,
                         ::testing::Values(test::Scope::exact,
                                           test::Scope::fluid),
                         [](const auto &info) {
                             return test::scopeName(info.param);
                         });

// -------------------------------------------- component-scope specifics

namespace {

struct FluidFixture : ::testing::Test {
    Simulator sim;
};

} // namespace

TEST_F(FluidFixture, BulkLoadMatchesIncrementalActivation)
{
    Topology topo = Topology::star(8, 1e9, lat);
    Route island = test::addIsland(topo, test::Scope::fluid);
    StaticRouting routing(topo);
    std::vector<Route> routes;
    for (std::size_t i = 0; i < 12; ++i)
        routes.push_back(routing.route(topo.serverNode(i % 8),
                                       topo.serverNode((i + 3) % 8),
                                       i));

    Simulator s_bulk;
    auto bulk_model = makeBackend(s_bulk, topo);
    test::loadBallast(s_bulk, *bulk_model, island);
    const std::uint64_t bulk_resolves =
        bulk_model->solverStats().resolves;
    bulk_model->beginBulkLoad();
    std::vector<FlowId> bulk_ids;
    for (const Route &r : routes)
        bulk_ids.push_back(
            bulk_model->startFlow(r, 1'000'000'000'000, [] {}));
    s_bulk.runUntil(0); // activations fire, suppressed per-flow solve
    bulk_model->endBulkLoad();

    // The ballast keeps each incremental activation's walk to its
    // own component, so these rates come from component resolves.
    Simulator s_inc;
    auto inc_model = makeBackend(s_inc, topo);
    test::loadBallast(s_inc, *inc_model, island);
    const std::uint64_t inc_resolves = inc_model->solverStats().resolves;
    std::vector<FlowId> inc_ids;
    for (const Route &r : routes)
        inc_ids.push_back(
            inc_model->startFlow(r, 1'000'000'000'000, [] {}));
    s_inc.runUntil(0);

    for (std::size_t i = 0; i < routes.size(); ++i) {
        SCOPED_TRACE("flow " + std::to_string(i));
        EXPECT_DOUBLE_EQ(bulk_model->flowRate(bulk_ids[i]),
                         inc_model->flowRate(inc_ids[i]));
    }
    // The whole point: one resolve instead of one per activation.
    EXPECT_EQ(bulk_model->solverStats().resolves, bulk_resolves + 1);
    EXPECT_EQ(inc_model->solverStats().resolves,
              inc_resolves + routes.size());
    test::expectScope(*inc_model, test::Scope::fluid);
}

TEST_F(FluidFixture, LinkFailureInvalidatesTouchedComponent)
{
    // Dumbbell: s0--sw0==sw1--s1, plus s2--sw0, s3--sw1. Two flows
    // share the trunk; killing one via link failure must re-share
    // the trunk for the survivor.
    Topology topo;
    NodeId sw0 = topo.addSwitch(), sw1 = topo.addSwitch();
    NodeId s0 = topo.addServer(), s1 = topo.addServer();
    NodeId s2 = topo.addServer(), s3 = topo.addServer();
    LinkId l_s0 = topo.addLink(s0, sw0, 1e9, lat);
    topo.addLink(s1, sw1, 1e9, lat);
    LinkId l_s2 = topo.addLink(s2, sw0, 1e9, lat);
    topo.addLink(s3, sw1, 1e9, lat);
    LinkId trunk = topo.addLink(sw0, sw1, 1e9, lat);
    Route island = test::addIsland(topo, test::Scope::fluid);
    StaticRouting routing(topo);

    auto model = makeBackend(sim, topo);
    test::loadBallast(sim, *model, island);
    FlowId f_a = model->startFlow(routing.route(s0, s1),
                                  1'000'000'000'000, [] {});
    FlowId f_b = model->startFlow(routing.route(s2, s3),
                                  1'000'000'000'000, [] {});
    bool b_aborted = false;
    model->setAbortCallback(f_b, [&] { b_aborted = true; });
    sim.runUntil(0);
    EXPECT_NEAR(model->flowRate(f_a), 0.5e9, 1e3);
    EXPECT_NEAR(model->flowRate(f_b), 0.5e9, 1e3);
    EXPECT_NEAR(model->linkUtilization(trunk), 1.0, 1e-6);

    // s2's access link fails: flow b dies, flow a gets the trunk.
    EXPECT_EQ(model->abortFlowsOn(l_s2), 1u);
    EXPECT_TRUE(b_aborted);
    EXPECT_EQ(model->flowsAborted(), 1u);
    EXPECT_NEAR(model->flowRate(f_a), 1e9, 1e3);
    test::expectScope(*model, test::Scope::fluid);
    (void)l_s0;
}

TEST_F(FluidFixture, ZeroHopRouteCompletesAfterStartDelay)
{
    Topology topo = Topology::star(4, 1e9, lat);
    auto model = makeBackend(sim, topo);
    Tick done_at = maxTick;
    model->startFlow(Route{}, 1'000'000,
                     [&] { done_at = sim.curTick(); }, 7 * usec);
    sim.run();
    EXPECT_EQ(done_at, 7 * usec);
    EXPECT_EQ(model->solverStats().resolves, 0u);
}

TEST_F(FluidFixture, AbortFlowsOnKillsPendingFastPathFlows)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));
    ASSERT_FALSE(r.links.empty());
    LinkId first = r.links.front();

    auto model = makeBackend(sim, topo, /*fast_path=*/64 * 1024);
    bool done = false, aborted = false;
    FlowId f =
        model->startFlow(r, 1500, [&] { done = true; }, 1 * msec);
    model->setAbortCallback(f, [&] { aborted = true; });
    sim.runUntil(0);
    EXPECT_EQ(model->abortFlowsOn(first), 1u);
    sim.run();
    EXPECT_TRUE(aborted);
    EXPECT_FALSE(done);
}

// ----------------------------------------------------- scope choice

namespace {

constexpr Bytes hugeBytes = 1'000'000'000'000'000; // never completes

/**
 * Bulk-load @p routes, then replay @p ops abort+start updates and
 * return the solver counters the churn alone added.
 */
NetSolverStats
churn(const Topology &topo, const std::vector<Route> &routes,
      std::size_t ops)
{
    Simulator sim;
    FlowManager model(sim, topo);
    std::vector<FlowId> ids(routes.size());
    model.beginBulkLoad();
    for (std::size_t i = 0; i < routes.size(); ++i)
        ids[i] = model.startFlow(routes[i], hugeBytes, [] {});
    sim.runUntil(0);
    model.endBulkLoad();

    NetSolverStats before = model.solverStats();
    for (std::size_t op = 0; op < ops; ++op) {
        std::size_t i = op % ids.size();
        model.abortFlow(ids[i]);
        ids[i] = model.startFlow(routes[i], hugeBytes, [] {});
        sim.runUntil(sim.curTick());
    }
    NetSolverStats d = model.solverStats();
    d.resolves -= before.resolves;
    d.resolvedFlows -= before.resolvedFlows;
    d.globalResolves -= before.globalResolves;
    return d;
}

} // namespace

/**
 * 10k flows, each between two servers of one rack of fatTree(8): a
 * change's component is one rack (~1/32 of the flows), so no resolve
 * goes global -- in particular not the ones right after the bulk
 * load, whose all-links resolve must not start a global streak.
 */
TEST(FlowScope, RackLocalChurnAfterBulkLoadNeverGoesGlobal)
{
    const unsigned k = 8;
    const std::size_t per_rack = k / 2, n_flows = 10'000;
    Topology topo = Topology::fatTree(k, 1e9, lat);
    StaticRouting routing(topo);
    const std::size_t n_srv = topo.numServers();
    std::vector<Route> routes;
    for (std::size_t j = 0; j < n_flows; ++j) {
        std::size_t src = j % n_srv;
        std::size_t base = src - src % per_rack;
        std::size_t dst =
            base + (src - base + 1 + (j / n_srv) % (per_rack - 1)) %
                       per_rack;
        routes.push_back(routing.route(topo.serverNode(src),
                                       topo.serverNode(dst), j));
    }

    NetSolverStats ss = churn(topo, routes, 64);
    ASSERT_EQ(ss.resolves, 128u); // one per abort, one per start
    EXPECT_EQ(ss.globalResolves, 0u);
    EXPECT_LE(ss.meanDirtyFlows(), 0.05 * n_flows);
}

/**
 * 100 inter-pod fan-out flows on fatTree(8) (perfbench
 * fattree_fanout's shape): shared uplinks and the core tie nearly
 * every flow into one component, so nearly every resolve is global.
 */
TEST(FlowScope, InterPodFanOutGoesGlobal)
{
    const unsigned k = 8;
    Topology topo = Topology::fatTree(k, 1e9, lat);
    StaticRouting routing(topo);
    const std::size_t per_pod = (k / 2) * (k / 2);
    const std::size_t n_srv = topo.numServers();
    std::vector<Route> routes;
    for (std::size_t j = 0; j < 100; ++j) {
        std::size_t src = (j / 4) * 5 % n_srv;
        std::size_t dst = (src + per_pod * (1 + j % (k - 1))) % n_srv;
        routes.push_back(routing.route(topo.serverNode(src),
                                       topo.serverNode(dst), j));
    }

    NetSolverStats ss = churn(topo, routes, 4096);
    ASSERT_EQ(ss.resolves, 8192u);
    EXPECT_GE(ss.globalResolves, 0.9 * ss.resolves);
}

/** Flows that all cross one link form one component: go global. */
TEST(FlowScope, SingleBottleneckGoesGlobal)
{
    Topology topo = Topology::star(16, 1e9, lat);
    StaticRouting routing(topo);
    std::vector<Route> routes;
    for (std::size_t i = 1; i < 16; ++i)
        routes.push_back(
            routing.route(topo.serverNode(i), topo.serverNode(0)));

    NetSolverStats ss = churn(topo, routes, 64);
    ASSERT_EQ(ss.resolves, 128u);
    EXPECT_EQ(ss.globalResolves, ss.resolves);
    EXPECT_DOUBLE_EQ(ss.meanDirtyFlows(), 14.5);
}
