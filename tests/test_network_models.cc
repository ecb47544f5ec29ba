/**
 * @file
 * Differential tests for the two dirty-set scopes of FlowManager
 * (`[network] model = exact | fluid`) and the fast path both honour.
 *
 * fluid vs exact: identical max-min allocations, so flow completion
 * ticks agree within floating-point rounding. The fluid scope settles
 * only the dirty component at each change while the exact scope
 * settles every flow, so `remainingBits` accumulates through a
 * different sequence of double additions; the divergence is bounded
 * by ulp-level relative error. We assert agreement within 2 ticks +
 * 1e-6 relative -- orders of magnitude looser than the observed
 * drift, orders tighter than any behavioral difference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

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
makeBackend(Simulator &sim, const Topology &topo, NetModelKind kind,
            Bytes fast_path = 0)
{
    NetModelConfig cfg;
    cfg.kind = kind;
    cfg.fastPathBytes = fast_path;
    return std::make_unique<FlowManager>(sim, topo, cfg);
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
    std::vector<Tick> doneAt;  // maxTick when never completed
    std::vector<char> aborted;
    NetSolverStats stats;
    std::uint64_t completed = 0;
};

/** Replay @p script under one backend and record completions. */
RunResult
runScript(const Topology &topo, const std::vector<FlowOp> &script,
          NetModelKind kind, Bytes fast_path = 0)
{
    Simulator sim;
    auto model = makeBackend(sim, topo, kind, fast_path);
    RunResult res;
    res.doneAt.assign(script.size(), maxTick);
    res.aborted.assign(script.size(), 0);

    std::vector<FlowId> ids(script.size(), 0);
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (std::size_t i = 0; i < script.size(); ++i) {
        const FlowOp &op = script[i];
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&, i] {
                ids[i] = model->startFlow(
                    script[i].route, script[i].bytes,
                    [&res, i, &sim] { res.doneAt[i] = sim.curTick(); });
                model->setAbortCallback(
                    ids[i], [&res, i] { res.aborted[i] = 1; });
            },
            "start"));
        sim.schedule(*events.back(), op.startAt);
        if (op.abortAt != 0) {
            events.push_back(std::make_unique<EventFunctionWrapper>(
                [&, i] { model->abortFlow(ids[i]); }, "abort"));
            sim.schedule(*events.back(), op.abortAt);
        }
    }
    sim.run();
    res.stats = model->solverStats();
    res.completed = model->flowsCompleted();
    return res;
}

} // namespace

// ------------------------------------------------- differential equivalence

class ModelEquivalence : public ::testing::TestWithParam<std::uint64_t>
{};

/**
 * fluid completion ticks match exact within the documented
 * floating-point tolerance on random topologies under random churn.
 */
TEST_P(ModelEquivalence, FluidMatchesExactWithinTolerance)
{
    Rng rng(GetParam());
    Topology topo = randomTopology(rng);
    auto script = randomScript(topo, rng, 24);

    RunResult exact = runScript(topo, script, NetModelKind::exact);
    RunResult fluid = runScript(topo, script, NetModelKind::fluid);

    ASSERT_EQ(exact.completed, fluid.completed);
    for (std::size_t i = 0; i < script.size(); ++i) {
        SCOPED_TRACE("flow " + std::to_string(i));
        ASSERT_EQ(exact.aborted[i], fluid.aborted[i]);
        if (exact.doneAt[i] == maxTick) {
            EXPECT_EQ(fluid.doneAt[i], maxTick);
            continue;
        }
        // Documented tolerance: 2 ticks absolute + 1e-6 relative
        // (see file header).
        double tol =
            2.0 + 1e-6 * static_cast<double>(exact.doneAt[i]);
        EXPECT_NEAR(static_cast<double>(exact.doneAt[i]),
                    static_cast<double>(fluid.doneAt[i]), tol);
    }
    // The fluid model must not have solved *more* flow-updates than
    // the global model (it re-solves a subset per change).
    EXPECT_LE(fluid.stats.resolvedFlows, exact.stats.resolvedFlows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

// ------------------------------------------------------------ fast path

namespace {

/** Both scopes honour the fast path; test both. */
class FastPath : public ::testing::TestWithParam<NetModelKind>
{};

} // namespace

TEST_P(FastPath, ShortTransferCompletesAnalytically)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));

    Simulator sim;
    auto model = makeBackend(sim, topo, GetParam(),
                             /*fast_path=*/64 * 1024);
    const Bytes bytes = 1500;
    const Tick start_delay = 3 * usec;
    Tick done_at = 0;
    model->startFlow(r, bytes, [&] { done_at = sim.curTick(); },
                     start_delay);
    sim.run();

    EXPECT_EQ(done_at, start_delay + fastPathDuration(topo, r, bytes));
    EXPECT_EQ(model->flowsCompleted(), 1u);
    EXPECT_EQ(model->solverStats().fastPathHits, 1u);
    EXPECT_EQ(model->solverStats().resolves, 0u);
}

TEST_P(FastPath, LargeTransferStillUsesSolver)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));

    Simulator sim;
    auto model = makeBackend(sim, topo, GetParam(),
                             /*fast_path=*/1024);
    Tick done_at = 0;
    model->startFlow(r, 125'000'000,
                     [&] { done_at = sim.curTick(); });
    sim.run();

    // 1 Gb at 1 Gb/s: about one second, via the solver.
    EXPECT_NEAR(toSeconds(done_at), 1.0, 0.01);
    EXPECT_EQ(model->solverStats().fastPathHits, 0u);
    EXPECT_GE(model->solverStats().resolves, 1u);
}

INSTANTIATE_TEST_SUITE_P(Tiers, FastPath,
                         ::testing::Values(NetModelKind::exact,
                                           NetModelKind::fluid),
                         [](const auto &info) {
                             return toString(info.param);
                         });

// ----------------------------------------------------- structured aborts

namespace {

class SolverAbort : public ::testing::TestWithParam<NetModelKind>
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
    topo.addLink(a, b, std::numeric_limits<double>::infinity(), lat);
    Route r;
    r.links = {0};
    r.nodes = {a, b};

    Simulator sim;
    auto model = makeBackend(sim, topo, GetParam());
    model->startFlow(r, 1'000'000, [] {});
    try {
        sim.run();
        FAIL() << "expected SimAbortError";
    } catch (const SimAbortError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("no bottleneck"), std::string::npos)
            << what;
        EXPECT_NE(what.find("flow 0"), std::string::npos) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, SolverAbort,
                         ::testing::Values(NetModelKind::exact,
                                           NetModelKind::fluid),
                         [](const auto &info) {
                             return toString(info.param);
                         });

// ------------------------------------------------------- fluid specifics

namespace {

struct FluidFixture : ::testing::Test {
    Simulator sim;
};

} // namespace

TEST_F(FluidFixture, BulkLoadMatchesIncrementalActivation)
{
    Topology topo = Topology::star(8, 1e9, lat);
    StaticRouting routing(topo);
    std::vector<Route> routes;
    for (std::size_t i = 0; i < 12; ++i)
        routes.push_back(routing.route(topo.serverNode(i % 8),
                                       topo.serverNode((i + 3) % 8),
                                       i));

    Simulator s_bulk;
    auto bulk_model = makeBackend(s_bulk, topo, NetModelKind::fluid);
    bulk_model->beginBulkLoad();
    std::vector<FlowId> bulk_ids;
    for (const Route &r : routes)
        bulk_ids.push_back(
            bulk_model->startFlow(r, 1'000'000'000'000, [] {}));
    s_bulk.runUntil(0); // activations fire, suppressed per-flow solve
    bulk_model->endBulkLoad();

    Simulator s_inc;
    auto inc_model = makeBackend(s_inc, topo, NetModelKind::fluid);
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
    EXPECT_EQ(bulk_model->solverStats().resolves, 1u);
    EXPECT_EQ(inc_model->solverStats().resolves, routes.size());
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
    StaticRouting routing(topo);

    auto model = makeBackend(sim, topo, NetModelKind::fluid);
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
    (void)l_s0;
}

TEST_F(FluidFixture, ZeroHopRouteCompletesAfterStartDelay)
{
    Topology topo = Topology::star(4, 1e9, lat);
    auto model = makeBackend(sim, topo, NetModelKind::fluid);
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

    auto model = makeBackend(sim, topo, NetModelKind::fluid,
                             /*fast_path=*/64 * 1024);
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

// ------------------------------------------------ config-string plumbing

TEST(NetModelKindStrings, RoundTrip)
{
    for (NetModelKind kind : {NetModelKind::exact, NetModelKind::fluid})
        EXPECT_EQ(parseNetModelKind(toString(kind)), kind);
    EXPECT_THROW(parseNetModelKind("packet"), FatalError);
}
