/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * whole families of configurations (policies, topologies,
 * utilizations, workload generators), checked with TEST_P sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dc/datacenter.hh"
#include "dc/metrics.hh"
#include "dc/pod_cluster.hh"
#include "fault/fault_manager.hh"
#include "fault/fault_model.hh"
#include "flow_scope.hh"
#include "network/flow_manager.hh"
#include "network/network.hh"
#include "network/routing.hh"
#include "sched/adaptive_policy.hh"
#include "sched/dispatch_policy.hh"
#include "sched/provisioning.hh"
#include "sim/logging.hh"
#include "workload/service.hh"
#include "workload/trace.hh"

using namespace holdcsim;

// ---------------------------------------------------------------------------
// Property: measured core utilization tracks the configured rho for
// every (rho, service distribution) combination.
// ---------------------------------------------------------------------------

using UtilParam = std::tuple<double, std::string>;

class UtilizationProperty
    : public ::testing::TestWithParam<UtilParam>
{};

TEST_P(UtilizationProperty, CoreBusyFractionMatchesRho)
{
    auto [rho, service_kind] = GetParam();
    DataCenterConfig cfg;
    cfg.nServers = 8;
    cfg.nCores = 4;
    cfg.seed = 77;
    DataCenter dc(cfg);

    std::shared_ptr<ServiceModel> svc;
    if (service_kind == "fixed") {
        svc = std::make_shared<FixedService>(5 * msec);
    } else if (service_kind == "exponential") {
        svc = std::make_shared<ExponentialService>(
            5 * msec, dc.makeRng("svc"));
    } else {
        svc = std::make_shared<UniformService>(2 * msec, 8 * msec,
                                               dc.makeRng("svc"));
    }
    SingleTaskGenerator gen(svc);
    double lambda = PoissonArrival::rateForUtilization(
        rho, cfg.nServers, cfg.nCores, svc->meanSeconds());
    dc.pump(std::make_unique<PoissonArrival>(lambda,
                                             dc.makeRng("arrivals")),
            gen, 15000);
    dc.run();
    dc.finishStats();

    double busy = 0.0;
    for (std::size_t s = 0; s < dc.numServers(); ++s) {
        for (unsigned c = 0; c < cfg.nCores; ++c) {
            busy += dc.server(s).core(c).residency().fraction(
                static_cast<int>(CoreCState::c0Active));
        }
    }
    busy /= cfg.nServers * cfg.nCores;
    EXPECT_NEAR(busy, rho, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RhoSweep, UtilizationProperty,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7),
                       ::testing::Values("fixed", "exponential",
                                         "uniform")),
    [](const ::testing::TestParamInfo<UtilParam> &info) {
        return std::get<1>(info.param) + "_rho" +
               std::to_string(static_cast<int>(
                   std::get<0>(info.param) * 10));
    });

// ---------------------------------------------------------------------------
// Property: structural invariants hold on every supported topology.
// ---------------------------------------------------------------------------

class TopologyProperty
    : public ::testing::TestWithParam<std::string>
{
  protected:
    Topology
    build() const
    {
        const std::string &kind = GetParam();
        if (kind == "star")
            return Topology::star(12, 1e9, 5 * usec);
        if (kind == "fat_tree")
            return Topology::fatTree(4, 1e9, 5 * usec);
        if (kind == "fbfly")
            return Topology::flattenedButterfly(3, 2, 1e9, 5 * usec);
        if (kind == "bcube")
            return Topology::bcube(3, 1, 1e9, 5 * usec);
        return Topology::camCube(3, 3, 2, 1e9, 5 * usec);
    }
};

TEST_P(TopologyProperty, ConnectedAndIndexable)
{
    Topology t = build();
    EXPECT_NO_THROW(t.validateConnected());
    EXPECT_EQ(t.numServers() + t.numSwitches(), t.numNodes());
    for (std::size_t i = 0; i < t.numServers(); ++i)
        EXPECT_EQ(t.serverIndex(t.serverNode(i)), i);
    for (std::size_t i = 0; i < t.numSwitches(); ++i)
        EXPECT_EQ(t.switchIndex(t.switchNode(i)), i);
}

TEST_P(TopologyProperty, RoutesAreValidWalks)
{
    Topology t = build();
    StaticRouting r(t);
    const std::size_t n = t.numServers();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = (i * 7 + 3) % n;
        auto route = r.route(t.serverNode(i), t.serverNode(j), i);
        // Consecutive links connect; endpoints match.
        ASSERT_EQ(route.nodes.size(), route.links.size() + 1);
        EXPECT_EQ(route.nodes.front(), t.serverNode(i));
        EXPECT_EQ(route.nodes.back(), t.serverNode(j));
        for (std::size_t h = 0; h < route.links.size(); ++h) {
            EXPECT_EQ(t.otherEnd(route.links[h], route.nodes[h]),
                      route.nodes[h + 1]);
        }
    }
}

TEST_P(TopologyProperty, HopCountsAreSymmetric)
{
    Topology t = build();
    StaticRouting r(t);
    const std::size_t n = std::min<std::size_t>(t.numServers(), 8);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(r.hopCount(t.serverNode(i), t.serverNode(j)),
                      r.hopCount(t.serverNode(j), t.serverNode(i)));
        }
    }
}

TEST_P(TopologyProperty, AllFlowsComplete)
{
    Simulator sim;
    Network net(sim, build(), SwitchPowerProfile::cisco2960_24());
    const std::size_t n = net.topology().numServers();
    int done = 0;
    int started = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = (i * 5 + 1) % n;
        if (j == i)
            continue; // self-transfers are trivially instant
        net.startFlow(i, j, 500'000, [&] { ++done; });
        ++started;
    }
    sim.run();
    EXPECT_EQ(done, started);
    EXPECT_EQ(net.flows().activeFlows(), 0u);
    // No flow can beat the line-rate lower bound (4 ms for 500 kB
    // at 1 Gb/s).
    EXPECT_GE(net.flows().flowLatency().quantile(0.0), 0.004);
}

TEST_P(TopologyProperty, AllPacketsDeliveredUnderLightLoad)
{
    Simulator sim;
    Network net(sim, build(), SwitchPowerProfile::cisco2960_24());
    const std::size_t n = net.topology().numServers();
    int got = 0;
    for (std::size_t i = 0; i < n; ++i)
        net.sendPacket(i, (i + n / 2) % n, 1500,
                       [&](const Packet &) { ++got; });
    sim.run();
    EXPECT_EQ(got, static_cast<int>(n));
    EXPECT_EQ(net.packetsDropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyProperty,
                         ::testing::Values("star", "fat_tree", "fbfly",
                                           "bcube", "camcube"),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------------
// Property: accounting invariants hold under every dispatch policy
// and controller combination.
// ---------------------------------------------------------------------------

using PolicyParam =
    std::tuple<DataCenterConfig::Dispatch, DataCenterConfig::Controller>;

class AccountingProperty
    : public ::testing::TestWithParam<PolicyParam>
{};

TEST_P(AccountingProperty, JobsEnergyAndResidencyConsistent)
{
    auto [dispatch, controller] = GetParam();
    DataCenterConfig cfg;
    cfg.nServers = 6;
    cfg.nCores = 2;
    cfg.dispatch = dispatch;
    cfg.controller = controller;
    cfg.delayTimerTau = 50 * msec;
    cfg.seed = 99;
    DataCenter dc(cfg);

    auto svc = std::make_shared<ExponentialService>(
        8 * msec, dc.makeRng("svc"));
    SingleTaskGenerator gen(svc);
    dc.pump(std::make_unique<PoissonArrival>(150.0,
                                             dc.makeRng("arrivals")),
            gen, 3000);
    dc.run();
    Tick end = dc.sim().curTick();
    dc.finishStats();

    // Every job completed exactly once.
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 3000u);
    EXPECT_EQ(dc.scheduler().jobsSubmitted(), 3000u);
    EXPECT_EQ(dc.scheduler().activeJobs(), 0u);
    std::uint64_t server_tasks = 0;
    for (std::size_t s = 0; s < dc.numServers(); ++s)
        server_tasks += dc.server(s).tasksCompleted();
    EXPECT_EQ(server_tasks, 3000u);

    // Residency partitions simulated time on every server.
    for (std::size_t s = 0; s < dc.numServers(); ++s) {
        const auto &res = dc.server(s).residency();
        Tick total = 0;
        for (int st = 0; st < 5; ++st)
            total += res.residency(st);
        EXPECT_EQ(total, end);
    }

    // Energy is bounded by min/max conceivable fleet power.
    auto fleet = dc.energy();
    double seconds = toSeconds(end);
    const auto &p = cfg.serverProfile;
    double max_power =
        cfg.nServers * (cfg.nCores * p.coreActive + p.pkgPc0 +
                        p.dramActive + p.platformS0);
    double min_power = cfg.nServers * p.platformS5;
    EXPECT_LE(fleet.total.total(), max_power * seconds * 1.001);
    EXPECT_GE(fleet.total.total(), min_power * seconds);

    // Latency can never beat the bare service time of some task.
    EXPECT_GT(dc.scheduler().jobLatency().quantile(0.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, AccountingProperty,
    ::testing::Combine(
        ::testing::Values(DataCenterConfig::Dispatch::roundRobin,
                          DataCenterConfig::Dispatch::leastLoaded,
                          DataCenterConfig::Dispatch::random),
        ::testing::Values(DataCenterConfig::Controller::alwaysOn,
                          DataCenterConfig::Controller::delayTimer)),
    [](const ::testing::TestParamInfo<PolicyParam> &info) {
        std::string d;
        switch (std::get<0>(info.param)) {
          case DataCenterConfig::Dispatch::roundRobin:
            d = "rr";
            break;
          case DataCenterConfig::Dispatch::leastLoaded:
            d = "ll";
            break;
          default:
            d = "rand";
            break;
        }
        return d + (std::get<1>(info.param) ==
                            DataCenterConfig::Controller::alwaysOn
                        ? "_alwaysOn"
                        : "_delayTimer");
    });

// ---------------------------------------------------------------------------
// Property: determinism -- identical seeds give identical results,
// different seeds differ, for every workload generator shape.
// ---------------------------------------------------------------------------

class DeterminismProperty
    : public ::testing::TestWithParam<std::string>
{
  protected:
    double
    runOnce(std::uint64_t seed)
    {
        DataCenterConfig cfg;
        cfg.nServers = 4;
        cfg.nCores = 2;
        cfg.seed = seed;
        DataCenter dc(cfg);
        auto svc = std::make_shared<ExponentialService>(
            5 * msec, dc.makeRng("svc"));
        std::unique_ptr<JobGenerator> gen;
        const std::string &kind = GetParam();
        if (kind == "single") {
            gen = std::make_unique<SingleTaskGenerator>(svc);
        } else if (kind == "chain") {
            gen = std::make_unique<ChainJobGenerator>(
                std::vector<std::shared_ptr<ServiceModel>>{svc, svc},
                std::vector<int>{0, 0}, Bytes{0});
        } else if (kind == "fanout") {
            gen = std::make_unique<FanOutInGenerator>(svc, svc, svc,
                                                      4, Bytes{0});
        } else {
            gen = std::make_unique<RandomDagGenerator>(
                svc, 3, 3, 0.4, Bytes{0}, dc.makeRng("dag"));
        }
        dc.pump(std::make_unique<PoissonArrival>(
                    100.0, dc.makeRng("arrivals")),
                *gen, 800);
        dc.run();
        return dc.scheduler().jobLatency().mean();
    }
};

TEST_P(DeterminismProperty, SameSeedSameResult)
{
    EXPECT_DOUBLE_EQ(runOnce(5), runOnce(5));
}

TEST_P(DeterminismProperty, DifferentSeedDifferentResult)
{
    EXPECT_NE(runOnce(5), runOnce(6));
}

INSTANTIATE_TEST_SUITE_P(AllShapes, DeterminismProperty,
                         ::testing::Values("single", "chain", "fanout",
                                           "dag"),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------------
// Property: synthetic traces are sorted, in-range and deterministic
// for every generator and a sweep of rates.
// ---------------------------------------------------------------------------

using TraceParam = std::tuple<std::string, double>;

class TraceProperty : public ::testing::TestWithParam<TraceParam>
{
  protected:
    std::vector<Tick>
    make(std::uint64_t seed) const
    {
        auto [kind, rate] = GetParam();
        if (kind == "wikipedia") {
            WikipediaTraceParams p;
            p.duration = 120 * sec;
            p.baseRate = rate;
            return makeWikipediaTrace(p, Rng(seed, "t"));
        }
        NlanrTraceParams p;
        p.duration = 120 * sec;
        p.baseRate = rate;
        return makeNlanrTrace(p, Rng(seed, "t"));
    }
};

TEST_P(TraceProperty, SortedInRangeDeterministic)
{
    auto a = make(3);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    ASSERT_FALSE(a.empty());
    EXPECT_LT(a.back(), 120 * sec);
    EXPECT_EQ(a, make(3));
    EXPECT_NE(a, make(4));
    // Long-run rate in the right ballpark.
    EXPECT_NEAR(traceRate(a), std::get<1>(GetParam()),
                std::get<1>(GetParam()) * 0.4);
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsAndRates, TraceProperty,
    ::testing::Combine(::testing::Values("wikipedia", "nlanr"),
                       ::testing::Values(20.0, 100.0, 400.0)),
    [](const ::testing::TestParamInfo<TraceParam> &info) {
        return std::get<0>(info.param) + "_r" +
               std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Property: max-min fair-share invariants hold under both dirty-set
// scopes the flow solver picks from (global re-solve, "exact", and
// component re-solve, "fluid"; see flow_scope.hh for how a case
// steers the solver into each) on every topology -- symmetry,
// monotonicity and capacity conservation are properties of the
// allocation, not of which flows a change re-solved.
// ---------------------------------------------------------------------------

using FairShareParam = std::tuple<test::Scope, std::string>;

class FairShareProperty
    : public ::testing::TestWithParam<FairShareParam>
{
  protected:
    static constexpr Bytes hugeBytes = 1'000'000'000'000;

    test::Scope scope() const { return std::get<0>(GetParam()); }

    /** The topology, plus the island the fluid scope's ballast uses. */
    Topology
    build()
    {
        const std::string &kind = std::get<1>(GetParam());
        Topology topo = kind == "star" ? Topology::star(10, 1e9, 5 * usec)
                        : kind == "fat_tree"
                            ? Topology::fatTree(4, 1e9, 5 * usec)
                            : Topology::bcube(3, 1, 1e9, 5 * usec);
        _island = test::addIsland(topo, scope());
        return topo;
    }

    /** A FlowManager over @p topo, with the ballast loaded. */
    std::unique_ptr<FlowManager>
    backend(Simulator &sim, const Topology &topo)
    {
        auto model = std::make_unique<FlowManager>(sim, topo);
        _ballast = test::loadBallast(sim, *model, _island);
        return model;
    }

    Route _island;
    std::vector<FlowId> _ballast;

    /** Dense directed-link index of each hop of @p r. */
    static std::vector<std::size_t>
    directedPath(const Topology &topo, const Route &r)
    {
        std::vector<std::size_t> path;
        for (std::size_t i = 0; i < r.links.size(); ++i) {
            bool forward = topo.link(r.links[i]).a == r.nodes[i];
            path.push_back(r.links[i] * 2 + (forward ? 1 : 0));
        }
        return path;
    }
};

/** Flows over the very same path must receive the very same rate. */
TEST_P(FairShareProperty, IdenticalRoutesGetIdenticalRates)
{
    Topology topo = build();
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));
    // A cross flow makes the shares non-trivial.
    Route cross =
        routing.route(topo.serverNode(2), topo.serverNode(1));

    Simulator sim;
    auto model = backend(sim, topo);
    FlowId a = model->startFlow(r, hugeBytes, [] {});
    FlowId b = model->startFlow(r, hugeBytes, [] {});
    FlowId c = model->startFlow(r, hugeBytes, [] {});
    model->startFlow(cross, hugeBytes, [] {});
    sim.runUntil(0);

    double ra = model->flowRate(a);
    ASSERT_GT(ra, 0.0);
    EXPECT_NEAR(model->flowRate(b), ra, 1e-9 * ra);
    EXPECT_NEAR(model->flowRate(c), ra, 1e-9 * ra);
    test::expectScope(*model, scope());
}

/**
 * Monotonicity. Max-min fairness is NOT per-flow monotone (a new
 * flow can move a competitor's bottleneck and thereby *raise* a
 * third flow's share), but the minimum allocated rate is: the first
 * water-filling round's share is min over links of capacity/users,
 * and adding a flow only ever increases user counts. So as flows
 * arrive, the slowest flow never speeds up.
 */
TEST_P(FairShareProperty, MinimumRateNeverRisesAsFlowsArrive)
{
    Topology topo = build();
    StaticRouting routing(topo);
    const std::size_t n = topo.numServers();

    Simulator sim;
    auto model = backend(sim, topo);
    std::vector<FlowId> ids;
    double prev_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < 2 * n; ++i) {
        Route r = routing.route(topo.serverNode(i % n),
                                topo.serverNode((i * 5 + 1) % n), i);
        if (r.empty())
            continue;
        ids.push_back(model->startFlow(r, hugeBytes, [] {}));
        sim.runUntil(sim.curTick());
        double min_rate = std::numeric_limits<double>::infinity();
        for (FlowId id : ids)
            min_rate = std::min(min_rate, model->flowRate(id));
        SCOPED_TRACE("after adding flow " + std::to_string(i));
        EXPECT_LE(min_rate, prev_min * (1.0 + 1e-6));
        prev_min = min_rate;
    }
    test::expectScope(*model, scope());
}

/**
 * The allocation is a pure function of the active flow set: adding
 * a flow and then aborting it restores every survivor's rate.
 */
TEST_P(FairShareProperty, AbortRestoresPreviousAllocation)
{
    Topology topo = build();
    StaticRouting routing(topo);
    const std::size_t n = topo.numServers();

    Simulator sim;
    auto model = backend(sim, topo);
    std::vector<FlowId> ids;
    for (std::size_t i = 0; i < n; ++i) {
        Route r = routing.route(topo.serverNode(i),
                                topo.serverNode((i * 3 + 1) % n), i);
        if (!r.empty())
            ids.push_back(model->startFlow(r, hugeBytes, [] {}));
    }
    sim.runUntil(0);
    std::vector<double> before;
    for (FlowId id : ids)
        before.push_back(model->flowRate(id));

    Route extra =
        routing.route(topo.serverNode(0), topo.serverNode(n / 2), 99);
    FlowId intruder = model->startFlow(extra, hugeBytes, [] {});
    sim.runUntil(sim.curTick());
    ASSERT_TRUE(model->abortFlow(intruder));

    for (std::size_t f = 0; f < ids.size(); ++f) {
        SCOPED_TRACE("flow " + std::to_string(f));
        EXPECT_NEAR(model->flowRate(ids[f]), before[f],
                    1e-9 * before[f]);
    }
    test::expectScope(*model, scope());
}

/** No directed link is ever allocated beyond its capacity. */
TEST_P(FairShareProperty, CapacityIsConserved)
{
    Topology topo = build();
    StaticRouting routing(topo);
    const std::size_t n = topo.numServers();

    Simulator sim;
    auto model = backend(sim, topo);
    std::vector<FlowId> ids;
    std::vector<std::vector<std::size_t>> paths;
    for (std::size_t i = 0; i < 3 * n; ++i) {
        Route r = routing.route(topo.serverNode(i % n),
                                topo.serverNode((i * 7 + 3) % n), i);
        if (r.empty())
            continue;
        paths.push_back(directedPath(topo, r));
        ids.push_back(model->startFlow(r, hugeBytes, [] {}));
    }
    sim.runUntil(0);
    // The ballast loads the island link to capacity; account for it.
    for (FlowId id : _ballast) {
        ids.push_back(id);
        paths.push_back(directedPath(topo, _island));
    }

    std::vector<double> load(2 * topo.numLinks(), 0.0);
    for (std::size_t f = 0; f < ids.size(); ++f) {
        double rate = model->flowRate(ids[f]);
        EXPECT_GT(rate, 0.0) << "flow " << f << " starved";
        for (std::size_t dl : paths[f])
            load[dl] += rate;
    }
    for (LinkId l = 0; l < topo.numLinks(); ++l) {
        double cap = topo.link(l).rate;
        EXPECT_LE(load[2 * l], cap * (1.0 + 1e-6)) << "link " << l;
        EXPECT_LE(load[2 * l + 1], cap * (1.0 + 1e-6))
            << "link " << l;
        // linkUtilization agrees with the per-flow accounting.
        double busier = std::max(load[2 * l], load[2 * l + 1]);
        EXPECT_NEAR(model->linkUtilization(l), busier / cap, 1e-6);
    }
    test::expectScope(*model, scope());
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndTopologies, FairShareProperty,
    ::testing::Combine(::testing::Values(test::Scope::exact,
                                         test::Scope::fluid),
                       ::testing::Values("star", "fat_tree", "bcube")),
    [](const ::testing::TestParamInfo<FairShareParam> &info) {
        return std::string(test::scopeName(std::get<0>(info.param))) +
               "_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// Property: RetryPolicy backoff is monotone non-decreasing in the
// attempt number, saturates exactly at backoffMax (no overflow at
// large shifts), and jitter never escapes its declared band.
// ---------------------------------------------------------------------------

using BackoffParam = std::tuple<Tick, Tick>; // (base, max)

class RetryBackoffProperty
    : public ::testing::TestWithParam<BackoffParam>
{};

TEST_P(RetryBackoffProperty, MonotoneAndCapped)
{
    auto [base, max] = GetParam();
    RetryPolicy p;
    p.backoffBase = base;
    p.backoffMax = max;
    p.jitterFrac = 0.0;

    Tick prev = 0;
    bool saturated = false;
    for (unsigned attempt = 1; attempt <= 96; ++attempt) {
        Tick b = p.backoff(attempt);
        EXPECT_GE(b, prev) << "attempt " << attempt;
        EXPECT_GE(b, 1u) << "attempt " << attempt;
        EXPECT_LE(b, std::max<Tick>(max, 1)) << "attempt " << attempt;
        if (saturated)
            EXPECT_EQ(b, prev) << "left the cap at attempt " << attempt;
        if (b >= max)
            saturated = true;
        prev = b;
    }
    // Doubling from any base reaches the cap within 96 attempts, and
    // huge shifts (>= 63) must saturate rather than overflow.
    EXPECT_TRUE(saturated);
    EXPECT_EQ(p.backoff(1000000), std::max<Tick>(max, 1));
    // Attempt 0 is treated as the first failure.
    EXPECT_EQ(p.backoff(0), p.backoff(1));
}

TEST_P(RetryBackoffProperty, JitterStaysInBand)
{
    auto [base, max] = GetParam();
    RetryPolicy p;
    p.backoffBase = base;
    p.backoffMax = max;
    p.jitterFrac = 0.1;

    Rng rng(1234);
    for (unsigned attempt = 1; attempt <= 40; ++attempt) {
        Tick mid = p.backoff(attempt); // null rng: midpoint
        for (int draw = 0; draw < 8; ++draw) {
            Tick b = p.backoff(attempt, &rng);
            EXPECT_GE(b, 1u);
            auto lo = static_cast<double>(mid) * (1.0 - p.jitterFrac);
            auto hi = static_cast<double>(mid) * (1.0 + p.jitterFrac);
            EXPECT_GE(static_cast<double>(b), std::floor(lo));
            EXPECT_LE(static_cast<double>(b), hi);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Bases, RetryBackoffProperty,
    ::testing::Values(BackoffParam{10 * msec, 10 * sec},
                      BackoffParam{1, 10 * sec},
                      BackoffParam{1 * usec, 500 * usec},
                      // base already above the cap: clamp from try 1
                      BackoffParam{20 * sec, 10 * sec}),
    [](const ::testing::TestParamInfo<BackoffParam> &info) {
        return "base" + std::to_string(std::get<0>(info.param)) +
               "_max" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Property: a task that can never finish within its timeout burns
// exactly its attempt budget (maxRetries retries after the first
// try), then the job is abandoned -- no infinite retry loop.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Property: the governor timer wheel's exact mode (granularity 1, one
// kernel event per timer) is statistics-identical on both event-queue
// backends -- every core C-state residency, port/line-card/switch
// residency, energy figure and job latency agrees exactly. A coarse
// wheel only coalesces *when* timer callbacks run onto shared tick
// events; it must keep every residency book a partition of time.
// ---------------------------------------------------------------------------

class TimerModeProperty
    : public ::testing::TestWithParam<EventQueue::Backend>
{
  protected:
    /** Every statistic the two timer disciplines must agree on.
     *  Residencies are exact Ticks; energies come from the same
     *  arithmetic sequence, so doubles must match bit-for-bit. */
    struct Signature {
        std::vector<Tick> residencies;
        std::vector<double> energies;
        std::uint64_t jobs = 0;
        double latencyMean = 0.0;
        Tick endTick = 0;
    };

    static Signature
    runOnce(EventQueue::Backend backend, Tick granularity)
    {
        Simulator sim(backend, granularity);

        // A small star fabric with aggressive sleep thresholds so
        // the run exercises every governor tier: core demotion, port
        // LPI, line card sleep and whole-switch sleep.
        NetworkConfig net_cfg;
        net_cfg.switchSleepDelay = 20 * msec;
        Network net(sim, Topology::star(8, 1e9, 5 * usec),
                    SwitchPowerProfile::cisco2960_24(), net_cfg);

        std::vector<std::unique_ptr<Server>> owned;
        std::vector<Server *> servers;
        for (unsigned i = 0; i < 8; ++i) {
            ServerConfig sc;
            sc.id = i;
            sc.nCores = 2;
            auto server = std::make_unique<Server>(
                sim, sc, ServerPowerProfile{});
            servers.push_back(server.get());
            owned.push_back(std::move(server));
        }
        GlobalScheduler sched(sim, servers,
                              std::make_unique<LeastLoadedPolicy>(),
                              {}, &net);

        // Bursty two-stage jobs with transfers: idle gaps between
        // bursts let the governors cycle through their ladders.
        auto svc = std::make_shared<ExponentialService>(
            4 * msec, Rng(42, "svc"));
        ChainJobGenerator gen({svc, svc}, {0, 0}, 32 * 1024);
        PoissonArrival arrivals(120.0, Rng(42, "arrivals"));
        std::size_t injected = 0;
        EventFunctionWrapper inject(
            [&] {
                sched.submitJob(gen.makeJob(sim.curTick()));
                if (++injected < 600)
                    sim.schedule(inject, arrivals.nextArrival());
            },
            "inject");
        sim.schedule(inject, arrivals.nextArrival());
        sim.run();
        Tick end = sim.curTick();

        Signature sig;
        sig.jobs = sched.jobsCompleted();
        sig.latencyMean = sched.jobLatency().mean();
        sig.endTick = end;
        for (Server *s : servers) {
            s->finishStats();
            for (unsigned c = 0; c < 2; ++c) {
                const auto &res = s->core(c).residency();
                for (int st = 0; st < 5; ++st)
                    sig.residencies.push_back(res.residency(st));
            }
            for (int st = 0; st < 5; ++st)
                sig.residencies.push_back(s->residency().residency(st));
            sig.energies.push_back(s->energy().total());
        }
        for (std::size_t i = 0; i < net.numSwitches(); ++i) {
            Switch &sw = net.switchAt(i);
            sw.finishStats();
            sig.residencies.push_back(sw.residency().residency(0));
            sig.residencies.push_back(sw.residency().residency(1));
            sig.residencies.push_back(sw.sleepTransitions());
            for (unsigned p = 0; p < sw.numPorts(); ++p) {
                const auto &res = sw.port(p).residency();
                for (int st = 0; st < 3; ++st)
                    sig.residencies.push_back(res.residency(st));
            }
            for (unsigned lc = 0; lc < sw.numLineCards(); ++lc) {
                const auto &res = sw.lineCard(lc).residency();
                for (int st = 0; st < 3; ++st)
                    sig.residencies.push_back(res.residency(st));
            }
            sig.energies.push_back(sw.energy());
        }
        return sig;
    }
};

TEST_P(TimerModeProperty, UnitGranularityWheelMatchesEventsExactly)
{
    // Exact mode on this backend against exact mode on the other one.
    const EventQueue::Backend other =
        GetParam() == EventQueue::Backend::calendar
            ? EventQueue::Backend::binaryHeap
            : EventQueue::Backend::calendar;
    Signature mine = runOnce(GetParam(), 1);
    Signature ref = runOnce(other, 1);

    ASSERT_GT(ref.jobs, 0u);
    EXPECT_EQ(mine.jobs, ref.jobs);
    EXPECT_DOUBLE_EQ(mine.latencyMean, ref.latencyMean);
    EXPECT_EQ(mine.endTick, ref.endTick);
    ASSERT_EQ(mine.residencies.size(), ref.residencies.size());
    for (std::size_t i = 0; i < ref.residencies.size(); ++i) {
        EXPECT_EQ(mine.residencies[i], ref.residencies[i])
            << "residency slot " << i;
    }
    ASSERT_EQ(mine.energies.size(), ref.energies.size());
    for (std::size_t i = 0; i < ref.energies.size(); ++i) {
        EXPECT_DOUBLE_EQ(mine.energies[i], ref.energies[i])
            << "energy slot " << i;
    }
}

TEST_P(TimerModeProperty, CoarseWheelConservesResidencyPartitions)
{
    // 100 us buckets shift governor transitions (never earlier, at
    // most one bucket later) but must keep every residency account a
    // partition of simulated time and complete the same job count.
    Signature events = runOnce(GetParam(), 1);
    Signature coarse = runOnce(GetParam(), 100 * usec);
    EXPECT_EQ(coarse.jobs, events.jobs);
    // Core + server residency blocks partition [0, endTick] per
    // entity: 8 servers x (2 cores x 5 states + 5 server states).
    std::size_t off = 0;
    for (int server = 0; server < 8; ++server) {
        for (int core = 0; core < 2; ++core) {
            Tick sum = 0;
            for (int st = 0; st < 5; ++st)
                sum += coarse.residencies[off++];
            EXPECT_EQ(sum, coarse.endTick)
                << "server " << server << " core " << core;
        }
        Tick sum = 0;
        for (int st = 0; st < 5; ++st)
            sum += coarse.residencies[off++];
        EXPECT_EQ(sum, coarse.endTick) << "server " << server;
    }
}

// Coarse wheels on two fleets, gated as exact host-independent
// counters. Both backends must reproduce them, so they also pin the
// calendar queue to the heap's dispatch order on these fleets.

namespace {

/** Completed work and kernel events of one fleet run. */
struct WheelRun {
    std::uint64_t done = 0;
    std::uint64_t events = 0;
};

WheelRun
wheelCounters(const Simulator &sim, std::uint64_t done)
{
    return {done, sim.eventsProcessed()};
}

/** The examples/three_tier fleet (12 typed servers, star fabric)
 *  serving 2000 web -> app -> db requests. */
WheelRun
runThreeTierReplay(EventQueue::Backend backend, Tick granularity)
{
    Simulator sim(backend, granularity);
    constexpr int web_tier = 1, app_tier = 2, db_tier = 3;
    Network net(sim, Topology::star(12, 1e9, 5 * usec),
                SwitchPowerProfile::cisco2960_24());
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    for (unsigned i = 0; i < 12; ++i) {
        ServerConfig sc;
        sc.id = i;
        sc.nCores = 4;
        sc.taskTypes = {i < 4 ? web_tier : i < 8 ? app_tier : db_tier};
        owned.push_back(
            std::make_unique<Server>(sim, sc, ServerPowerProfile{}));
        servers.push_back(owned.back().get());
    }
    GlobalScheduler sched(sim, servers,
                          std::make_unique<LeastLoadedPolicy>(), {},
                          &net);
    ChainJobGenerator requests(
        {std::make_shared<ExponentialService>(1 * msec, Rng(17, "web")),
         std::make_shared<ExponentialService>(4 * msec, Rng(17, "app")),
         std::make_shared<ExponentialService>(8 * msec, Rng(17, "db"))},
        {web_tier, app_tier, db_tier}, 64 * 1024);
    PoissonArrival arrivals(600.0, Rng(17, "arrivals"));
    std::size_t injected = 0;
    EventFunctionWrapper inject(
        [&] {
            sched.submitJob(requests.makeJob(sim.curTick()));
            if (++injected < 2000)
                sim.schedule(inject, arrivals.nextArrival());
        },
        "inject");
    sim.schedule(inject, arrivals.nextArrival());
    sim.run();
    return wheelCounters(sim, sched.jobsCompleted());
}

/** 4096 flat 4-core servers (no fabric, no scheduler) hit by two
 *  synchronized waves of one 50 us task per server, so every core's
 *  idle-demotion ladder re-arms at the same instant. */
WheelRun
runWarehouseWaves(EventQueue::Backend backend, Tick granularity)
{
    Simulator sim(backend, granularity);
    std::uint64_t completions = 0;
    TaskDoneFn sink([&completions](Server &, const TaskRef &) {
        ++completions;
    });
    std::vector<std::unique_ptr<Server>> servers;
    for (unsigned i = 0; i < 4096; ++i) {
        ServerConfig sc;
        sc.id = i;
        sc.nCores = 4;
        servers.push_back(
            std::make_unique<Server>(sim, sc, ServerPowerProfile{}));
        servers.back()->setTaskSink(&sink);
    }
    unsigned wave = 0;
    JobId next_job = 0;
    EventFunctionWrapper injector(
        [&] {
            for (auto &s : servers) {
                TaskRef t;
                t.job = next_job++;
                t.serviceTime = 50 * usec;
                s->submit(t);
            }
            if (++wave < 2)
                sim.schedule(injector, sim.curTick() + 2 * msec);
        },
        "warehouse.wave");
    sim.schedule(injector, 1 * msec);
    sim.run();
    return wheelCounters(sim, completions);
}

} // namespace

TEST_P(TimerModeProperty, CoarseWheelThreeTierReplayCounters)
{
    // A 1 ms wheel completes every request. Neither granularity
    // schedules a governor timer (port LPI, line card and switch
    // sleep are settled in closed form, like core ladders), so both
    // runs take the same 8 events per request: its arrival, three
    // completions and two flows.
    const WheelRun events = runThreeTierReplay(GetParam(), 1);
    const WheelRun coarse = runThreeTierReplay(GetParam(), 1 * msec);
    EXPECT_EQ(events.done, 2000u);
    EXPECT_EQ(coarse.done, events.done);
    EXPECT_EQ(events.events, 16000u);
    EXPECT_EQ(coarse.events, 16000u);
}

TEST_P(TimerModeProperty, CoarseWheelWarehouseCounters)
{
    // A flat fleet's only governors are core ladders, which schedule
    // nothing: at either granularity the run is the 2 wave events and
    // the 8192 completions.
    const WheelRun events = runWarehouseWaves(GetParam(), 1);
    const WheelRun coarse = runWarehouseWaves(GetParam(), 100 * usec);
    EXPECT_EQ(events.done, 8192u);
    EXPECT_EQ(coarse.done, 8192u);
    EXPECT_EQ(events.events, 8194u);
    EXPECT_EQ(coarse.events, 8194u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TimerModeProperty,
    ::testing::Values(EventQueue::Backend::calendar,
                      EventQueue::Backend::binaryHeap),
    [](const ::testing::TestParamInfo<EventQueue::Backend> &info) {
        return info.param == EventQueue::Backend::calendar
                   ? "calendar"
                   : "heap";
    });

// ---------------------------------------------------------------------------
// Property: the utilization law, exactly in ticks. On a fleet that
// starts and ends empty, with no faults, every core's per-state
// residencies partition [0, end], and the fleet's C0-active residency
// is exactly the sum over finished tasks of (core exit latency +
// package exit + processing time): a core is C0-active precisely while
// it wakes for and runs a task. The exit latency a task pays is read
// off the state its core was found in -- the state the idle ladder,
// replayed at its own ticks, left it in -- so this pins that ladder's
// bookkeeping against what every task saw.
// ---------------------------------------------------------------------------

class UtilizationLawProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(UtilizationLawProperty, BusyTimeIsExitPlusProcessing)
{
    Rng rng(GetParam(), "utilization-law");
    const Tick granularity = rng.bernoulli(0.5) ? 1 : 100 * usec;
    Simulator sim(EventQueue::Backend::calendar, granularity);
    const ServerPowerProfile profile;
    const Tick taus[] = {0, 600 * usec, 5 * msec, 50 * msec, maxTick};

    const auto n_servers = static_cast<unsigned>(rng.uniformInt(2, 12));
    std::vector<std::unique_ptr<Server>> servers;
    std::size_t finished = 0;
    TaskDoneFn sink([&finished](Server &, const TaskRef &) { ++finished; });
    for (unsigned i = 0; i < n_servers; ++i) {
        ServerConfig sc;
        sc.id = i;
        sc.nCores = static_cast<unsigned>(rng.uniformInt(1, 4));
        sc.allowPkgC6 = rng.bernoulli(0.8);
        servers.push_back(std::make_unique<Server>(sim, sc, profile));
        servers.back()->setDelayTimer(taus[rng.uniformInt(0, 4)]);
        servers.back()->setTaskSink(&sink);
    }

    const auto exitLatency = [&profile](CoreCState s) -> Tick {
        switch (s) {
          case CoreCState::c1:
            return profile.c1ExitLatency;
          case CoreCState::c3:
            return profile.c3ExitLatency;
          case CoreCState::c6:
            return profile.c6ExitLatency;
          default:
            return 0;
        }
    };

    // Each arrival picks a server. An awake one with a free core and
    // nothing queued starts the task at once on its lowest free core
    // (equal cores: the first free one wins); a suspended one is woken
    // with no work, as a provisioning policy would; otherwise the
    // arrival is dropped.
    const double mean_gap = rng.uniform(20.0 * usec, 2.0 * msec);
    Tick expected_busy = 0;
    std::size_t arrivals = 0, submitted = 0;
    EventFunctionWrapper inject(
        [&] {
            Server &s = *servers[rng.uniformInt(0, n_servers - 1)];
            if (s.isAsleep()) {
                s.wakeUp();
            } else if (!s.isWaking() && s.pendingTasks() == 0 &&
                       s.runningTasks() < s.numCores()) {
                unsigned c = 0;
                while (s.core(c).busy())
                    ++c;
                TaskRef t;
                t.job = submitted++;
                t.serviceTime = std::max<Tick>(
                    1, static_cast<Tick>(rng.exponential(2.0 * msec)));
                const Tick pkg_exit = s.pkgState() == PkgCState::pc6
                                          ? profile.pc6ExitLatency
                                          : 0;
                expected_busy += exitLatency(s.core(c).cstate()) +
                                 pkg_exit + s.core(c).processingTime(t);
                s.submit(t);
            }
            if (++arrivals < 400) {
                sim.scheduleAfter(inject, static_cast<Tick>(
                                              rng.exponential(mean_gap)));
            }
        },
        "inject");
    sim.schedule(inject, 0);
    const Tick end = sim.run();

    ASSERT_GT(submitted, 0u);
    EXPECT_EQ(finished, submitted);
    Tick busy = 0;
    for (const auto &s : servers) {
        EXPECT_EQ(s->load(), 0u);
        s->finishStats();
        for (unsigned c = 0; c < s->numCores(); ++c) {
            const CoreResidency &r = s->core(c).residency();
            Tick sum = 0;
            for (int st = 0; st < 5; ++st)
                sum += r.residency(st);
            EXPECT_EQ(sum, end) << "server " << s->id() << " core " << c;
            busy += r.residency(static_cast<int>(CoreCState::c0Active));
        }
    }
    EXPECT_EQ(busy, expected_busy) << "G " << granularity;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtilizationLawProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(RetryBudgetProperty, ExhaustionAbandonsTheJob)
{
    DataCenterConfig cfg;
    cfg.nServers = 1;
    cfg.nCores = 1;
    cfg.seed = 7;
    cfg.fault.enabled = true;
    cfg.fault.mttfHours = 1e5; // ~11 kyears: no faults in this run
    cfg.fault.maxRetries = 2;
    cfg.fault.taskTimeout = 50 * msec;
    cfg.fault.retryBackoffBase = 10 * msec;
    DataCenter dc(cfg);

    // 10 s of work against a 50 ms timeout: every attempt is lost.
    auto service = std::make_shared<FixedService>(10 * sec);
    SingleTaskGenerator jobs(service);
    dc.pumpTrace({0}, jobs);
    dc.run();

    EXPECT_EQ(dc.scheduler().jobsCompleted(), 0u);
    EXPECT_EQ(dc.scheduler().jobsFailed(), 1u);
    EXPECT_EQ(dc.scheduler().taskTimeouts(), 3u); // 1 try + 2 retries
    EXPECT_EQ(dc.scheduler().taskRetries(), 2u);
    // The whole ordeal fits the budget arithmetic: 3 x timeout plus
    // two bounded backoffs.
    Tick worst = 3 * cfg.fault.taskTimeout +
                 dc.scheduler().retryPolicy().backoff(1) * 12 / 10 +
                 dc.scheduler().retryPolicy().backoff(2) * 12 / 10 + sec;
    EXPECT_LE(dc.sim().curTick(), worst);
}

// ---------------------------------------------------------------------------
// Property: energy and residency books stay conserved across crash/
// repair cycles -- every server's residency still partitions wall
// time exactly, component energies sum to the fleet total, crashes
// strand a nonzero-but-bounded wasted-energy account -- and the whole
// ledger is bit-identical across both event-queue backends.
// ---------------------------------------------------------------------------

namespace {

/** Every figure the runs on both backends must agree on. */
struct FaultedLedger {
    std::vector<Tick> residencies;
    std::vector<double> energies;
    double wasted = 0.0;
    double fleetTotal = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t faults = 0;
    Tick endTick = 0;
};

FaultedLedger
runFaultedLedger(EventQueue::Backend backend)
{
    Simulator sim(backend);

    FaultedLedger ledger;
    {
        std::vector<std::unique_ptr<Server>> owned;
        std::vector<Server *> servers;
        for (unsigned i = 0; i < 4; ++i) {
            ServerConfig sc;
            sc.id = i;
            sc.nCores = 2;
            auto server = std::make_unique<Server>(
                sim, sc, ServerPowerProfile{});
            servers.push_back(server.get());
            owned.push_back(std::move(server));
        }
        GlobalScheduler sched(sim, servers,
                              std::make_unique<RoundRobinPolicy>());
        RetryPolicy rp;
        rp.maxAttempts = 4;
        rp.backoffBase = 10 * msec;
        rp.jitterFrac = 0.0;
        sched.setRetryPolicy(rp);

        // Several overlapping crash/repair cycles, including a
        // double-dip on server 0 and a blink on server 2.
        auto trace = std::make_unique<ScriptedFaultModel>(
            std::vector<ScheduledFault>{
                {{FaultKind::server, 0, 0}, {100 * msec, 300 * msec}},
                {{FaultKind::server, 0, 0}, {600 * msec, 800 * msec}},
                {{FaultKind::server, 1, 0}, {200 * msec, 400 * msec}},
                {{FaultKind::server, 2, 0}, {50 * msec, 55 * msec}},
            });
        FaultManager mgr(sim, std::move(trace), servers, nullptr,
                         &sched);

        auto svc = std::make_shared<ExponentialService>(
            8 * msec, Rng(31, "svc"));
        SingleTaskGenerator gen(svc);
        PoissonArrival arrivals(300.0, Rng(31, "arrivals"));
        std::size_t injected = 0;
        EventFunctionWrapper inject(
            [&] {
                sched.submitJob(gen.makeJob(sim.curTick()));
                if (++injected < 250)
                    sim.schedule(inject, arrivals.nextArrival());
            },
            "inject");
        sim.schedule(inject, arrivals.nextArrival());
        sim.runUntil(2 * sec);

        mgr.finishStats();
        ledger.jobs = sched.jobsCompleted();
        ledger.faults = mgr.faultsInjected();
        ledger.endTick = sim.curTick();
        for (Server *s : servers) {
            s->finishStats();
            // Six server-level states: the paper's five plus the
            // appended ServerState::failed crash bucket.
            for (int st = 0; st < 6; ++st)
                ledger.residencies.push_back(
                    s->residency().residency(st));
            for (unsigned c = 0; c < 2; ++c)
                for (int st = 0; st < 5; ++st)
                    ledger.residencies.push_back(
                        s->core(c).residency().residency(st));
            const EnergyBreakdown &e = s->energy();
            ledger.energies.push_back(e.cpu);
            ledger.energies.push_back(e.dram);
            ledger.energies.push_back(e.platform);
            ledger.fleetTotal += e.total();
            ledger.wasted += s->wastedJoules();
        }
    }
    return ledger;
}

} // namespace

TEST(FaultedEnergyProperty, LedgerConservedAndModeInvariant)
{
    const FaultedLedger base =
        runFaultedLedger(EventQueue::Backend::calendar);

    // Conservation on the reference run. Crash/repair cycles must
    // not leak simulated time out of any residency account...
    ASSERT_GT(base.jobs, 0u);
    EXPECT_EQ(base.faults, 4u);
    for (std::size_t s = 0; s < 4; ++s) {
        Tick sum = 0;
        for (int st = 0; st < 6; ++st)
            sum += base.residencies[s * 16 + st];
        EXPECT_EQ(sum, base.endTick) << "server " << s;
        for (int c = 0; c < 2; ++c) {
            Tick cores = 0;
            for (int st = 0; st < 5; ++st)
                cores += base.residencies[s * 16 + 6 + c * 5 + st];
            EXPECT_EQ(cores, base.endTick)
                << "server " << s << " core " << c;
        }
    }
    // ...nor out of the energy books: per-component energies sum to
    // the fleet total, and the killed attempts strand a wasted-energy
    // account that is nonzero yet still inside the total.
    double components = 0.0;
    for (double e : base.energies)
        components += e;
    EXPECT_NEAR(components, base.fleetTotal,
                1e-9 * base.fleetTotal);
    EXPECT_GT(base.wasted, 0.0);
    EXPECT_LT(base.wasted, base.fleetTotal);

    // The same ledger, bit for bit, on the binary-heap backend.
    FaultedLedger other = runFaultedLedger(EventQueue::Backend::binaryHeap);
    EXPECT_EQ(other.jobs, base.jobs);
    EXPECT_EQ(other.faults, base.faults);
    EXPECT_EQ(other.endTick, base.endTick);
    ASSERT_EQ(other.residencies.size(), base.residencies.size());
    for (std::size_t i = 0; i < base.residencies.size(); ++i)
        EXPECT_EQ(other.residencies[i], base.residencies[i])
            << "residency slot " << i;
    ASSERT_EQ(other.energies.size(), base.energies.size());
    for (std::size_t i = 0; i < base.energies.size(); ++i)
        EXPECT_DOUBLE_EQ(other.energies[i], base.energies[i])
            << "energy slot " << i;
    EXPECT_DOUBLE_EQ(other.wasted, base.wasted);
}

// ---------------------------------------------------------------------------
// Property: the event queue dispatches in total (tick, priority)
// order even under heavy fault-style churn -- events descheduled and
// rescheduled mid-run, and, in the _wheel runs, a switch's governor
// countdowns started and cut short -- on both backends.
// ---------------------------------------------------------------------------

using ChurnParam = std::tuple<EventQueue::Backend, bool>;

class EventOrderProperty
    : public ::testing::TestWithParam<ChurnParam>
{
};

TEST_P(EventOrderProperty, TotalOrderSurvivesFaultCancelChurn)
{
    const auto [backend, use_wheel] = GetParam();
    Simulator sim(backend);

    Rng rng(2024, "churn");
    const int prios[4] = {Event::powerPriority, Event::mailboxPriority,
                          Event::defaultPriority, Event::statsPriority};
    struct Fired {
        Tick tick;
        int prio;
    };
    std::vector<Fired> fired;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 300; ++i) {
        const int p = prios[rng.uniformInt(0, 3)];
        auto ev = std::make_unique<EventFunctionWrapper>(
            [&fired, &sim, p] { fired.push_back({sim.curTick(), p}); },
            "churn.ev" + std::to_string(i), p);
        sim.schedule(*ev,
                     1 + static_cast<Tick>(
                             rng.uniformInt(0, 1'000'000'000)));
        events.push_back(std::move(ev));
    }

    // Wheel-mode extra churn: 90 toggles of flows through a
    // two-card switch, each starting or ending one, so port LPI, card
    // and switch sleep countdowns start and are cut short mid-run,
    // the way a fault tears down a governor ladder.
    std::unique_ptr<Switch> sw;
    std::vector<std::unique_ptr<EventFunctionWrapper>> toggles;
    std::vector<bool> flowing(4, false);
    if (use_wheel) {
        SwitchConfig sc;
        sc.portRates.assign(8, 1e9);
        sc.portsPerLinecard = 4;
        sc.switchSleepDelay = 20 * msec;
        sw = std::make_unique<Switch>(sim, sc,
                                      SwitchPowerProfile::cisco2960_24());
        for (int i = 0; i < 90; ++i) {
            const unsigned pair =
                static_cast<unsigned>(rng.uniformInt(0, 3));
            auto ev = std::make_unique<EventFunctionWrapper>(
                [&sw, &flowing, pair] {
                    if (flowing[pair])
                        sw->flowEnded(pair, pair + 4);
                    else
                        sw->flowStarted(pair, pair + 4);
                    flowing[pair] = !flowing[pair];
                },
                "churn.flow" + std::to_string(i));
            sim.schedule(*ev, 1 + static_cast<Tick>(
                                      rng.uniformInt(0, 900'000'000)));
            toggles.push_back(std::move(ev));
        }
    }

    // The churner: every 50 ms, kick a random batch of still-pending
    // events to new future times -- the deschedule/reschedule pattern
    // crash repair performs on injection and governor events.
    int rounds = 0;
    EventFunctionWrapper churn(
        [&] {
            for (int k = 0; k < 30; ++k) {
                auto &ev = *events[static_cast<std::size_t>(
                    rng.uniformInt(0, 299))];
                if (!ev.scheduled())
                    continue;
                sim.deschedule(ev);
                sim.schedule(
                    ev, sim.curTick() + 1 +
                            static_cast<Tick>(
                                rng.uniformInt(0, 200'000'000)));
            }
            if (++rounds < 10)
                sim.schedule(churn, sim.curTick() + 50 * msec);
        },
        "churn.driver");
    sim.schedule(churn, 50 * msec);
    sim.run();

    // Every event fired exactly once despite the churn...
    EXPECT_EQ(fired.size(), 300u);
    for (const auto &ev : events)
        EXPECT_FALSE(ev->scheduled());
    if (use_wheel) {
        // The run outlasted every countdown the churn left, and each
        // residency book still partitions the run.
        const Tick end = sim.curTick();
        EXPECT_LE(sw->lastDeferredTick(), end);
        sw->finishStats();
        EXPECT_EQ(sw->residency().residency(0) +
                      sw->residency().residency(1),
                  end);
        for (unsigned p = 0; p < sw->numPorts(); ++p) {
            const StateResidency &r = sw->port(p).residency();
            EXPECT_EQ(r.residency(0) + r.residency(1) + r.residency(2),
                      end)
                << "port " << p;
        }
        for (unsigned lc = 0; lc < sw->numLineCards(); ++lc) {
            const StateResidency &r = sw->lineCard(lc).residency();
            EXPECT_EQ(r.residency(0) + r.residency(1) + r.residency(2),
                      end)
                << "card " << lc;
        }
    }
    // ...and dispatch never went backwards in (tick, priority).
    for (std::size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1].tick, fired[i].tick) << "slot " << i;
        if (fired[i - 1].tick == fired[i].tick)
            EXPECT_LE(fired[i - 1].prio, fired[i].prio)
                << "slot " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndTimerModes, EventOrderProperty,
    ::testing::Combine(
        ::testing::Values(EventQueue::Backend::calendar,
                          EventQueue::Backend::binaryHeap),
        ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<ChurnParam> &info) {
        return std::string(std::get<0>(info.param) ==
                                   EventQueue::Backend::calendar
                               ? "calendar"
                               : "heap") +
               (std::get<1>(info.param) ? "_wheel" : "_events");
    });

// ---------------------------------------------------------------------------
// Property: the parallel kernel is statistics-invisible. For any
// partition count and any seed, a pod cluster's deterministic dump is
// byte-identical to the sequential kernel's.
// ---------------------------------------------------------------------------

using PdesParam = std::tuple<unsigned, std::uint64_t>;

class PdesIdentityProperty
    : public ::testing::TestWithParam<PdesParam>
{};

TEST_P(PdesIdentityProperty, PartitionedDumpMatchesSequential)
{
    const auto [partitions, seed] = GetParam();

    PodClusterConfig cfg;
    cfg.pods = 4;
    cfg.requestsPerPod = 30;
    cfg.arrivalRate = 600.0;
    cfg.forwardProbability = 0.4;
    cfg.statsHorizon = 1 * sec;
    cfg.seed = seed;

    auto dump = [&](unsigned parts) {
        PodCluster cluster(cfg, parts);
        cluster.run();
        std::ostringstream os;
        cluster.dumpStats(os);
        return os.str();
    };
    EXPECT_EQ(dump(0), dump(partitions));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, PdesIdentityProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 99u)),
    [](const ::testing::TestParamInfo<PdesParam> &info) {
        return "parts" + std::to_string(std::get<0>(info.param)) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Random plants for the drain-horizon and metamorphic properties. One
// seed draws the fabric (none, a star, or a k = 4 fat tree), the core
// count, the dispatch policy, an always-on or delay-timer controller,
// exact or wheel governor timers, whole-switch sleep, a schedule of
// server and switch faults, and whether the adaptive pool policy runs.
// ---------------------------------------------------------------------------

namespace {

struct RandomPlant {
    DataCenterConfig cfg;
    bool adaptive = false;
    std::size_t jobs = 0;
    double rate = 0.0;
    Tick meanService = 0;
    /** Bytes shipped between a chain's two stages (fabric only). */
    Bytes transfer = 0;
};

RandomPlant
randomPlant(std::uint64_t seed)
{
    Rng rng(seed, "random-plant");
    auto pick = [&rng](auto... options) {
        const std::vector<std::common_type_t<decltype(options)...>> v{
            options...};
        return v[rng.uniformInt(0, v.size() - 1)];
    };
    RandomPlant p;
    DataCenterConfig &cfg = p.cfg;
    cfg.seed = seed;
    cfg.nCores = static_cast<unsigned>(rng.uniformInt(1, 4));
    cfg.nServers = static_cast<unsigned>(rng.uniformInt(6, 24));
    using Fabric = DataCenterConfig::Fabric;
    cfg.fabric = pick(Fabric::none, Fabric::star, Fabric::fatTree);
    const bool fabric = cfg.fabric != Fabric::none;
    if (cfg.fabric == Fabric::fatTree)
        cfg.fabricParam = 4;
    if (fabric) {
        cfg.netConfig.switchSleepDelay = pick(maxTick, 2 * msec, 20 * msec);
        p.transfer = 2 * rng.uniformInt(2048, 32768);
    }
    using Dispatch = DataCenterConfig::Dispatch;
    cfg.dispatch = fabric ? pick(Dispatch::roundRobin, Dispatch::leastLoaded,
                                 Dispatch::random, Dispatch::networkAware)
                          : pick(Dispatch::roundRobin, Dispatch::leastLoaded,
                                 Dispatch::random);
    cfg.taskAntiAffinity = rng.bernoulli(0.5);
    if (rng.bernoulli(0.6)) {
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = pick(Tick{0}, 600 * usec, 20 * msec, 100 * msec);
    }
    if (rng.bernoulli(0.5)) {
        cfg.timerMode = DataCenterConfig::TimerMode::wheel;
        cfg.wheelGranularity = pick(100 * usec, 1 * msec);
    }
    if (rng.bernoulli(0.6)) {
        cfg.fault.enabled = true;
        cfg.fault.schedule.emplace();
        cfg.fault.maxRetries = 4;
        cfg.fault.faultSwitches = fabric;
        const std::size_t faults = rng.uniformInt(1, 4);
        for (std::size_t k = 0; k < faults; ++k) {
            const Tick down = rng.uniformInt(1, 800) * msec + k;
            const Tick up = down + rng.uniformInt(5, 300) * msec;
            FaultTarget target{FaultKind::server,
                               rng.uniformInt(0, cfg.nServers - 1), 0};
            if (cfg.fabric == Fabric::star && rng.bernoulli(0.3))
                target = {FaultKind::swtch, 0, 0};
            cfg.fault.schedule->push_back({target, {down, up}});
        }
    }
    // The adaptive pool policy sets every server's delay timer itself.
    p.adaptive = cfg.controller == DataCenterConfig::Controller::alwaysOn &&
                 rng.bernoulli(0.4);
    p.meanService = pick(2 * msec, 5 * msec);
    p.jobs = rng.uniformInt(80, 240);
    const unsigned servers = cfg.fabric == Fabric::fatTree ? 16 : cfg.nServers;
    const double rho = rng.uniform(0.1, 0.5);
    p.rate = rho * servers * cfg.nCores / (2 * toSeconds(p.meanService));
    return p;
}

/** A DataCenter built from a RandomPlant, its stream pumped. */
struct PlantRun {
    explicit PlantRun(const RandomPlant &p)
        : dc(p.cfg), svc(std::make_shared<ExponentialService>(
                         p.meanService, dc.makeRng("service"))),
          gen({svc, svc}, {0, 0}, p.transfer)
    {
        if (p.adaptive) {
            AdaptiveConfig ac;
            ac.initialActive = 2;
            ac.deepSleepAfter = 50 * msec;
            ac.transitionCooldown = 20 * msec;
            ac.checkInterval = 10 * msec;
            adaptive = std::make_unique<AdaptivePoolPolicy>(dc.scheduler(), ac);
            adaptive->start();
        }
        dc.pump(std::make_unique<PoissonArrival>(p.rate,
                                                 dc.makeRng("arrivals")),
                gen, p.jobs);
    }

    DataCenter dc;
    std::shared_ptr<ExponentialService> svc;
    ChainJobGenerator gen;
    std::unique_ptr<AdaptivePoolPolicy> adaptive;
};

/** The last pending deferred transition, from every entity afresh. */
Tick
fullHorizonScan(const Simulator &sim)
{
    Tick last = 0;
    for (const DeferredTimers *d : sim.deferred())
        if (d)
            last = std::max(last, d->lastDeferredTick());
    return last;
}

/**
 * Checks the cached horizon against a full scan before each event a
 * drain processes: run() found no foreground event, so it is about to
 * end at deferredHorizon() or is running a background event before it.
 */
struct DrainCheck : KernelProbe {
    explicit DrainCheck(Simulator &sim) : sim(sim) {}
    void
    beginEvent(const Event &, std::size_t) override
    {
        if (sim.eventQueue().foregroundCount() != 0)
            return;
        ++checks;
        EXPECT_EQ(sim.deferredHorizon(), fullHorizonScan(sim))
            << "before a drained event at tick " << sim.curTick();
    }
    void endEvent() override {}

    Simulator &sim;
    std::size_t checks = 0;
};

} // namespace

// ---------------------------------------------------------------------------
// Property: a drain ends where a full scan of every deferred-timer
// entity says it must. The Simulator keeps each entity's horizon and
// re-evaluates only those touched since (DeferredTimers); at every
// pause, around the API calls made between runs, before every event a
// drain processes and at the end of each run, the cached max must
// equal lastDeferredTick() taken over every entity.
// ---------------------------------------------------------------------------

class DeferredHorizonProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DeferredHorizonProperty, CachedMaxEqualsFullScan)
{
    const RandomPlant p = randomPlant(GetParam());
    PlantRun run(p);
    DataCenter &dc = run.dc;
    Simulator &sim = dc.sim();
    auto check = [&](const char *where) {
        EXPECT_EQ(sim.deferredHorizon(), fullHorizonScan(sim))
            << where << " at tick " << sim.curTick();
    };
    // Still the build's epoch: the fleet recorded every server's
    // horizon, and a server reconfigured now must be seen again.
    check("after the build");
    Rng rng(GetParam(), "horizon-api");
    dc.server(rng.uniformInt(0, dc.numServers() - 1))
        .setDelayTimer(rng.uniformInt(1, 30) * msec);
    check("after a reconfiguration in the build's epoch");

    DrainCheck drains(sim);
    sim.setProbe(&drains);
    // Pauses with API calls between runs: each may move the horizon
    // of a server or switch that no event touches afterwards.
    Tick at = 0;
    for (int pause = 0; pause < 6; ++pause) {
        at += rng.uniformInt(50, 400) * msec;
        dc.runUntil(at);
        check("at a pause");
        Server &s = dc.server(rng.uniformInt(0, dc.numServers() - 1));
        switch (rng.uniformInt(0, 4)) {
          case 0:
            s.setDelayTimer(rng.uniformInt(0, 40) * msec);
            break;
          case 1:
            s.sleep(SState::s3);
            break;
          case 2:
            s.wakeUp();
            break;
          case 3:
            s.setAllowPkgC6(rng.bernoulli(0.5));
            break;
          default:
            if (Network *net = dc.network())
                net->switchAt(rng.uniformInt(0, net->numSwitches() - 1))
                    .trySleep();
            break;
        }
        check("after an API call");
    }
    const Tick end = dc.run();
    check("after the drained run");
    EXPECT_EQ(end, sim.curTick());
    EXPECT_LE(fullHorizonScan(sim), end);
    // A second drained run from rest ends where it starts.
    EXPECT_EQ(dc.run(), end);
    sim.setProbe(nullptr);
    EXPECT_EQ(dc.scheduler().jobsCompleted() + dc.scheduler().jobsFailed(),
              p.jobs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeferredHorizonProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// The same check where threads write horizons: a fleet of several
// 2 MiB extents records each server's horizon on its build worker, and
// a stats dump of several chunks settles servers, marking their
// horizons stale, on its pipeline workers.
TEST(DeferredHorizonFleet, ParallelBuildAndDumpKeepTheCache)
{
    DataCenterConfig cfg;
    cfg.nServers = 8000;
    cfg.nCores = 4;
    cfg.seed = 3;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 40 * msec;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    cfg.timerMode = DataCenterConfig::TimerMode::wheel;
    cfg.wheelGranularity = 100 * usec;
    DataCenter dc(cfg);
    Simulator &sim = dc.sim();
    EXPECT_EQ(sim.deferredHorizon(), fullHorizonScan(sim));
    // Nothing touched since the build: the drain re-evaluates nothing.
    EXPECT_EQ(sim.horizonRefreshes(), 0u);

    SingleTaskGenerator gen(std::make_shared<ExponentialService>(
        5 * msec, dc.makeRng("service")));
    dc.pump(std::make_unique<PoissonArrival>(20'000.0,
                                             dc.makeRng("arrivals")),
            gen, 3000);
    dc.runUntil(60 * msec);
    EXPECT_EQ(sim.deferredHorizon(), fullHorizonScan(sim));
    std::ostringstream first;
    dc.dumpStats(first);
    EXPECT_EQ(sim.deferredHorizon(), fullHorizonScan(sim));
    dc.runUntil(120 * msec);
    std::ostringstream second;
    dc.dumpStats(second);
    const Tick end = dc.run();
    EXPECT_EQ(sim.deferredHorizon(), fullHorizonScan(sim));
    EXPECT_LE(fullHorizonScan(sim), end);
    EXPECT_EQ(dc.scheduler().jobsCompleted(), 3000u);
}

// ---------------------------------------------------------------------------
// Metamorphic properties: exact scaling laws between two runs, with no
// recorded value. A factor of two only moves a double's exponent, so
// each relation holds bit for bit on full-precision values, and the
// dump's text must match wherever the relation leaves a row alone.
//
// - Power x 2: doubling every server and switch power key doubles
//   every energy and leaves every other row, residency tick and
//   latency alone. No policy here reads watts (the adaptive pool
//   policy and dispatch count load, network-aware dispatch counts
//   sleeping switches), so none is left out. It also pins the order
//   energy is accrued in: a reordered sum rounds differently at one
//   scale only by chance, and the identity covers every row.
// - Link rate and transfer size / 2: every transfer takes as long as
//   before, so the whole dump is unchanged.
// ---------------------------------------------------------------------------

namespace {

/** A stats dump plus the full-precision values its rows print. */
struct ModelValues {
    std::string dump;
    /** Energies: per server cpu, dram, platform, total; per switch;
     *  the fabric's total; the wasted joules of crashes. */
    std::vector<double> energy;
    /** Residency ticks of every server, switch, port and line card. */
    std::vector<Tick> ticks;
    /** Job and flow latencies, and the end tick. */
    std::vector<double> other;
};

ModelValues
runModel(const RandomPlant &p)
{
    PlantRun run(p);
    DataCenter &dc = run.dc;
    dc.run();
    ModelValues v;
    std::ostringstream os;
    dc.dumpStats(os);
    v.dump = os.str();
    auto books = [&v](const auto &res, int states) {
        for (int st = 0; st < states; ++st)
            v.ticks.push_back(res.residency(st));
    };
    for (std::size_t i = 0; i < dc.numServers(); ++i) {
        const Server &s = dc.server(i);
        const EnergyBreakdown &e = s.energy();
        v.energy.insert(v.energy.end(), {e.cpu, e.dram, e.platform, e.total()});
        books(s.residency(), StateResidency::maxStates);
    }
    if (Network *net = dc.network()) {
        for (std::size_t i = 0; i < net->numSwitches(); ++i) {
            Switch &sw = net->switchAt(i);
            v.energy.push_back(sw.energy());
            books(sw.residency(), 2);
            for (unsigned q = 0; q < sw.numPorts(); ++q)
                books(sw.port(q).residency(), 3);
            for (unsigned lc = 0; lc < sw.numLineCards(); ++lc)
                books(sw.lineCard(lc).residency(), 3);
        }
        v.energy.push_back(net->switchEnergy());
        v.other.push_back(net->flows().flowLatency().mean());
    }
    v.energy.push_back(fleetReliability(dc.serverPtrs()).wastedJoules);
    const Percentile &lat = dc.scheduler().jobLatency();
    v.other.insert(v.other.end(), {lat.mean(), lat.p50(), lat.p99()});
    v.other.push_back(static_cast<double>(dc.sim().curTick()));
    return v;
}

/** The dump's lines, with those naming an energy dropped if asked. */
std::vector<std::string>
dumpRows(const std::string &dump, bool drop_energy)
{
    std::vector<std::string> rows;
    std::istringstream in(dump);
    for (std::string line; std::getline(in, line);) {
        const std::string key = line.substr(0, line.find(' '));
        const bool energy = key.size() > 2 &&
                            (key.compare(key.size() - 2, 2, "_j") == 0 ||
                             key.find("joules") != std::string::npos);
        if (!(drop_energy && energy))
            rows.push_back(line);
    }
    return rows;
}

void
doublePower(DataCenterConfig &cfg)
{
    ServerPowerProfile &s = cfg.serverProfile;
    for (Watts *w : {&s.coreActive, &s.coreC0Idle, &s.coreC1, &s.coreC3,
                     &s.coreC6, &s.pkgPc0, &s.pkgPc2, &s.pkgPc6,
                     &s.dramActive, &s.dramIdle, &s.dramSelfRefresh,
                     &s.platformS0, &s.platformS3, &s.platformS5})
        *w *= 2.0;
    SwitchPowerProfile &n = cfg.switchProfile;
    for (Watts *w : {&n.chassisBase, &n.switchSleep, &n.linecardActive,
                     &n.linecardSleep, &n.linecardOff, &n.portActive,
                     &n.portLpi, &n.portOff})
        *w *= 2.0;
}

} // namespace

class MetamorphicProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MetamorphicProperty, DoublingPowerDoublesEveryEnergyAlone)
{
    const RandomPlant p = randomPlant(GetParam());
    RandomPlant twice = p;
    doublePower(twice.cfg);
    const ModelValues a = runModel(p);
    const ModelValues b = runModel(twice);

    ASSERT_EQ(a.energy.size(), b.energy.size());
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < a.energy.size(); ++i) {
        EXPECT_EQ(b.energy[i], 2.0 * a.energy[i]) << "energy " << i;
        nonzero += a.energy[i] != 0.0;
    }
    EXPECT_GT(nonzero, a.energy.size() / 2);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.other, b.other);
    EXPECT_EQ(dumpRows(a.dump, true), dumpRows(b.dump, true));
    // The energy rows it dropped are there, and they moved.
    EXPECT_LT(dumpRows(a.dump, true).size(), dumpRows(a.dump, false).size());
    EXPECT_NE(a.dump, b.dump);
}

TEST_P(MetamorphicProperty, HalvingLinkRateAndTransfersChangesNothing)
{
    RandomPlant p = randomPlant(GetParam());
    if (p.cfg.fabric == DataCenterConfig::Fabric::none) {
        // No fabric: no link to halve. Give the plant a star, so every
        // seed tests the relation.
        p.cfg.fabric = DataCenterConfig::Fabric::star;
        p.transfer = 16 * 1024;
    }
    RandomPlant half = p;
    half.cfg.linkRate /= 2.0;
    half.transfer /= 2;
    const ModelValues a = runModel(p);
    const ModelValues b = runModel(half);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.other, b.other);
    EXPECT_TRUE(a.dump == b.dump);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Property: every cached candidate list is the list a brute-force scan
// of the fleet gives. Random plants mix typed and untyped servers, push
// (round-robin, least-loaded, random) and pull dispatch, an adaptive or
// provisioning pool flipping eligibility, and scheduled server crashes
// and repairs. After every event, each type's cached list must equal
// eligible(i) && !failed() && servesType(type) taken over every server.
// Each plant's model values are pinned by a digest, so the lists
// dispatch picks from stay the lists it always picked from.
// ---------------------------------------------------------------------------

namespace {

constexpr int kCandidateTypes = 3;

/** Compares each type's cached list with a scan after every event. */
struct CandidateCheck : KernelProbe {
    CandidateCheck(const Simulator &sim, const GlobalScheduler &sched)
        : sim(sim), sched(sched)
    {}
    void beginEvent(const Event &, std::size_t) override {}
    void
    endEvent() override
    {
        const std::vector<Server *> &servers = sched.servers();
        for (int type = 0; type < kCandidateTypes; ++type) {
            std::vector<std::size_t> scan;
            for (std::size_t i = 0; i < servers.size(); ++i) {
                if (sched.eligible(i) && !servers[i]->failed() &&
                    servers[i]->servesType(type))
                    scan.push_back(i);
            }
            if (sched.candidates(type) != scan && mismatches++ == 0) {
                ADD_FAILURE() << "type " << type << " list is stale at tick "
                              << sim.curTick();
            }
        }
        ++checks;
    }

    const Simulator &sim;
    const GlobalScheduler &sched;
    std::size_t checks = 0;
    std::size_t mismatches = 0;
};

/** FNV-1a over the plant's model values. */
struct Digest {
    std::uint64_t h = 14695981039346656037ull;
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

struct CandidateRun {
    std::uint64_t digest = 0;
    std::size_t checks = 0;
    std::size_t mismatches = 0;
    std::size_t typed = 0;
    std::uint64_t flips = 0;
    std::uint64_t faults = 0;
};

CandidateRun
runCandidatePlant(std::uint64_t seed)
{
    Rng rng(seed, "candidate-plant");
    auto pick = [&rng](auto... options) {
        const std::vector<std::common_type_t<decltype(options)...>> v{
            options...};
        return v[rng.uniformInt(0, v.size() - 1)];
    };
    CandidateRun out;
    Simulator sim;
    const auto n = static_cast<unsigned>(rng.uniformInt(6, 16));
    const auto cores = static_cast<unsigned>(rng.uniformInt(1, 4));
    const int pool = static_cast<int>(rng.uniformInt(0, 2));
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    for (unsigned i = 0; i < n; ++i) {
        ServerConfig sc;
        sc.id = i;
        sc.nCores = cores;
        // Server 0 serves every type, so no type is served by nobody.
        if (i > 0 && rng.bernoulli(0.5)) {
            sc.taskTypes.insert(
                static_cast<int>(rng.uniformInt(0, kCandidateTypes - 1)));
            if (rng.bernoulli(0.3))
                sc.taskTypes.insert(
                    static_cast<int>(rng.uniformInt(0, kCandidateTypes - 1)));
            ++out.typed;
        }
        owned.push_back(
            std::make_unique<Server>(sim, sc, ServerPowerProfile{}));
        servers.push_back(owned.back().get());
        if (pool != 1 && rng.bernoulli(0.5))
            servers.back()->setDelayTimer(pick(Tick{0}, 5 * msec, 30 * msec));
    }
    GlobalSchedulerConfig gsc;
    gsc.useGlobalQueue = rng.bernoulli(0.3);
    std::unique_ptr<DispatchPolicy> policy;
    switch (rng.uniformInt(0, 2)) {
      case 0:
        policy = std::make_unique<RoundRobinPolicy>();
        break;
      case 1:
        policy = std::make_unique<LeastLoadedPolicy>();
        break;
      default:
        policy = std::make_unique<RandomPolicy>(Rng(seed, "dispatch"));
        break;
    }
    GlobalScheduler sched(sim, servers, std::move(policy), gsc);
    RetryPolicy retry;
    retry.maxAttempts = 5;
    sched.setRetryPolicy(retry);
    Digest d;
    sched.setJobDoneCallback([&d](JobId id, Tick latency) {
        d.add(id);
        d.add(latency);
    });

    std::vector<ScheduledFault> faults;
    if (rng.bernoulli(0.7)) {
        const std::size_t k = rng.uniformInt(1, 4);
        for (std::size_t f = 0; f < k; ++f) {
            const Tick down = rng.uniformInt(1, 600) * msec + f;
            const Tick up = down + rng.uniformInt(5, 200) * msec;
            faults.push_back({{FaultKind::server, rng.uniformInt(0, n - 1), 0},
                              {down, up}});
        }
    }
    FaultManager fm(sim, std::make_unique<ScriptedFaultModel>(faults),
                    servers, nullptr, &sched);

    std::unique_ptr<AdaptivePoolPolicy> adaptive;
    std::unique_ptr<ProvisioningPolicy> provisioning;
    if (pool == 1) {
        AdaptiveConfig ac;
        ac.initialActive = 2;
        ac.deepSleepAfter = 50 * msec;
        ac.transitionCooldown = 20 * msec;
        ac.checkInterval = 10 * msec;
        adaptive = std::make_unique<AdaptivePoolPolicy>(sched, ac);
        adaptive->start();
    } else if (pool == 2) {
        ProvisioningConfig pc;
        pc.minLoadPerServer = 0.3;
        pc.maxLoadPerServer = 1.0;
        pc.checkInterval = 10 * msec;
        provisioning = std::make_unique<ProvisioningPolicy>(sched, pc);
        provisioning->start();
    }

    const Tick mean = pick(2 * msec, 5 * msec);
    auto svc = std::make_shared<ExponentialService>(mean, Rng(seed, "service"));
    const std::size_t stages = rng.uniformInt(1, 2);
    std::vector<std::shared_ptr<ServiceModel>> models(stages, svc);
    std::vector<int> types;
    for (std::size_t s = 0; s < stages; ++s)
        types.push_back(static_cast<int>(rng.uniformInt(0, kCandidateTypes - 1)));
    ChainJobGenerator gen(models, types, 0);
    const double rho = rng.uniform(0.1, 0.6);
    PoissonArrival arrivals(rho * n * cores / (stages * toSeconds(mean)),
                            Rng(seed, "arrivals"));
    const std::size_t jobs = rng.uniformInt(100, 240);
    JobId next = 0;
    EventFunctionWrapper inject(
        [&] {
            sched.submitJob(gen.makeJob(sim.curTick(), next));
            if (++next < jobs)
                sim.schedule(inject, arrivals.nextArrival());
        },
        "inject");
    sim.schedule(inject, arrivals.nextArrival());

    CandidateCheck check(sim, sched);
    sim.setProbe(&check);
    sim.run();
    sim.setProbe(nullptr);

    EXPECT_EQ(sched.jobsCompleted() + sched.jobsFailed(), jobs);
    for (std::uint64_t v : {sched.jobsCompleted(), sched.jobsFailed(),
                            sched.tasksDispatched(), sched.taskRetries(),
                            fm.faultsInjected()})
        d.add(v);
    for (const Server *s : servers) {
        d.add(s->energy().total());
        for (int st = 0; st < StateResidency::maxStates; ++st)
            d.add(static_cast<std::uint64_t>(s->residency().residency(st)));
    }
    d.add(static_cast<std::uint64_t>(sim.curTick()));
    out.digest = d.h;
    out.checks = check.checks;
    out.mismatches = check.mismatches;
    out.flips = adaptive ? adaptive->promotions() + adaptive->demotions()
                : provisioning ? provisioning->parkEvents() +
                                     provisioning->activateEvents()
                               : 0;
    out.faults = fm.faultsInjected();
    return out;
}

} // namespace

class CandidateListProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CandidateListProperty, CachedListsEqualAFleetScan)
{
    // Plants whose eligible pool lacks a type warn on each fallback.
    setQuiet(true);
    const CandidateRun run = runCandidatePlant(GetParam());
    setQuiet(false);
    EXPECT_GT(run.checks, 0u);
    EXPECT_EQ(run.mismatches, 0u);
    // Job latencies, scheduler counters, per-server energy and
    // residency, and the end tick of seeds 1-20, as the scan-built
    // lists left them.
    static constexpr std::uint64_t golden[] = {
        0x916563c2862d3b4bull, 0xc5cc488a453d7b85ull, 0x0e7db23c8145aa3full,
        0x4996cecc9f1f1d92ull, 0x1836852385644b83ull, 0x591cd932904fb728ull,
        0x28cb0b8f0ed3894cull, 0xef0caf1e8fd4ae88ull, 0xa8b4f98ae610b788ull,
        0xfea3fe89dcc964b5ull, 0x097dfce33d6f0362ull, 0x1cc9108a17d0eba8ull,
        0x7635d41378f7116eull, 0xb4f48cb4d028385cull, 0x72523c1eb026c50dull,
        0x31b5e8877742bbcbull, 0x0aa6746d22ca1a2cull, 0x2ed7c730aebd2b23ull,
        0x0ca69f4b01440384ull, 0x4657c3f49cbab8fbull,
    };
    EXPECT_EQ(run.digest, golden[GetParam() - 1])
        << std::hex << "digest 0x" << run.digest << std::dec << ", "
        << run.typed << " typed servers, " << run.flips
        << " pool flips, " << run.faults << " crashes";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateListProperty,
                         ::testing::Range<std::uint64_t>(1, 21));
