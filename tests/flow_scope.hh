/**
 * @file
 * Steering FlowManager's self-chosen dirty-set scope from a test.
 *
 * The solver re-solves either the changed flow's component or every
 * active flow (see flow_manager.hh), so a scenario can be run under
 * each scope without any option:
 *
 * - Scope::exact runs the scenario on its own. Its first change
 *   marks every enrolled flow, so the solver goes global.
 * - Scope::fluid first bulk-loads a ballast of never-ending flows on
 *   an island link of its own. No walk from the scenario's links can
 *   reach the ballast, and the ballast outnumbers the scenario, so
 *   every walk marks under 4/5 of the enrolled flows and stays
 *   component-scoped. The ballast cannot change the scenario's rates.
 */

#ifndef HOLDCSIM_TESTS_FLOW_SCOPE_HH
#define HOLDCSIM_TESTS_FLOW_SCOPE_HH

#include <gtest/gtest.h>

#include <vector>

#include "network/flow_manager.hh"
#include "network/topology.hh"
#include "sim/simulator.hh"

namespace holdcsim {
namespace test {

/** Which dirty-set scope a scenario steers the solver into. */
enum class Scope { exact, fluid };

inline const char *
scopeName(Scope scope)
{
    return scope == Scope::exact ? "exact" : "fluid";
}

/** Ballast flows; more than any scenario here enrolls at once. */
constexpr std::size_t ballastFlows = 256;

/**
 * Add the island link Scope::fluid needs to @p topo. Call before
 * constructing the FlowManager. Returns its route; for
 * Scope::exact, leaves @p topo alone and returns an empty route.
 */
inline Route
addIsland(Topology &topo, Scope scope)
{
    Route r;
    if (scope == Scope::exact)
        return r;
    NodeId a = topo.addSwitch(), b = topo.addSwitch();
    r.links = {topo.addLink(a, b, 1e9, 5 * usec)};
    r.nodes = {a, b};
    return r;
}

/**
 * Bulk-load ballastFlows never-ending flows along @p island (nothing
 * for an empty route). Runs @p sim to its current tick.
 */
inline std::vector<FlowId>
loadBallast(Simulator &sim, FlowManager &fm, const Route &island)
{
    std::vector<FlowId> ids;
    if (island.empty())
        return ids;
    fm.beginBulkLoad();
    for (std::size_t i = 0; i < ballastFlows; ++i)
        ids.push_back(fm.startFlow(island, 1'000'000'000'000, [] {}));
    sim.runUntil(sim.curTick());
    fm.endBulkLoad();
    return ids;
}

/**
 * The solver took @p scope for the scenario's resolves: under
 * Scope::fluid only the ballast's bulk load went global, under
 * Scope::exact the scenario went global at least once.
 */
inline void
expectScope(const FlowManager &fm, Scope scope)
{
    const NetSolverStats &ss = fm.solverStats();
    if (scope == Scope::fluid) {
        EXPECT_EQ(ss.globalResolves, 1u)
            << "a scenario resolve went global beside the ballast";
    } else {
        EXPECT_GE(ss.globalResolves, 1u)
            << "the scenario never went global on its own";
    }
}

} // namespace test
} // namespace holdcsim

#endif // HOLDCSIM_TESTS_FLOW_SCOPE_HH
