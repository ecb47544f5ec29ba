/**
 * @file
 * Route computation over a Topology (paper section III-B: "the
 * routing path between a source and destination can be either
 * statically generated or dynamically computed").
 *
 * StaticRouting computes shortest paths by breadth-first search and
 * caches per-source next-hop tables on first use. When several
 * shortest paths exist, ECMP-style selection hashes a flow key over
 * the equal-cost candidates so distinct flows spread over the fabric
 * deterministically. invalidate() drops the caches so routes can be
 * recomputed after a (simulated) topology change.
 *
 * The router also carries a health mask over links and nodes so the
 * fault subsystem can take components out of the fabric: BFS simply
 * skips unhealthy elements. Health setters are idempotent -- tables
 * are rebuilt only when a component's health actually changes, never
 * per flow -- and restoring health restores the original paths.
 */

#ifndef HOLDCSIM_NETWORK_ROUTING_HH
#define HOLDCSIM_NETWORK_ROUTING_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topology.hh"

namespace holdcsim {

/** A route: the links to traverse, in order, from source to dest. */
struct Route {
    std::vector<LinkId> links;
    /** Nodes visited, source first, destination last. */
    std::vector<NodeId> nodes;

    std::size_t hops() const { return links.size(); }
    bool empty() const { return links.empty(); }
};

/** BFS shortest-path routing with ECMP tie-breaking. */
class StaticRouting
{
  public:
    /** @param topo routed topology (must outlive the router). */
    explicit StaticRouting(const Topology &topo);

    /**
     * Shortest route from @p src to @p dst. @p flow_key selects
     * among equal-cost paths (pass a flow/job id for ECMP spread;
     * the same key always yields the same path).
     */
    Route route(NodeId src, NodeId dst, std::uint64_t flow_key = 0);

    /**
     * route() into @p out, reusing its vectors' capacity; false, not
     * fatal, when reachable() is false.
     */
    bool route(NodeId src, NodeId dst, std::uint64_t flow_key, Route &out);

    /** Hop count of the shortest path (0 when src == dst). */
    std::size_t hopCount(NodeId src, NodeId dst);

    /**
     * Whether @p dst can be reached from @p src over healthy
     * elements. Unlike route(), never fatals on a partition.
     */
    bool reachable(NodeId src, NodeId dst);

    /** Drop all cached tables (topology changed). */
    void invalidate() { _tables.clear(); }

    /** @name Component health (fault subsystem) */
    ///@{
    /**
     * Mark link @p link up/down. Idempotent: cached tables are only
     * invalidated when the health actually flips.
     */
    void setLinkHealth(LinkId link, bool up);

    /** Mark node @p node (switch) up/down; same idempotence. */
    void setNodeHealth(NodeId node, bool up);

    bool linkHealthy(LinkId link) const;
    bool nodeHealthy(NodeId node) const;

    /** Whether any link or node is currently marked down. */
    bool anyUnhealthy() const { return _downCount > 0; }
    ///@}

    /**
     * Number of per-source BFS table builds performed so far. A
     * regression handle: steady-state routing must not rebuild
     * tables per flow, only after health/topology changes.
     */
    std::uint64_t tableBuilds() const { return _tableBuilds; }

    const Topology &topology() const { return _topo; }

  private:
    /** Per-source BFS result. */
    struct Table {
        /** Distance in hops from the source (maxTick = unreachable). */
        std::vector<std::uint32_t> dist;
        /**
         * For each node, every incident link that lies on some
         * shortest path back toward the source.
         */
        std::vector<std::vector<LinkId>> parentLinks;
    };

    const Table &tableFor(NodeId src);

    const Topology &_topo;
    std::unordered_map<NodeId, Table> _tables;
    /** Per-link / per-node down flags (empty until first fault). */
    std::vector<bool> _linkDown;
    std::vector<bool> _nodeDown;
    std::size_t _downCount = 0;
    std::uint64_t _tableBuilds = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_ROUTING_HH
