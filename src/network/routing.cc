#include "routing.hh"

#include <limits>
#include <queue>

#include "sim/logging.hh"

namespace holdcsim {

namespace {

constexpr std::uint32_t unreachable =
    std::numeric_limits<std::uint32_t>::max();

/** Cheap stateless mix for ECMP selection. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

StaticRouting::StaticRouting(const Topology &topo) : _topo(topo) {}

const StaticRouting::Table &
StaticRouting::tableFor(NodeId src)
{
    auto it = _tables.find(src);
    if (it != _tables.end())
        return it->second;

    ++_tableBuilds;
    Table table;
    table.dist.assign(_topo.numNodes(), unreachable);
    table.parentLinks.assign(_topo.numNodes(), {});
    std::queue<NodeId> frontier;
    if (nodeHealthy(src)) {
        table.dist[src] = 0;
        frontier.push(src);
    }
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop();
        for (LinkId l : _topo.linksAt(n)) {
            if (!linkHealthy(l))
                continue;
            NodeId m = _topo.otherEnd(l, n);
            if (!nodeHealthy(m))
                continue;
            if (table.dist[m] == unreachable) {
                table.dist[m] = table.dist[n] + 1;
                table.parentLinks[m].push_back(l);
                frontier.push(m);
            } else if (table.dist[m] == table.dist[n] + 1) {
                // Another equal-cost parent: remember it for ECMP.
                table.parentLinks[m].push_back(l);
            }
        }
    }
    return _tables.emplace(src, std::move(table)).first->second;
}

Route
StaticRouting::route(NodeId src, NodeId dst, std::uint64_t flow_key)
{
    Route r;
    if (!route(src, dst, flow_key, r) && src != dst)
        fatal("no route from node ", src, " to node ", dst);
    return r;
}

bool
StaticRouting::route(NodeId src, NodeId dst, std::uint64_t flow_key,
                     Route &out)
{
    if (src >= _topo.numNodes() || dst >= _topo.numNodes())
        fatal("route endpoint out of range");
    if (src == dst) {
        out.links.clear();
        out.nodes.assign(1, src);
        return nodeHealthy(src);
    }
    const Table &table = tableFor(src);
    if (table.dist[dst] == unreachable)
        return false;

    // Walk back from dst to src choosing among equal-cost parents by
    // a per-(flow, hop) hash, filling the route from its far end.
    const std::size_t hops = table.dist[dst];
    out.links.resize(hops);
    out.nodes.resize(hops + 1);
    out.nodes[hops] = dst;
    NodeId cur = dst;
    for (std::size_t i = hops; i > 0; --i) {
        const auto &parents = table.parentLinks[cur];
        std::uint64_t h =
            mix(flow_key ^ (static_cast<std::uint64_t>(cur) << 32) ^
                dst);
        LinkId chosen = parents[h % parents.size()];
        out.links[i - 1] = chosen;
        cur = _topo.otherEnd(chosen, cur);
        out.nodes[i - 1] = cur;
    }
    return true;
}

std::size_t
StaticRouting::hopCount(NodeId src, NodeId dst)
{
    if (src == dst)
        return 0;
    const Table &table = tableFor(src);
    if (table.dist[dst] == unreachable)
        fatal("no route from node ", src, " to node ", dst);
    return table.dist[dst];
}

bool
StaticRouting::reachable(NodeId src, NodeId dst)
{
    if (src >= _topo.numNodes() || dst >= _topo.numNodes())
        fatal("route endpoint out of range");
    if (src == dst)
        return nodeHealthy(src);
    return tableFor(src).dist[dst] != unreachable;
}

void
StaticRouting::setLinkHealth(LinkId link, bool up)
{
    if (link >= _topo.numLinks())
        fatal("link ", link, " out of range");
    if (linkHealthy(link) == up)
        return; // idempotent: no table churn
    if (_linkDown.empty())
        _linkDown.assign(_topo.numLinks(), false);
    _linkDown[link] = !up;
    _downCount += up ? -1 : 1;
    invalidate();
}

void
StaticRouting::setNodeHealth(NodeId node, bool up)
{
    if (node >= _topo.numNodes())
        fatal("node ", node, " out of range");
    if (nodeHealthy(node) == up)
        return;
    if (_nodeDown.empty())
        _nodeDown.assign(_topo.numNodes(), false);
    _nodeDown[node] = !up;
    _downCount += up ? -1 : 1;
    invalidate();
}

bool
StaticRouting::linkHealthy(LinkId link) const
{
    return _linkDown.empty() || !_linkDown[link];
}

bool
StaticRouting::nodeHealthy(NodeId node) const
{
    return _nodeDown.empty() || !_nodeDown[node];
}

} // namespace holdcsim
