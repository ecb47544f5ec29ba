#include "network.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace holdcsim {

Network::Network(Simulator &sim, Topology topo,
                 const SwitchPowerProfile &profile,
                 const NetworkConfig &config)
    : _sim(sim), _topo(std::move(topo)), _config(config),
      _routing(_topo),
      _flowMgr(sim, _topo, config.fastPathBytes),
      _oneShots(sim, "net.oneShot")
{
    _topo.validateConnected();
    _ends.assign(2 * _topo.numLinks(), LinkEnd{noSwitch, 0});
    _nicFreeAt.assign(_topo.numServers(), 0);

    // One Switch per switch node; port i of the switch drives the
    // i-th incident link of that node.
    for (std::size_t si = 0; si < _topo.numSwitches(); ++si) {
        NodeId node = _topo.switchNode(si);
        SwitchConfig sc;
        sc.id = static_cast<unsigned>(si);
        sc.portsPerLinecard = config.portsPerLinecard;
        sc.portBufferCapacity = config.portBufferCapacity;
        sc.switchSleepDelay = config.switchSleepDelay;
        const auto &links = _topo.linksAt(node);
        for (LinkId l : links)
            sc.portRates.push_back(_topo.link(l).rate);
        auto sw = std::make_unique<Switch>(sim, sc, profile);
        sw->setForwardingDelay(config.switchForwardDelay);
        for (unsigned p = 0; p < links.size(); ++p) {
            LinkId l = links[p];
            _ends[endOf(node, l)] = LinkEnd{sc.id, p};
            NodeId far = _topo.otherEnd(l, node);
            Tick lat = _topo.link(l).latency;
            sw->port(p).setDeliver(
                [this, far, lat](const PacketPtr &pkt) {
                    scheduleAfterDelay(lat, [this, pkt, far] {
                        packetArrived(pkt, far);
                    });
                });
        }
        _switches.push_back(std::move(sw));
    }
    _flowMgr.setReleaseHook(
        [this](std::span<const std::uint32_t> path) { releasePorts(path); });
}

Network::~Network() = default;

void
Network::scheduleAfterDelay(Tick delay, std::function<void()> fn)
{
    _oneShots.schedule(delay, std::move(fn));
}

std::size_t
Network::endOf(NodeId n, LinkId l) const
{
    const LinkInfo &li = _topo.link(l);
    if (li.a != n && li.b != n)
        HOLDCSIM_PANIC("link ", l, " not attached to node ", n);
    return 2 * std::size_t{l} + (li.a == n ? 0 : 1);
}

void
Network::releasePorts(std::span<const std::uint32_t> path)
{
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const LinkEnd &in = _ends[path[i]];
        if (in.sw != noSwitch)
            _switches[in.sw]->flowEnded(in.port, _ends[path[i + 1] ^ 1].port);
    }
}

// --------------------------------------------------------------- flow model

FlowId
Network::startFlow(std::size_t src_server, std::size_t dst_server,
                   Bytes bytes, std::function<void()> on_done,
                   std::function<void()> on_abort)
{
    NodeId src = _topo.serverNode(src_server);
    NodeId dst = _topo.serverNode(dst_server);
    if (!_routing.route(src, dst, (_nextPacketId << 1) | 1, _route)) {
        // Partitioned fabric: report the failure asynchronously so
        // the caller never re-enters itself from startFlow().
        scheduleAfterDelay(0, [cb = std::move(on_abort)] {
            if (cb)
                cb();
        });
        return invalidFlow;
    }
    ++_nextPacketId;

    // Wake everything on the path and register the flow on every
    // traversed switch port pair; releasePorts() ends it there.
    Tick wake_delay = 0;
    for (std::size_t i = 1; i + 1 < _route.nodes.size(); ++i) {
        NodeId n = _route.nodes[i];
        const LinkEnd &in = _ends[endOf(n, _route.links[i - 1])];
        if (in.sw == noSwitch) {
            wake_delay += _config.serverRelayDelay;
            continue;
        }
        const LinkEnd &out = _ends[endOf(n, _route.links[i])];
        wake_delay += _switches[in.sw]->flowStarted(in.port, out.port);
    }
    FlowId id = _flowMgr.startFlow(_route, bytes, std::move(on_done),
                                   wake_delay);
    if (on_abort)
        _flowMgr.setAbortCallback(id, std::move(on_abort));
    return id;
}

// ------------------------------------------------------------ fault support

std::size_t
Network::failLink(LinkId l)
{
    if (!_routing.linkHealthy(l))
        return 0;
    _routing.setLinkHealth(l, false);
    return _flowMgr.abortFlowsOn(l);
}

void
Network::repairLink(LinkId l)
{
    _routing.setLinkHealth(l, true);
}

std::size_t
Network::failSwitch(std::size_t sw_idx)
{
    NodeId node = _topo.switchNode(sw_idx);
    if (!_routing.nodeHealthy(node))
        return 0;
    _routing.setNodeHealth(node, false);
    _switches.at(sw_idx)->setFailed(true);
    std::size_t killed = 0;
    for (LinkId l : _topo.linksAt(node))
        killed += _flowMgr.abortFlowsOn(l);
    return killed;
}

void
Network::repairSwitch(std::size_t sw_idx)
{
    _routing.setNodeHealth(_topo.switchNode(sw_idx), true);
    _switches.at(sw_idx)->setFailed(false);
}

std::vector<LinkId>
Network::linecardLinks(std::size_t sw_idx, unsigned lc_idx) const
{
    NodeId node = _topo.switchNode(sw_idx);
    const auto &links = _topo.linksAt(node);
    std::vector<LinkId> out;
    unsigned first = lc_idx * _config.portsPerLinecard;
    for (unsigned p = first;
         p < first + _config.portsPerLinecard && p < links.size(); ++p) {
        out.push_back(links[p]);
    }
    return out;
}

std::size_t
Network::failLinecard(std::size_t sw_idx, unsigned lc_idx)
{
    std::size_t killed = 0;
    for (LinkId l : linecardLinks(sw_idx, lc_idx))
        killed += failLink(l);
    return killed;
}

void
Network::repairLinecard(std::size_t sw_idx, unsigned lc_idx)
{
    for (LinkId l : linecardLinks(sw_idx, lc_idx))
        repairLink(l);
}

bool
Network::serversReachable(std::size_t src_server, std::size_t dst_server)
{
    return _routing.reachable(_topo.serverNode(src_server),
                              _topo.serverNode(dst_server));
}

// ------------------------------------------------------------- packet model

void
Network::sendPacket(std::size_t src_server, std::size_t dst_server,
                    Bytes bytes,
                    std::function<void(const Packet &)> on_delivered,
                    std::function<void(const Packet &)> on_dropped)
{
    NodeId src = _topo.serverNode(src_server);
    NodeId dst = _topo.serverNode(dst_server);
    auto pkt = std::make_shared<Packet>();
    pkt->id = _nextPacketId++;
    pkt->src = src;
    pkt->dst = dst;
    pkt->bytes = bytes;
    pkt->sentAt = _sim.curTick();
    pkt->onDelivered = std::move(on_delivered);
    pkt->onDropped = std::move(on_dropped);

    if (!_routing.route(src, dst, pkt->id, pkt->route) && src != dst) {
        // No healthy path: the packet is lost (asynchronously, so
        // the caller sees uniform callback timing).
        scheduleAfterDelay(0, [this, pkt] { dropPacket(pkt); });
        return;
    }

    if (src == dst) {
        // Local delivery.
        scheduleAfterDelay(0, [this, pkt] { packetArrived(pkt, pkt->dst); });
        return;
    }
    // Source server NIC: packets serialize one after another onto
    // the first link (FIFO NIC queue), then cross it.
    const LinkInfo &l0 = _topo.link(pkt->route.links[0]);
    Tick ser = serializationDelay(bytes, l0.rate);
    Tick &nic_free = _nicFreeAt[src_server];
    Tick start = std::max(nic_free, _sim.curTick());
    nic_free = start + ser;
    NodeId next = pkt->route.nodes[1];
    pkt->hop = 1;
    scheduleAfterDelay(nic_free - _sim.curTick() + l0.latency,
                       [this, pkt, next] { packetArrived(pkt, next); });
}

void
Network::packetArrived(const PacketPtr &pkt, NodeId at)
{
    if (at == pkt->dst) {
        ++_packetsDelivered;
        _packetLatency.sample(toSeconds(_sim.curTick() - pkt->sentAt));
        if (pkt->onDelivered)
            pkt->onDelivered(*pkt);
        return;
    }
    // Relay: a switch queues on the egress port; a relay server
    // store-and-forwards with its own fixed delay.
    if (_topo.isSwitch(at)) {
        forwardFrom(pkt, at, 0);
    } else {
        forwardFrom(pkt, at, _config.serverRelayDelay);
    }
}

void
Network::forwardFrom(const PacketPtr &pkt, NodeId at, Tick extra)
{
    if (pkt->hop >= pkt->route.links.size())
        HOLDCSIM_PANIC("packet ", pkt->id, " ran past its route");
    LinkId next_link = pkt->route.links[pkt->hop];
    ++pkt->hop;
    if (!_routing.linkHealthy(next_link)) {
        // The link died while the packet was in flight.
        dropPacket(pkt);
        return;
    }
    const LinkEnd &out = _ends[endOf(at, next_link)];
    if (out.sw != noSwitch) {
        if (!_switches[out.sw]->forwardPacket(pkt, out.port))
            dropPacket(pkt);
        return;
    }
    // Relay server: serialize onto the next link after the relay
    // delay (no queuing model at relay servers).
    const LinkInfo &li = _topo.link(next_link);
    NodeId next = _topo.otherEnd(next_link, at);
    Tick ser = serializationDelay(pkt->bytes, li.rate);
    scheduleAfterDelay(extra + ser + li.latency, [this, pkt, next] {
        packetArrived(pkt, next);
    });
}

void
Network::dropPacket(const PacketPtr &pkt)
{
    ++_packetsDropped;
    if (pkt->onDropped)
        pkt->onDropped(*pkt);
}

void
Network::sendBulk(std::size_t src_server, std::size_t dst_server,
                  Bytes bytes,
                  std::function<void(std::uint64_t)> on_done)
{
    Bytes mtu = _config.mtuBytes;
    std::uint64_t n_packets = bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
    auto state = std::make_shared<std::pair<std::uint64_t,
                                            std::uint64_t>>(0, 0);
    auto step = [state, n_packets, cb = std::move(on_done)](
                    bool dropped) {
        state->first += 1;
        state->second += dropped ? 1 : 0;
        if (state->first == n_packets && cb)
            cb(state->second);
    };
    for (std::uint64_t i = 0; i < n_packets; ++i) {
        Bytes chunk = std::min<Bytes>(mtu, bytes - i * mtu);
        if (bytes == 0)
            chunk = 0;
        sendPacket(src_server, dst_server, chunk,
                   [step](const Packet &) { step(false); },
                   [step](const Packet &) { step(true); });
    }
}

// ---------------------------------------------------------- policy support

unsigned
Network::sleepingSwitchesOnPath(std::size_t src_server,
                                std::size_t dst_server)
{
    NodeId src = _topo.serverNode(src_server);
    NodeId dst = _topo.serverNode(dst_server);
    Route route;
    if (!_routing.route(src, dst, 0, route)) {
        // Prohibitive cost: policies weighing wake cost must never
        // pick a destination they cannot reach.
        return std::numeric_limits<unsigned>::max();
    }
    unsigned count = 0;
    for (NodeId n : route.nodes) {
        if (_topo.isSwitch(n) &&
            _switches[_topo.switchIndex(n)]->asleep()) {
            ++count;
        }
    }
    return count;
}

unsigned
Network::sleepingSwitches() const
{
    unsigned count = 0;
    for (const auto &sw : _switches)
        count += sw->asleep();
    return count;
}

// ------------------------------------------------------------ power & stats

Watts
Network::switchPower() const
{
    Watts total = 0.0;
    for (const auto &sw : _switches)
        total += sw->power();
    return total;
}

Joules
Network::switchEnergy() const
{
    Joules total = 0.0;
    for (const auto &sw : _switches)
        total += sw->energy();
    return total;
}

void
Network::accrue()
{
    for (auto &sw : _switches)
        sw->accrue();
}

void
Network::finishStats()
{
    for (auto &sw : _switches)
        sw->finishStats();
}

} // namespace holdcsim
