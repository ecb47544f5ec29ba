#include "flow_manager.hh"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace holdcsim {

// Dirty-set scope rule (flow_manager.hh). On a 4-vCPU Xeon the
// component re-solve still wins at a 66/100-flow dirty set; the
// global one wins at 99/100 and on perfbench fattree_fanout (~93% of
// the active flows in one component), where the walk is overhead.
// The streak saves that walk (100 inter-pod flows: 38 against 49
// us/update; fattree_fanout 3.00 against 3.46 s), but also sends
// mixed traffic's small changes global, 4-7x dearer (ROADMAP).
constexpr std::size_t walkAbandonNum = 4, walkAbandonDen = 5;
constexpr unsigned globalStreak = 16;

Tick
fastPathDuration(const Topology &topo, const Route &route, Bytes bytes)
{
    Tick latency = 0;
    BitsPerSec bottleneck = std::numeric_limits<BitsPerSec>::infinity();
    for (LinkId l : route.links) {
        const LinkInfo &li = topo.link(l);
        latency += li.latency;
        bottleneck = std::min(bottleneck, li.rate);
    }
    if (route.links.empty() || bytes == 0)
        return latency;
    return latency + serializationDelay(bytes, bottleneck);
}

FlowManager::FlowManager(Simulator &sim, const Topology &topo,
                         Bytes fast_path_bytes)
    : _sim(sim), _topo(topo), _fastPathBytes(fast_path_bytes)
{
    const std::size_t n_dl = 2 * _topo.numLinks();
    _linkFlows.resize(n_dl);
    _linkEpoch.assign(n_dl, 0);
    _capLeft.resize(n_dl);
    _usersLeft.resize(n_dl);
    _isBottleneck.assign(n_dl, 0);
}

FlowManager::~FlowManager()
{
    for (Flow *flow = _head; flow; flow = flow->next) {
        if (flow->completion.scheduled())
            _sim.deschedule(flow->completion);
        if (flow->activation.scheduled())
            _sim.deschedule(flow->activation);
    }
}

TraceManager *
FlowManager::flowTracer()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::flow))
        return nullptr;
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("network", "flows");
    return tr;
}

FlowId
FlowManager::startFlow(const Route &route, Bytes bytes, FlowDoneFn on_done,
                       Tick start_delay)
{
    FlowId id = _nextId++;
    if (_freeSlots.empty()) {
        _slots.emplace_back(*this,
                            static_cast<std::uint32_t>(_slots.size()));
        _freeSlots.push_back(_slots.back().slot);
    }
    Flow &flow = _slots[_freeSlots.back()];
    _freeSlots.pop_back();
    _index.insert(id, flow.slot);
    flow.id = id;
    flow.remainingBits = static_cast<double>(bytes) * 8.0;
    flow.rate = 0.0;
    flow.lastUpdate = 0;
    flow.startedAt = _sim.curTick();
    flow.onDone = std::move(on_done);
    flow.prev = _tail;
    flow.next = nullptr;
    (_tail ? _tail->next : _head) = &flow;
    _tail = &flow;

    // Record the traversal direction on every hop.
    flow.pathIdx.resize(route.links.size());
    flow.linkPos.resize(route.links.size());
    for (std::size_t i = 0; i < route.links.size(); ++i) {
        LinkId l = route.links[i];
        bool forward = _topo.link(l).a == route.nodes[i];
        flow.pathIdx[i] = l * 2 + (forward ? 1 : 0);
    }

    // Constant-latency fast path: a short transfer never contends
    // for bandwidth -- it completes analytically after the path
    // latency plus serialization at the bottleneck link rate.
    bool fast = _fastPathBytes > 0 && bytes <= _fastPathBytes &&
                !route.links.empty();
    Tick delay = start_delay;
    if (fast) {
        ++_solverStats.fastPathHits;
        delay += fastPathDuration(_topo, route, bytes);
    }

    if (TraceManager *tr = flowTracer()) {
        tr->asyncBegin(_traceTrack, TraceCategory::flow, "flow", id,
                       _sim.curTick());
    }
    _sim.scheduleAfter(fast ? flow.completion : flow.activation, delay);
    return id;
}

void
FlowManager::enroll(Flow &flow)
{
    ++_enrolled;
    for (std::size_t i = 0; i < flow.pathIdx.size(); ++i) {
        auto &members = _linkFlows[flow.pathIdx[i]];
        flow.linkPos[i] = static_cast<std::uint32_t>(members.size());
        members.push_back(&flow);
    }
}

void
FlowManager::unenroll(Flow &flow)
{
    --_enrolled;
    for (std::size_t i = 0; i < flow.pathIdx.size(); ++i) {
        std::uint32_t dl = flow.pathIdx[i];
        _seedLinks.push_back(dl);
        auto &members = _linkFlows[dl];
        std::uint32_t pos = flow.linkPos[i];
        Flow *moved = members.back();
        members[pos] = moved;
        members.pop_back();
        if (moved == &flow)
            continue;
        // Tell the flow that slid into our slot where it now lives.
        // Shortest-path routes never repeat a directed link, so the
        // first match is the right hop.
        for (std::size_t j = 0; j < moved->pathIdx.size(); ++j) {
            if (moved->pathIdx[j] == dl) {
                moved->linkPos[j] = pos;
                break;
            }
        }
    }
}

FlowManager::Flow *
FlowManager::findFlow(FlowId id)
{
    std::uint32_t slot = _index.find(id);
    return slot == SlotIndex::npos ? nullptr : &_slots[slot];
}

void
FlowManager::activate(Flow &flow)
{
    if (flow.pathIdx.empty() || flow.remainingBits <= 0.0) {
        // Local or empty transfer: complete immediately.
        finish(flow);
        return;
    }
    flow.active = true;
    flow.lastUpdate = _sim.curTick();
    enroll(flow);
    if (_bulk)
        return; // endBulkLoad() solves once for everyone
    _seedLinks.insert(_seedLinks.end(), flow.pathIdx.begin(),
                      flow.pathIdx.end());
    resolve();
}

void
FlowManager::endBulkLoad()
{
    _bulk = false;
    if (_enrolled > 0)
        resolve(/*global=*/true);
}

void
FlowManager::finish(Flow &flow)
{
    FlowDoneFn done = std::move(flow.onDone);
    _flowLatency.sample(toSeconds(_sim.curTick() - flow.startedAt));
    ++_flowsCompleted;
    if (TraceManager *tr = flowTracer()) {
        tr->asyncEnd(_traceTrack, TraceCategory::flow, "flow", flow.id,
                     _sim.curTick());
    }
    retire(flow);
    if (done)
        done();
}

void
FlowManager::retire(Flow &flow)
{
    bool was_active = flow.active;
    if (was_active)
        unenroll(flow);
    flow.active = false;
    flow.onDone = nullptr;
    flow.onAbort = nullptr;
    (flow.prev ? flow.prev->next : _head) = flow.next;
    (flow.next ? flow.next->prev : _tail) = flow.prev;
    _index.erase(flow.id);
    if (was_active)
        resolve(); // the freed bandwidth goes to the survivors
    if (_release)
        _release(flow.pathIdx);
    _freeSlots.push_back(flow.slot);
}

void
FlowManager::markDirty(Flow &flow)
{
    flow.visitEpoch = _epoch;
    _dirtyFlows.push_back(&flow);
    for (std::uint32_t dl : flow.pathIdx) {
        if (_linkEpoch[dl] != _epoch) {
            _linkEpoch[dl] = _epoch;
            _dirtyLinks.push_back(dl);
        }
    }
}

void
FlowManager::abortSolve(const std::string &what)
{
    // The solver wedged: an internal inconsistency, not a user
    // error. Name the flows and links still in play so the
    // post-mortem pinpoints the offending state, then hand the
    // run to the campaign quarantine machinery.
    std::ostringstream detail;
    detail << what << "; " << _unfrozen.size()
           << " unfrozen flow(s):";
    std::size_t shown = 0;
    for (Flow *flow : _unfrozen) {
        if (++shown > 4) {
            detail << " ...";
            break;
        }
        detail << " flow " << flow->id << " links[";
        for (std::size_t i = 0; i < flow->pathIdx.size(); ++i) {
            std::uint32_t dl = flow->pathIdx[i];
            detail << (i ? " " : "") << dl / 2
                   << (dl & 1 ? "f" : "r") << ":cap="
                   << _capLeft[dl] << "/users=" << _usersLeft[dl];
        }
        detail << "]";
    }
    std::string reason = detail.str();
    _sim.abortDump(std::cerr, reason);
    throw SimAbortError(reason);
}

void
FlowManager::resolve(bool global)
{
    // 1: form the dirty set: walk the seeds' component (a dirty link
    // makes its flows dirty, a dirty flow its links) unless a global
    // streak runs, and abandon the walk once it grows too large.
    if (_seedLinks.empty() && !global)
        return;
    ++_epoch;
    _dirtyLinks.clear();
    _dirtyFlows.clear();
    if (!global && _globalStreak > 0) {
        --_globalStreak;
        global = true;
    } else if (!global) {
        for (std::uint32_t dl : _seedLinks) {
            if (_linkEpoch[dl] != _epoch) {
                _linkEpoch[dl] = _epoch;
                _dirtyLinks.push_back(dl);
            }
        }
        for (std::size_t i = 0; i < _dirtyLinks.size() && !global;
             ++i) {
            for (Flow *f : _linkFlows[_dirtyLinks[i]]) {
                if (f->visitEpoch != _epoch)
                    markDirty(*f);
            }
            global = _dirtyFlows.size() * walkAbandonDen >
                     _enrolled * walkAbandonNum;
        }
        if (global) {
            _globalStreak = globalStreak - 1;
            ++_epoch;
            _dirtyLinks.clear();
            _dirtyFlows.clear();
        }
    }
    if (global) {
        // Every active flow, in FlowId order.
        ++_solverStats.globalResolves;
        for (Flow *flow = _head; flow; flow = flow->next) {
            if (flow->active)
                markDirty(*flow);
        }
    }
    _seedLinks.clear();

    ++_solverStats.resolves;
    _solverStats.resolvedFlows += _dirtyFlows.size();
    _solverStats.dirtyLinks += _dirtyLinks.size();
    _solverStats.maxDirtyFlows = std::max(
        _solverStats.maxDirtyFlows,
        static_cast<std::uint64_t>(_dirtyFlows.size()));

    if (_dirtyFlows.empty())
        return;

    // 2: settle transferred bits for the dirty flows, whose rates
    // are about to change.
    Tick now = _sim.curTick();
    for (Flow *f : _dirtyFlows) {
        double transferred = f->rate * toSeconds(now - f->lastUpdate);
        f->remainingBits =
            std::max(0.0, f->remainingBits - transferred);
        f->lastUpdate = now;
    }

    // 3: progressive filling over the dirty set: repeatedly saturate
    // the most contended directed link and freeze its flows at the
    // bottleneck share. Every active flow on a dirty link is dirty,
    // so the restricted problem is self-contained and its solution
    // equals the global max-min allocation on these flows.
    for (std::uint32_t dl : _dirtyLinks) {
        _capLeft[dl] = _topo.link(dl / 2).rate;
        _usersLeft[dl] = 0;
    }
    for (Flow *f : _dirtyFlows) {
        for (std::uint32_t dl : f->pathIdx)
            ++_usersLeft[dl];
    }

    _unfrozen = _dirtyFlows;
    while (!_unfrozen.empty()) {
        // Find the directed link with the smallest per-flow share.
        double best_share = std::numeric_limits<double>::infinity();
        for (std::uint32_t dl : _dirtyLinks) {
            if (_usersLeft[dl] == 0)
                continue;
            double share = _capLeft[dl] / _usersLeft[dl];
            best_share = std::min(best_share, share);
        }
        if (!std::isfinite(best_share))
            abortSolve("flow solve found no bottleneck");

        // Snapshot the bottleneck link set for this round *before*
        // freezing anything: freezing a flow debits the links it
        // crosses, and comparing later flows against those mutated
        // shares mis-classifies links that were epsilon-tied at the
        // round's start (flows frozen above or below their true
        // max-min rate).
        double tolerance = 1e-9 * std::max(1.0, best_share);
        for (std::uint32_t dl : _dirtyLinks) {
            _isBottleneck[dl] =
                _usersLeft[dl] > 0 &&
                _capLeft[dl] / _usersLeft[dl] <=
                    best_share + tolerance;
        }

        // Freeze every flow crossing a bottleneck link at that share.
        std::size_t kept = 0;
        for (Flow *flow : _unfrozen) {
            bool frozen = false;
            for (std::uint32_t dl : flow->pathIdx) {
                if (_isBottleneck[dl]) {
                    frozen = true;
                    break;
                }
            }
            if (frozen) {
                flow->rate = best_share;
                for (std::uint32_t dl : flow->pathIdx) {
                    _capLeft[dl] =
                        std::max(0.0, _capLeft[dl] - best_share);
                    --_usersLeft[dl];
                }
            } else {
                _unfrozen[kept++] = flow;
            }
        }
        if (kept == _unfrozen.size()) {
            _unfrozen.resize(kept);
            abortSolve(detail::format(
                "flow solve made no progress at share ", best_share));
        }
        _unfrozen.resize(kept);
    }

    // 4: reschedule completion events at the new rates.
    for (Flow *f : _dirtyFlows) {
        if (f->completion.scheduled())
            _sim.deschedule(f->completion);
        if (f->rate <= 0.0)
            HOLDCSIM_PANIC("active flow ", f->id, " got zero rate");
        double seconds = f->remainingBits / f->rate;
        Tick eta = fromSeconds(seconds);
        _sim.schedule(f->completion, now + (eta > 0 ? eta : 1));
    }
}

bool
FlowManager::abortFlow(FlowId flow)
{
    Flow *found = findFlow(flow);
    if (!found)
        return false;
    Flow &f = *found;
    FlowDoneFn aborted = std::move(f.onAbort);
    if (f.completion.scheduled())
        _sim.deschedule(f.completion);
    if (f.activation.scheduled())
        _sim.deschedule(f.activation);
    ++_flowsAborted;
    if (TraceManager *tr = flowTracer()) {
        tr->instant(_traceTrack, TraceCategory::flow, "flow.abort",
                    _sim.curTick());
        tr->asyncEnd(_traceTrack, TraceCategory::flow, "flow", flow,
                     _sim.curTick());
    }
    retire(f);
    if (aborted)
        aborted();
    return true;
}

std::size_t
FlowManager::abortFlowsOn(LinkId l)
{
    // Pending and fast-path flows are not enrolled on any link, so
    // scan them all; this only runs on fault events.
    std::vector<FlowId> doomed;
    for (const Flow *flow = _head; flow; flow = flow->next) {
        for (std::uint32_t dl : flow->pathIdx) {
            if (dl / 2 == l) {
                doomed.push_back(flow->id);
                break;
            }
        }
    }
    for (FlowId id : doomed)
        abortFlow(id);
    return doomed.size();
}

void
FlowManager::setAbortCallback(FlowId flow, FlowDoneFn on_abort)
{
    Flow *found = findFlow(flow);
    if (!found)
        HOLDCSIM_PANIC("abort callback for unknown flow ", flow);
    found->onAbort = std::move(on_abort);
}

BitsPerSec
FlowManager::flowRate(FlowId flow) const
{
    std::uint32_t slot = _index.find(flow);
    if (slot == SlotIndex::npos || !_slots[slot].active)
        return 0.0;
    return _slots[slot].rate;
}

double
FlowManager::linkUtilization(LinkId l) const
{
    double fwd = 0.0, rev = 0.0;
    for (const Flow *f : _linkFlows[2 * l + 1])
        fwd += f->rate;
    for (const Flow *f : _linkFlows[2 * l])
        rev += f->rate;
    return std::max(fwd, rev) / _topo.link(l).rate;
}

} // namespace holdcsim
