/**
 * @file
 * Flow-based communication (paper section III-B): dependent tasks
 * exchange data as flows that share link bandwidth max-min fairly.
 *
 * "Multiple flows or packets can simultaneously travel along a link
 * if it has not yet been saturated" -- whenever a flow starts,
 * finishes or is aborted, FlowManager re-solves the max-min fair
 * allocation (progressive filling) for the flows the change can
 * affect and reschedules their completion events.
 *
 * The solver picks that dirty set itself. It walks the component of
 * the "shares a directed link" relation outward from the changed
 * flow's links (lazy partial invalidation, after SimGrid's surf
 * layer): max-min decomposes over components, so rates outside it
 * stay exact and an update costs O(component), the win for local
 * traffic. When one component holds nearly every flow (inter-pod
 * ECMP traffic) the walk is overhead, so once it has marked more
 * than 4/5 of the enrolled flows it is abandoned: every active flow
 * is re-solved in FlowId order, and so are the next 15 changes,
 * without walking. endBulkLoad() goes global without such a streak.
 * bench/bench_scaling measures both sides. A resolve settles the dirty
 * flows' transferred bits (clean flows keep progressing linearly at
 * unchanged rates), water-fills them and reschedules completions.
 *
 * Transfers of at most `fast_path_kb` never enter the solver: they
 * complete after path latency plus serialization at the bottleneck
 * link rate (constant-latency model, SimGrid's network_constant).
 */

#ifndef HOLDCSIM_NETWORK_FLOW_MANAGER_HH
#define HOLDCSIM_NETWORK_FLOW_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "routing.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "telemetry/trace_manager.hh"
#include "topology.hh"

namespace holdcsim {

/** Identifier of an in-flight flow. */
using FlowId = std::uint64_t;

/**
 * Solver cost counters, surfaced as `network.solver_*` stats (all
 * but globalResolves, which the telemetry sampler reports).
 */
struct NetSolverStats {
    /** Bandwidth-share solver invocations. */
    std::uint64_t resolves = 0;
    /** Flows whose rate was recomputed, summed over all resolves. */
    std::uint64_t resolvedFlows = 0;
    /** Directed links visited by the solver, summed. */
    std::uint64_t dirtyLinks = 0;
    /** Largest single resolve, in flows (dirty-set high-water). */
    std::uint64_t maxDirtyFlows = 0;
    /** Transfers completed analytically, never entering the solver. */
    std::uint64_t fastPathHits = 0;
    /** Resolves that re-solved every active flow. */
    std::uint64_t globalResolves = 0;

    /** Mean dirty-set size per resolve (the invalidation win). */
    double
    meanDirtyFlows() const
    {
        return resolves == 0
                   ? 0.0
                   : static_cast<double>(resolvedFlows) /
                         static_cast<double>(resolves);
    }
};

/**
 * Analytic completion time of a fast-path transfer along @p route:
 * the sum of per-hop propagation latencies plus serialization of
 * @p bytes at the slowest link on the path.
 */
Tick fastPathDuration(const Topology &topo, const Route &route,
                      Bytes bytes);

/** Max-min fair flow scheduler over a topology. */
class FlowManager
{
  public:
    using FlowDoneFn = std::function<void()>;

    /**
     * Transfers of at most @p fast_path_bytes bypass the solver and
     * complete analytically; 0 disables the fast path.
     */
    FlowManager(Simulator &sim, const Topology &topo,
                Bytes fast_path_bytes = 0);
    ~FlowManager();
    FlowManager(const FlowManager &) = delete;
    FlowManager &operator=(const FlowManager &) = delete;

    /**
     * Start a flow of @p bytes along @p route. The flow joins the
     * bandwidth competition after @p start_delay (switch wake time)
     * and @p on_done fires when the last byte is delivered.
     * A zero-hop route (local communication) completes after
     * start_delay alone.
     */
    FlowId startFlow(Route route, Bytes bytes, FlowDoneFn on_done,
                     Tick start_delay = 0);

    /**
     * Abort flow @p flow: its completion never fires and its abort
     * callback (if set) is invoked. Returns whether the flow existed.
     */
    bool abortFlow(FlowId flow);

    /**
     * Abort every flow (active or pending) whose route traverses
     * link @p l -- the link just failed. Returns how many died.
     */
    std::size_t abortFlowsOn(LinkId l);

    /** Register the abort callback for flow @p flow. */
    void setAbortCallback(FlowId flow, FlowDoneFn on_abort);

    /** Number of flows currently transferring or pending start. */
    std::size_t activeFlows() const { return _flows.size(); }

    /** Current fair-share rate of @p flow (0 if pending/unknown). */
    BitsPerSec flowRate(FlowId flow) const;

    /**
     * Current utilization of link @p l in [0, 1]: the busier
     * direction's allocated share over capacity.
     */
    double linkUtilization(LinkId l) const;

    /**
     * @name Bulk load (warm-start)
     * Between beginBulkLoad() and endBulkLoad(), flow activations
     * skip the per-change re-solve; endBulkLoad() settles and
     * re-solves once. Intended for installing a large standing flow
     * population at a single simulated instant (benchmarks, campaign
     * warm starts): when no simulated time elapses inside the bulk
     * window the resulting rates are identical to per-flow
     * activation, at O(population) instead of O(population^2) cost.
     */
    ///@{
    void beginBulkLoad() { _bulk = true; }
    void endBulkLoad();
    ///@}

    /** Completed-flow count and transfer-latency statistics. */
    std::uint64_t flowsCompleted() const { return _flowsCompleted; }
    /** Flows killed by faults/cancellation. */
    std::uint64_t flowsAborted() const { return _flowsAborted; }
    const Percentile &flowLatency() const { return _flowLatency; }

    /** Solver cost counters (resolves, dirty sets, fast-path hits). */
    const NetSolverStats &solverStats() const { return _solverStats; }

  private:
    struct Flow {
        FlowId id;
        /** Dense directed-link indices (link * 2 + forward). */
        std::vector<std::uint32_t> pathIdx;
        /** This flow's slot in _linkFlows[pathIdx[i]] while active. */
        std::vector<std::uint32_t> linkPos;
        double remainingBits = 0.0;
        BitsPerSec rate = 0.0;
        Tick lastUpdate = 0;
        Tick startedAt = 0;
        bool active = false;
        /** Dirty-set visit mark (epoch counter, never cleared). */
        std::uint64_t visitEpoch = 0;
        FlowDoneFn onDone;
        FlowDoneFn onAbort;
        std::unique_ptr<EventFunctionWrapper> completion;
        std::unique_ptr<EventFunctionWrapper> activation;
    };

    void activate(FlowId id);
    void finish(FlowId id);
    /** Tracer (and shared flows track) if flow tracing is on. */
    TraceManager *flowTracer();

    /** Insert @p flow into the membership list of every path link. */
    void enroll(Flow &flow);
    /**
     * Swap-remove @p flow from its membership lists and seed its
     * links for the next resolve(): the bandwidth it frees can only
     * move flows reachable from them.
     */
    void unenroll(Flow &flow);
    /** Mark @p flow (and its links) dirty for the current epoch. */
    void markDirty(Flow &flow);

    /**
     * Form the dirty set (the component around _seedLinks, or every
     * active flow when @p global or as the file comment says),
     * settle, water-fill and reschedule it. Clears _seedLinks.
     */
    void resolve(bool global = false);
    /** Structured post-mortem + SimAbortError (solver got stuck). */
    [[noreturn]] void abortSolve(const std::string &what);

    Simulator &_sim;
    const Topology &_topo;
    Bytes _fastPathBytes;
    /** Ordered by id: a global resolve settles and reschedules so. */
    std::map<FlowId, Flow> _flows;
    FlowId _nextId = 0;
    /** Inside a beginBulkLoad()/endBulkLoad() window. */
    bool _bulk = false;

    /** Active flows crossing each directed link (swap-removal). */
    std::vector<std::vector<Flow *>> _linkFlows;
    /** Flows currently enrolled on their links (the active ones). */
    std::size_t _enrolled = 0;
    /** Resolves left that skip the walk after an abandoned one. */
    unsigned _globalStreak = 0;

    /**
     * @name resolve() scratch
     * Indexed by dense directed-link index and reused across calls,
     * so the hot path never allocates after warm-up. Epoch marks make
     * dirty-set membership O(1) with no clearing pass.
     */
    ///@{
    std::uint64_t _epoch = 0;
    std::vector<std::uint64_t> _linkEpoch;
    std::vector<std::uint32_t> _seedLinks; // walk seeds
    std::vector<std::uint32_t> _dirtyLinks;
    std::vector<Flow *> _dirtyFlows;
    std::vector<double> _capLeft;      // remaining capacity
    std::vector<unsigned> _usersLeft;  // unfrozen flows crossing
    std::vector<std::uint8_t> _isBottleneck; // snapshot, per round
    std::vector<Flow *> _unfrozen;           // round worklist
    ///@}

    std::uint64_t _flowsCompleted = 0;
    std::uint64_t _flowsAborted = 0;
    Percentile _flowLatency;
    NetSolverStats _solverStats;

    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_FLOW_MANAGER_HH
