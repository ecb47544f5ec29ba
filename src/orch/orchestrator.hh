/**
 * @file
 * The container orchestration layer (control plane).
 *
 * Sits between the workload and the global scheduler: jobs tagged
 * with an orchestration group have their tasks routed to a container
 * replica of the matching deployment instead of the bare-server
 * dispatch policy. The orchestrator owns
 *
 *  - placement: pending containers are bound to servers by a
 *    pluggable PlacementPolicy under core/memory accounting with an
 *    optional overcommit cap;
 *  - a periodic reconciler: places stragglers, advances rolling
 *    updates (surge one fresh replica, retire one stale replica per
 *    pass) and runs the threshold autoscaler;
 *  - live migration, started only by migrate() and drainServer():
 *    iterative dirty-page pre-copy rounds are real flows through the
 *    modeled fabric (round r re-dirties memBytes * dirtyFrac^r, so
 *    migrated bytes are a deterministic function of the model --
 *    identical across network tiers -- while durations follow
 *    topology, link health and tier), ending in a stop-and-copy
 *    downtime window during which new tasks for the container are
 *    deferred;
 *  - degradation models: co-located containers on an overcommitted
 *    server take an interference slowdown, and containers whose
 *    remote-memory home is across the fabric take a latency
 *    multiplier proportional to the path latency (DRackSim-style);
 *  - crash response: a server going down reschedules its containers
 *    (and aborts migrations touching it) so retried tasks land on
 *    the replacement replica.
 *
 * Everything is deterministic: decisions depend only on simulated
 * state, never on host randomness or wall-clock.
 */

#ifndef HOLDCSIM_ORCH_ORCHESTRATOR_HH
#define HOLDCSIM_ORCH_ORCHESTRATOR_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "container.hh"
#include "placement.hh"
#include "sched/global_scheduler.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

class Network;
class StatGroup;

/** Orchestrator-wide knobs (the `[orch]` config section). */
struct OrchConfig {
    /** Placement policy: bin_pack | spread | affinity. */
    std::string placement = "bin_pack";
    /** Reconciler period. */
    Tick reconcilePeriod = 1 * sec;
    /** Core overcommit cap: placement may reserve up to
     *  numCores * overcommit cores per server. */
    double overcommit = 1.0;
    /** Local memory capacity per server. */
    Bytes serverMemBytes = static_cast<Bytes>(64) << 30;
    /**
     * Interference slowdown per unit of core overcommit: tasks on a
     * server with reserved cores C > physical cores P are inflated
     * by 1 + interference * (C - P) / P. 0 disables.
     */
    double interference = 0.0;
    /**
     * Remote-memory penalty per microsecond of one-way fabric path
     * latency between the compute host and the memory home,
     * weighted by the container's remote fraction. 0 disables.
     */
    double remoteMemPenaltyPerUs = 0.0;
    /** Threshold autoscaler master switch. */
    bool autoscale = false;
    /** Scale up when activeTasks / (replicas * cores) exceeds. */
    double autoscaleHigh = 0.75;
    /** Scale down when it falls below. */
    double autoscaleLow = 0.25;
    /** @name Dirty-page migration model */
    ///@{
    /** Fraction of copied memory re-dirtied per pre-copy round. */
    double migrationDirtyFrac = 0.25;
    /** Stop-and-copy once the dirty set shrinks to this. */
    Bytes migrationStopCopyBytes = static_cast<Bytes>(4) << 20;
    /** Hard cap on total copy rounds (incl. the downtime round). */
    unsigned migrationMaxRounds = 8;
    ///@}
};

/** The orchestration control plane. */
class Orchestrator
{
  public:
    /**
     * @param sim   engine
     * @param sched scheduler to install routing hooks into
     * @param net   fabric for migration flows and remote-memory
     *              latency; null disables migration (containers
     *              still place, interfere, and reschedule)
     * @param cfg   knobs
     *
     * Installs the task router into @p sched and arms the periodic
     * reconciler (a background event: it never keeps an otherwise
     * finished simulation alive).
     */
    Orchestrator(Simulator &sim, GlobalScheduler &sched, Network *net,
                 OrchConfig cfg = {});
    ~Orchestrator();
    Orchestrator(const Orchestrator &) = delete;
    Orchestrator &operator=(const Orchestrator &) = delete;

    /** @name Deployments */
    ///@{
    /** Create a deployment; its replicas place immediately (or stay
     *  pending until capacity appears). */
    DeploymentId createDeployment(DeploymentSpec spec);
    /**
     * Begin replacing every replica of @p d whose version is below
     * @p new_version: one surge replica is started per reconcile
     * pass and one stale replica drained once fresh capacity runs.
     */
    void beginRollingUpdate(DeploymentId d, int new_version);
    /** Whether any replica of @p d is stale or in flight. */
    bool updateInProgress(DeploymentId d) const;
    ///@}

    /** @name Live migration */
    ///@{
    /**
     * Start migrating container @p c to @p dst. False (and no state
     * change) when there is no fabric, the container is not
     * running, @p dst is the current host, down, or lacks capacity.
     */
    bool migrate(ContainerId c, std::size_t dst);
    /**
     * Live-migrate every container off @p server (maintenance
     * drain). Containers with no feasible destination stay. Returns
     * the number of migrations started.
     */
    std::size_t drainServer(std::size_t server);
    ///@}

    /** @name Fault wiring (FaultManager server hook) */
    ///@{
    void onServerDown(std::size_t idx);
    void onServerUp(std::size_t idx);
    ///@}

    /** Run one reconcile pass now (also runs periodically). */
    void reconcile();

    /** @name Introspection */
    ///@{
    std::size_t numContainers() const { return _containers.size(); }
    const Container &container(ContainerId c) const;
    /** Containers currently hosted on @p server. */
    std::vector<ContainerId> containersOn(std::size_t server) const;
    /** Running (routable) replicas of @p d. */
    unsigned runningReplicas(DeploymentId d) const;
    const DeploymentSpec &deploymentSpec(DeploymentId d) const;
    /** Current interference factor tasks placed on @p server get. */
    double interferenceScale(std::size_t server) const;
    /** Current remote-memory factor for @p c's placement. */
    double remoteMemScale(const Container &c) const;
    ///@}

    /** @name Statistics (orch.* stat group) */
    ///@{
    struct Stats {
        /** Containers bound to a server (initial + surge + crash
         *  re-placements). */
        std::uint64_t placements = 0;
        /** Placements forced by a host crash. */
        std::uint64_t reschedules = 0;
        std::uint64_t migrationsStarted = 0;
        std::uint64_t migrationsCompleted = 0;
        std::uint64_t migrationsAborted = 0;
        /** Bytes landed by completed migration rounds. */
        Bytes migratedBytes = 0;
        /** Total stop-and-copy wall time. */
        Tick totalDowntime = 0;
        /** Extra nominal service seconds from interference. */
        double interferenceInflatedSec = 0.0;
        /** Extra nominal service seconds from remote memory. */
        double remoteMemInflatedSec = 0.0;
        std::uint64_t tasksRouted = 0;
        std::uint64_t tasksDeferred = 0;
        std::uint64_t autoscaleUps = 0;
        std::uint64_t autoscaleDowns = 0;
    };
    const Stats &stats() const { return _stats; }
    /** Containers currently routable. */
    std::size_t containersRunning() const;
    void addStats(StatGroup &g) const;
    /** Zero counters (end of warmup); placements stand. */
    void resetStats() { _stats = Stats{}; }
    ///@}

  private:
    struct Deployment {
        DeploymentSpec spec;
        /** Rolling-update target; == spec.version when idle. */
        int targetVersion;
        /** Replica ids, live and stopped (stopped stay for audit). */
        std::vector<ContainerId> replicas;
        /** Tasks parked until a replica becomes routable. */
        std::deque<std::pair<JobId, TaskId>> deferred;
    };

    /** Per-server reservation books. */
    struct ServerAlloc {
        double cores = 0.0;
        Bytes mem = 0;
        unsigned containers = 0;
        bool down = false;
    };

    GlobalScheduler::TaskRoute routeTask(const TaskRef &ref);
    void taskClosed(JobId job, TaskId task, bool done);

    Container &mut(ContainerId c) { return _containers.at(c); }
    Deployment &dep(DeploymentId d) { return _deployments.at(d); }

    /** Start one new replica (pending; placed immediately if
     *  possible). */
    ContainerId startContainer(DeploymentId d, int version);
    /** Bind a pending container to a server. False = no fit. */
    bool placeContainer(Container &c);
    /** Stop accepting tasks; stop fully when the last one ends. */
    void drainContainer(Container &c);
    void stopContainer(Container &c);
    /** Release the reservation @p c holds on @p server. */
    void release(std::size_t server, const ContainerSpec &spec);
    void reserve(std::size_t server, const ContainerSpec &spec);
    bool fits(std::size_t server, const ContainerSpec &spec) const;
    /** Local (non-disaggregated) memory charge of @p spec. */
    static Bytes localMem(const ContainerSpec &spec);

    void startMigrationRound(Container &c);
    void onMigrationRoundDone(ContainerId c);
    void onMigrationAborted(ContainerId c);
    void completeMigration(Container &c);

    /** Re-route every task parked on @p d. */
    void releaseDeferred(Deployment &d);
    void reconcileDeployment(DeploymentId id);
    void autoscaleDeployment(DeploymentId id);

    /** One-way fabric path latency between two servers. */
    Tick pathLatency(std::size_t a, std::size_t b) const;

    /** Tracer when the orch category is enabled, else null. */
    TraceManager *tracer();
    void traceContainer(Container &c, const std::string &state);
    void traceEvent(const std::string &name);

    Simulator &_sim;
    GlobalScheduler &_sched;
    Network *_net;
    OrchConfig _cfg;
    std::unique_ptr<PlacementPolicy> _policy;

    std::vector<Container> _containers;
    std::vector<Deployment> _deployments;
    /** group -> deployment serving it. */
    std::map<int, DeploymentId> _groups;
    std::vector<ServerAlloc> _alloc;
    /** Routed task attempt -> serving container. */
    std::map<std::pair<JobId, TaskId>, ContainerId> _routed;

    EventFunctionWrapper _reconcileEvent;
    Stats _stats;

    TraceTrackId _eventTrack = noTraceTrack;
    std::vector<TraceTrackId> _containerTracks;
};

} // namespace holdcsim

#endif // HOLDCSIM_ORCH_ORCHESTRATOR_HH
