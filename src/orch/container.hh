/**
 * @file
 * Container and deployment descriptions for the orchestration layer.
 *
 * A container is a long-lived unit of capacity: it reserves cores and
 * memory on one server and serves the tasks of jobs tagged with its
 * deployment's orchestration group. A deployment is a replicated set
 * of identical containers managed toward a desired replica count and
 * image version (rolling updates, autoscaling).
 *
 * Memory may be partially disaggregated (DRackSim-style): the
 * remote-memory fraction of a container stays on the server where the
 * container first started (its memory home) even when live migration
 * moves the compute elsewhere -- at the price of a fabric-latency
 * multiplier on service times.
 */

#ifndef HOLDCSIM_ORCH_CONTAINER_HH
#define HOLDCSIM_ORCH_CONTAINER_HH

#include <cstdint>
#include <string>

#include "network/flow_manager.hh"
#include "sim/types.hh"

namespace holdcsim {

/** Identifies one container instance (process-wide, never reused). */
using ContainerId = std::uint32_t;
/** Identifies one deployment. */
using DeploymentId = std::uint32_t;

/** "No server" sentinel for container placement fields. */
constexpr std::size_t noServer = ~static_cast<std::size_t>(0);

/** Resource request of one container replica. */
struct ContainerSpec {
    /** Requested cores (fractional allowed). */
    double cores = 1.0;
    /** Requested memory; also the live-migration pre-copy size. */
    Bytes memBytes = static_cast<Bytes>(512) << 20;
    /**
     * Fraction of memory on the disaggregated tier in [0, 1]. The
     * remote part is pinned to the memory home and accessed over the
     * fabric once the compute migrates away.
     */
    double remoteMemFrac = 0.0;
};

/** Container lifecycle. */
enum class ContainerState : std::uint8_t {
    /** Wants to run; no server found yet (reconciler retries). */
    pending,
    /** Placed and serving tasks. */
    running,
    /** Live migration pre-copy; still serving tasks on the source. */
    migrating,
    /** Stop-and-copy window: tasks stall until the switch-over. */
    downtime,
    /** No longer accepts tasks; stops when the last task finishes. */
    draining,
    /** Gone; resources released. */
    stopped,
};

const char *toString(ContainerState s);

/** Desired state of one replicated container set. */
struct DeploymentSpec {
    std::string name = "svc";
    ContainerSpec container;
    /** Desired replica count (autoscaler moves it within bounds). */
    unsigned replicas = 1;
    /** Autoscaler bounds on the replica count. */
    unsigned minReplicas = 1;
    unsigned maxReplicas = 8;
    /** Never co-locate two replicas on one server (best effort:
     *  relaxed when no other server fits, e.g. after crashes). */
    bool antiAffinity = false;
    /** Jobs with this orchestration group route here. */
    int group = 0;
    /** Image version; rolling updates raise the target. */
    int version = 1;
};

/** One container instance and its runtime state. */
struct Container {
    ContainerId id = 0;
    DeploymentId deployment = 0;
    ContainerSpec spec;
    ContainerState state = ContainerState::pending;
    /** Compute host (source host while migrating); noServer when
     *  pending/stopped. */
    std::size_t server = noServer;
    /** Memory home: server of the first placement (see file intro). */
    std::size_t memHome = noServer;
    int version = 1;
    /** Task attempts currently routed to this container. */
    unsigned activeTasks = 0;
    /** True while being retired by a rolling update / scale-down. */
    bool draining = false;

    /** Live-migration bookkeeping (valid in migrating/downtime). */
    struct Migration {
        std::size_t dst = noServer;
        /** Completed copy rounds (round 0 = full memory). */
        unsigned round = 0;
        /** Bytes of the in-flight round. */
        Bytes roundBytes = 0;
        FlowId flow = 0;
        bool inDowntime = false;
        Tick downtimeStart = 0;
        /** Bytes landed over all completed rounds. */
        Bytes bytesDone = 0;
    };
    Migration mig;

    /** Whether new tasks may be routed here right now. */
    bool
    routable() const
    {
        return !draining && (state == ContainerState::running ||
                             state == ContainerState::migrating);
    }
};

} // namespace holdcsim

#endif // HOLDCSIM_ORCH_CONTAINER_HH
