/**
 * @file
 * Container orchestration walk-through: a 16-server fat tree runs a
 * 4-replica deployment under bursty (MMPP) load with delay-timer
 * power management on. The script then exercises the full control
 * plane at fixed simulated times:
 *
 *   t =  5 s  drain server 0 for maintenance -- every container on
 *             it live-migrates over the fabric (iterative dirty-page
 *             pre-copy rounds as real flows, then a stop-and-copy
 *             downtime window);
 *   t = 10 s  rolling deploy to image v2 -- one surge replica per
 *             reconcile pass, stale replicas drained as fresh ones
 *             come up.
 *
 * Containers request 2 cores each under a 2x overcommit cap, so
 * bin-packing co-locates them and the interference model inflates
 * their tasks' service times. A quarter of each container's memory is
 * disaggregated: once migration moves the compute away from its
 * memory home, the remote-memory latency multiplier kicks in.
 *
 * The migration byte count is a deterministic function of the
 * dirty-page model (round r ships memBytes * dirtyFrac^r), NOT of
 * flow timing: fabric changes alter migration durations but never
 * the orch.* placement/migration counts.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/orchestration
 */

#include <cstdio>
#include <memory>

#include "dc/datacenter.hh"
#include "workload/service.hh"

using namespace holdcsim;

int
main()
{
    DataCenterConfig cfg;
    cfg.nCores = 4;
    cfg.seed = 42;
    cfg.fabric = DataCenterConfig::Fabric::fatTree;
    cfg.fabricParam = 4; // 16 servers
    cfg.linkRate = 1e9;
    // Power management on: idle servers suspend after 200 ms.
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 200 * msec;

    cfg.orch.enabled = true;
    cfg.orch.placement = "bin_pack";
    cfg.orch.reconcilePeriod = 500 * msec;
    cfg.orch.overcommit = 2.0;
    cfg.orch.interference = 0.3;
    cfg.orch.remoteMemPenaltyPerUs = 0.002;
    cfg.orch.replicas = 4;
    cfg.orch.maxReplicas = 8;
    cfg.orch.containerCores = 2.0;
    cfg.orch.containerMemBytes = static_cast<Bytes>(64) << 20;
    cfg.orch.remoteMemFrac = 0.25;
    cfg.orch.migrationDirtyFrac = 0.25;
    cfg.orch.migrationStopCopyBytes = static_cast<Bytes>(4) << 20;
    DataCenter dc(cfg);
    Orchestrator &orch = *dc.orchestrator();

    // Diurnal-style bursty load: 1.5 s bursts at 4x the quiet rate.
    auto service = std::make_shared<ExponentialService>(
        20 * msec, dc.makeRng("service"));
    SingleTaskGenerator jobs(service);
    const Tick horizon = 20 * sec;
    dc.pump(std::make_unique<Mmpp2Arrival>(400.0, 100.0, 1.5, 3.0,
                                           dc.makeRng("arrivals")),
            jobs, static_cast<std::size_t>(-1), horizon);

    std::printf("orchestration demo: 16-server fat tree, 4 replicas "
                "@ 2 cores under 2x overcommit\n");

    // t = 5 s: maintenance drain of the bin-packed server.
    dc.runUntil(5 * sec);
    std::size_t packed = orch.container(0).server;
    std::size_t moves = orch.drainServer(packed);
    std::printf("t=5s   draining server %zu: %zu live migrations "
                "started\n", packed, moves);

    // t = 10 s: rolling deploy to v2 (migrations long finished).
    dc.runUntil(10 * sec);
    orch.beginRollingUpdate(0, 2);
    std::printf("t=10s  rolling update to v2 begun\n");

    dc.runUntil(horizon);
    dc.run();
    std::printf("t=%.0fs update %s; %u replicas running\n",
                toSeconds(dc.sim().curTick()),
                orch.updateInProgress(0) ? "STILL IN FLIGHT" : "done",
                orch.runningReplicas(0));

    // The lines the CI job diffs across network tiers: every count
    // and the byte total must be tier-independent (timing-derived
    // stats like downtime seconds are not, and are printed last).
    const Orchestrator::Stats &s = orch.stats();
    std::printf("orch.placements %llu\n",
                static_cast<unsigned long long>(s.placements));
    std::printf("orch.migrations_started %llu\n",
                static_cast<unsigned long long>(s.migrationsStarted));
    std::printf("orch.migrations_completed %llu\n",
                static_cast<unsigned long long>(s.migrationsCompleted));
    std::printf("orch.migrations_aborted %llu\n",
                static_cast<unsigned long long>(s.migrationsAborted));
    std::printf("orch.migrated_bytes %llu\n",
                static_cast<unsigned long long>(s.migratedBytes));
    std::printf("orch.autoscale_up %llu\n",
                static_cast<unsigned long long>(s.autoscaleUps));
    std::printf("orch.total_downtime_s %.6f\n",
                toSeconds(s.totalDowntime));
    std::printf("orch.interference_inflated_s %.3f\n",
                s.interferenceInflatedSec);
    std::printf("orch.remote_mem_inflated_s %.3f\n",
                s.remoteMemInflatedSec);
    std::printf("jobs_completed %llu\n",
                static_cast<unsigned long long>(
                    dc.scheduler().jobsCompleted()));
    return 0;
}
