#include "orchestrator.hh"

#include <algorithm>
#include <cmath>

#include "network/network.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace holdcsim {

Orchestrator::Orchestrator(Simulator &sim, GlobalScheduler &sched,
                           Network *net, OrchConfig cfg)
    : _sim(sim), _sched(sched), _net(net), _cfg(std::move(cfg)),
      _policy(makePlacementPolicy(_cfg.placement)),
      _alloc(sched.servers().size()),
      _reconcileEvent([this] { reconcile(); }, "orch.reconcile")
{
    if (_cfg.reconcilePeriod == 0)
        fatal("orch reconcile period must be positive");
    if (_cfg.overcommit < 1.0)
        fatal("orch overcommit must be >= 1");
    if (_cfg.migrationDirtyFrac < 0.0 || _cfg.migrationDirtyFrac >= 1.0)
        fatal("orch migration dirty fraction must be in [0, 1)");
    if (_cfg.migrationMaxRounds == 0)
        fatal("orch migration needs at least one copy round");
    if (_net && _net->topology().numServers() < _alloc.size())
        fatal("network topology has fewer servers than the fleet");

    _sched.setTaskRouter(
        [this](const TaskRef &ref) { return routeTask(ref); },
        [this](JobId job, TaskId task, bool done) {
            taskClosed(job, task, done);
        });

    // Background: a reconciler alone never keeps the sim alive.
    _reconcileEvent.setBackground(true);
    _sim.schedule(_reconcileEvent, _sim.curTick() + _cfg.reconcilePeriod);
}

Orchestrator::~Orchestrator()
{
    // The scheduler outlives us (construction order); disarm the
    // hooks so no callback reaches a dead orchestrator.
    _sched.setTaskRouter(nullptr, nullptr);
    if (_reconcileEvent.scheduled())
        _sim.deschedule(_reconcileEvent);
}

// ---------------------------------------------------------------------
// Deployments

DeploymentId
Orchestrator::createDeployment(DeploymentSpec spec)
{
    if (spec.container.cores <= 0.0)
        fatal("container needs a positive core request");
    if (spec.container.remoteMemFrac < 0.0 ||
        spec.container.remoteMemFrac > 1.0) {
        fatal("container remote-memory fraction must be in [0, 1]");
    }
    if (spec.minReplicas == 0 || spec.minReplicas > spec.maxReplicas)
        fatal("deployment needs 1 <= min_replicas <= max_replicas");
    spec.replicas = std::clamp(spec.replicas, spec.minReplicas,
                               spec.maxReplicas);
    auto id = static_cast<DeploymentId>(_deployments.size());
    if (!_groups.emplace(spec.group, id).second)
        fatal("orchestration group ", spec.group,
              " already has a deployment");
    int version = spec.version;
    unsigned replicas = spec.replicas;
    _deployments.push_back(Deployment{std::move(spec), version, {}, {}});
    for (unsigned i = 0; i < replicas; ++i)
        startContainer(id, version);
    return id;
}

void
Orchestrator::beginRollingUpdate(DeploymentId d, int new_version)
{
    Deployment &dp = dep(d);
    if (new_version <= dp.targetVersion)
        return;
    dp.targetVersion = new_version;
    traceEvent("deploy" + std::to_string(d) + ".update.v" +
               std::to_string(new_version));
    reconcileDeployment(d);
}

bool
Orchestrator::updateInProgress(DeploymentId d) const
{
    const Deployment &dp = _deployments.at(d);
    for (ContainerId cid : dp.replicas) {
        const Container &c = _containers.at(cid);
        if (c.state != ContainerState::stopped &&
            c.version < dp.targetVersion) {
            return true;
        }
    }
    return false;
}

ContainerId
Orchestrator::startContainer(DeploymentId d, int version)
{
    auto id = static_cast<ContainerId>(_containers.size());
    Container c;
    c.id = id;
    c.deployment = d;
    c.spec = dep(d).spec.container;
    c.version = version;
    _containers.push_back(c);
    dep(d).replicas.push_back(id);
    placeContainer(_containers.back());
    return id;
}

// ---------------------------------------------------------------------
// Placement and reservation books

Bytes
Orchestrator::localMem(const ContainerSpec &spec)
{
    double local = static_cast<double>(spec.memBytes) *
                   (1.0 - spec.remoteMemFrac);
    return static_cast<Bytes>(std::llround(local));
}

bool
Orchestrator::fits(std::size_t server, const ContainerSpec &spec) const
{
    const ServerAlloc &a = _alloc.at(server);
    if (a.down)
        return false;
    double cap = _sched.servers()[server]->numCores() * _cfg.overcommit;
    if (a.cores + spec.cores > cap + 1e-9)
        return false;
    return a.mem + localMem(spec) <= _cfg.serverMemBytes;
}

void
Orchestrator::reserve(std::size_t server, const ContainerSpec &spec)
{
    ServerAlloc &a = _alloc.at(server);
    a.cores += spec.cores;
    a.mem += localMem(spec);
    ++a.containers;
}

void
Orchestrator::release(std::size_t server, const ContainerSpec &spec)
{
    ServerAlloc &a = _alloc.at(server);
    a.cores -= spec.cores;
    if (a.cores < 1e-9)
        a.cores = 0.0;
    Bytes m = localMem(spec);
    a.mem = a.mem >= m ? a.mem - m : 0;
    if (a.containers > 0)
        --a.containers;
}

bool
Orchestrator::placeContainer(Container &c)
{
    if (c.state != ContainerState::pending)
        HOLDCSIM_PANIC("placing container ", c.id, " in state ",
                       toString(c.state));
    const Deployment &dp = _deployments.at(c.deployment);

    std::vector<ServerView> views;
    views.reserve(_alloc.size());
    for (std::size_t s = 0; s < _alloc.size(); ++s) {
        if (!fits(s, c.spec))
            continue;
        ServerView v;
        v.index = s;
        double cap =
            _sched.servers()[s]->numCores() * _cfg.overcommit;
        v.coresFree = cap - _alloc[s].cores;
        v.memFree = _cfg.serverMemBytes - _alloc[s].mem;
        v.containers = _alloc[s].containers;
        for (ContainerId sib : dp.replicas) {
            const Container &o = _containers[sib];
            if (o.id != c.id && o.server == s &&
                o.state != ContainerState::stopped) {
                ++v.sameDeployment;
            }
        }
        views.push_back(v);
    }
    if (dp.spec.antiAffinity) {
        // Best effort: keep replicas apart, but a constrained fleet
        // (e.g. after crashes) beats staying pending.
        std::vector<ServerView> apart;
        for (const ServerView &v : views) {
            if (v.sameDeployment == 0)
                apart.push_back(v);
        }
        if (!apart.empty())
            views.swap(apart);
    }
    std::optional<std::size_t> pick = _policy->place(c.spec, views);
    if (!pick)
        return false;

    reserve(*pick, c.spec);
    c.server = *pick;
    if (c.memHome == noServer)
        c.memHome = *pick;
    c.state = ContainerState::running;
    ++_stats.placements;
    traceEvent("c" + std::to_string(c.id) + ".place.sv" +
               std::to_string(*pick));
    traceContainer(c, "sv" + std::to_string(*pick));
    releaseDeferred(_deployments.at(c.deployment));
    return true;
}

void
Orchestrator::drainContainer(Container &c)
{
    if (c.state == ContainerState::stopped || c.draining)
        return;
    if (c.state == ContainerState::pending) {
        stopContainer(c);
        return;
    }
    c.draining = true;
    if (c.state == ContainerState::running)
        c.state = ContainerState::draining;
    if (c.activeTasks == 0 && c.state == ContainerState::draining)
        stopContainer(c);
}

void
Orchestrator::stopContainer(Container &c)
{
    if (c.state == ContainerState::stopped)
        return;
    if (c.server != noServer)
        release(c.server, c.spec);
    c.server = noServer;
    c.state = ContainerState::stopped;
    c.draining = false;
    traceEvent("c" + std::to_string(c.id) + ".stop");
    traceContainer(c, "stopped");
}

// ---------------------------------------------------------------------
// Task routing (GlobalScheduler hooks)

GlobalScheduler::TaskRoute
Orchestrator::routeTask(const TaskRef &ref)
{
    GlobalScheduler::TaskRoute route;
    if (ref.orchGroup < 0)
        return route; // untagged: normal dispatch
    auto git = _groups.find(ref.orchGroup);
    if (git == _groups.end())
        return route; // no deployment serves this group
    Deployment &dp = _deployments[git->second];

    // Least-loaded routable replica; ties to the lowest id.
    Container *best = nullptr;
    for (ContainerId cid : dp.replicas) {
        Container &c = _containers[cid];
        if (!c.routable())
            continue;
        if (!best || c.activeTasks < best->activeTasks)
            best = &c;
    }
    if (!best) {
        // Every replica is pending, stopped or paused mid-migration:
        // stall until one comes (back) up.
        dp.deferred.emplace_back(ref.job, ref.task);
        ++_stats.tasksDeferred;
        route.action = GlobalScheduler::TaskRoute::Action::defer;
        return route;
    }

    double iscale = interferenceScale(best->server);
    double rscale = remoteMemScale(*best);
    double nominal = toSeconds(ref.serviceTime);
    _stats.interferenceInflatedSec += (iscale - 1.0) * nominal;
    _stats.remoteMemInflatedSec += (rscale - 1.0) * nominal;
    ++_stats.tasksRouted;
    ++best->activeTasks;
    _routed[{ref.job, ref.task}] = best->id;

    route.action = GlobalScheduler::TaskRoute::Action::pin;
    route.server = best->server;
    route.serviceScale = iscale * rscale;
    return route;
}

void
Orchestrator::taskClosed(JobId job, TaskId task, bool)
{
    auto it = _routed.find({job, task});
    if (it == _routed.end())
        return; // never routed (untagged job or deferred task)
    Container &c = _containers[it->second];
    _routed.erase(it);
    if (c.activeTasks > 0)
        --c.activeTasks;
    if (c.draining && c.activeTasks == 0 &&
        c.state == ContainerState::draining) {
        stopContainer(c);
    }
}

void
Orchestrator::releaseDeferred(Deployment &d)
{
    if (d.deferred.empty())
        return;
    // Swap the queue out first: tasks that still find no replica
    // re-defer into the fresh queue instead of looping forever.
    std::deque<std::pair<JobId, TaskId>> parked;
    parked.swap(d.deferred);
    for (const auto &[job, task] : parked)
        _sched.resumeTask(job, task);
}

// ---------------------------------------------------------------------
// Degradation models

double
Orchestrator::interferenceScale(std::size_t server) const
{
    if (_cfg.interference <= 0.0 || server == noServer)
        return 1.0;
    double demand = _alloc.at(server).cores;
    double phys = _sched.servers()[server]->numCores();
    if (demand <= phys)
        return 1.0;
    return 1.0 + _cfg.interference * (demand - phys) / phys;
}

double
Orchestrator::remoteMemScale(const Container &c) const
{
    if (_cfg.remoteMemPenaltyPerUs <= 0.0 ||
        c.spec.remoteMemFrac <= 0.0 || !_net ||
        c.server == noServer || c.memHome == noServer ||
        c.memHome == c.server) {
        return 1.0;
    }
    double us = toSeconds(pathLatency(c.server, c.memHome)) * 1e6;
    return 1.0 +
           c.spec.remoteMemFrac * _cfg.remoteMemPenaltyPerUs * us;
}

Tick
Orchestrator::pathLatency(std::size_t a, std::size_t b) const
{
    if (!_net || a == b)
        return 0;
    const Topology &topo = _net->topology();
    NodeId na = topo.serverNode(a);
    NodeId nb = topo.serverNode(b);
    if (!_net->routing().reachable(na, nb))
        return 0; // partitioned: no path to charge for
    Route r = _net->routing().route(na, nb, a * 31 + b);
    Tick total = 0;
    for (LinkId l : r.links)
        total += topo.link(l).latency;
    return total;
}

// ---------------------------------------------------------------------
// Live migration

bool
Orchestrator::migrate(ContainerId id, std::size_t dst)
{
    Container &c = mut(id);
    if (!_net || c.state != ContainerState::running || c.draining)
        return false;
    if (dst >= _alloc.size() || dst == c.server)
        return false;
    if (!fits(dst, c.spec))
        return false;

    reserve(dst, c.spec);
    c.mig = Container::Migration{};
    c.mig.dst = dst;
    ++_stats.migrationsStarted;
    traceEvent("c" + std::to_string(c.id) + ".migrate.sv" +
               std::to_string(c.server) + "-sv" + std::to_string(dst));
    startMigrationRound(c);
    return true;
}

std::size_t
Orchestrator::drainServer(std::size_t server)
{
    std::size_t started = 0;
    // Snapshot: migrate() mutates the books we select against.
    std::vector<ContainerId> on = containersOn(server);
    for (ContainerId cid : on) {
        Container &c = mut(cid);
        if (c.state != ContainerState::running || c.draining)
            continue;
        // Deterministic target: best placement fit elsewhere.
        std::size_t bestDst = noServer;
        double bestFree = -1.0;
        for (std::size_t s = 0; s < _alloc.size(); ++s) {
            if (s == server || !fits(s, c.spec))
                continue;
            double cap = _sched.servers()[s]->numCores() *
                         _cfg.overcommit;
            double free = cap - _alloc[s].cores;
            if (free > bestFree) {
                bestFree = free;
                bestDst = s;
            }
        }
        if (bestDst != noServer && migrate(cid, bestDst))
            ++started;
    }
    return started;
}

/** Dirty bytes left for copy round @p round (0 = full memory). */
static Bytes
dirtyBytesFor(const ContainerSpec &spec, double frac, unsigned round)
{
    double left = static_cast<double>(spec.memBytes) *
                  std::pow(frac, static_cast<double>(round));
    return static_cast<Bytes>(std::llround(left));
}

void
Orchestrator::startMigrationRound(Container &c)
{
    Bytes bytes = dirtyBytesFor(c.spec, _cfg.migrationDirtyFrac,
                                c.mig.round);
    // The round small enough to finish under a pause -- or the last
    // permitted one -- is the stop-and-copy: pause the container
    // (new tasks defer) and ship the final dirty set.
    bool final = bytes <= _cfg.migrationStopCopyBytes ||
                 c.mig.round + 1 >= _cfg.migrationMaxRounds;
    if (final && !c.mig.inDowntime) {
        c.mig.inDowntime = true;
        c.mig.downtimeStart = _sim.curTick();
        c.state = ContainerState::downtime;
        traceEvent("c" + std::to_string(c.id) + ".downtime");
        traceContainer(c, "downtime");
    } else if (!final) {
        c.state = ContainerState::migrating;
        traceContainer(c, "migrating-sv" + std::to_string(c.mig.dst));
    }
    c.mig.roundBytes = std::max<Bytes>(bytes, 1);
    ContainerId id = c.id;
    c.mig.flow = _net->startFlow(
        c.server, c.mig.dst, c.mig.roundBytes,
        [this, id] { onMigrationRoundDone(id); },
        [this, id] { onMigrationAborted(id); });
}

void
Orchestrator::onMigrationRoundDone(ContainerId id)
{
    Container &c = mut(id);
    c.mig.bytesDone += c.mig.roundBytes;
    _stats.migratedBytes += c.mig.roundBytes;
    if (c.mig.inDowntime) {
        completeMigration(c);
        return;
    }
    ++c.mig.round;
    startMigrationRound(c);
}

void
Orchestrator::completeMigration(Container &c)
{
    _stats.totalDowntime += _sim.curTick() - c.mig.downtimeStart;
    ++_stats.migrationsCompleted;
    release(c.server, c.spec);
    c.server = c.mig.dst;
    c.mig = Container::Migration{};
    c.state = ContainerState::running;
    traceContainer(c, "sv" + std::to_string(c.server));
    releaseDeferred(_deployments.at(c.deployment));
}

void
Orchestrator::onMigrationAborted(ContainerId id)
{
    Container &c = mut(id);
    if (c.state != ContainerState::migrating &&
        c.state != ContainerState::downtime) {
        return; // stale abort of an already-resolved migration
    }
    ++_stats.migrationsAborted;
    if (c.mig.inDowntime)
        _stats.totalDowntime += _sim.curTick() - c.mig.downtimeStart;
    release(c.mig.dst, c.spec);
    c.mig = Container::Migration{};
    if (c.server != noServer && !_alloc[c.server].down) {
        // Source survived: the container just keeps running there.
        c.state = ContainerState::running;
        traceContainer(c, "sv" + std::to_string(c.server));
        releaseDeferred(_deployments.at(c.deployment));
    } else {
        // Source died mid-copy: full reschedule.
        if (c.server != noServer)
            release(c.server, c.spec);
        c.server = noServer;
        c.state = ContainerState::pending;
        ++_stats.reschedules;
        traceContainer(c, "pending");
        placeContainer(c);
    }
}

// ---------------------------------------------------------------------
// Fault response

void
Orchestrator::onServerDown(std::size_t idx)
{
    if (idx >= _alloc.size())
        return;
    _alloc[idx].down = true;
    // Snapshot: the handlers below rewrite container state.
    std::vector<ContainerId> affected;
    for (const Container &c : _containers) {
        bool touches = c.server == idx ||
                       ((c.state == ContainerState::migrating ||
                         c.state == ContainerState::downtime) &&
                        c.mig.dst == idx);
        if (touches && c.state != ContainerState::stopped)
            affected.push_back(c.id);
    }
    for (ContainerId cid : affected) {
        Container &c = mut(cid);
        switch (c.state) {
          case ContainerState::migrating:
          case ContainerState::downtime:
            // Abort the copy stream; the abort handler reschedules
            // or falls back to the source as appropriate.
            if (c.mig.flow != Network::invalidFlow &&
                !_net->flows().abortFlow(c.mig.flow)) {
                // Flow already gone (e.g. fabric partition pending
                // abort): resolve the migration here.
                onMigrationAborted(cid);
            }
            break;
          case ContainerState::draining:
            // Its tasks died with the host; nothing left to wait on.
            stopContainer(c);
            break;
          case ContainerState::running: {
            release(c.server, c.spec);
            c.server = noServer;
            c.state = ContainerState::pending;
            ++_stats.reschedules;
            traceEvent("c" + std::to_string(c.id) + ".reschedule");
            traceContainer(c, "pending");
            // Replace immediately so retried tasks find the new
            // replica; a full fleet waits for the reconciler.
            placeContainer(c);
            break;
          }
          default:
            break;
        }
    }
}

void
Orchestrator::onServerUp(std::size_t idx)
{
    if (idx >= _alloc.size())
        return;
    _alloc[idx].down = false;
    // Recovered capacity: settle any pending replicas right away.
    for (Container &c : _containers) {
        if (c.state == ContainerState::pending)
            placeContainer(c);
    }
}

// ---------------------------------------------------------------------
// Reconciler

void
Orchestrator::reconcile()
{
    for (DeploymentId d = 0; d < _deployments.size(); ++d) {
        if (_cfg.autoscale)
            autoscaleDeployment(d);
        reconcileDeployment(d);
    }
    _sim.schedule(_reconcileEvent,
                  _sim.curTick() + _cfg.reconcilePeriod);
}

void
Orchestrator::reconcileDeployment(DeploymentId id)
{
    Deployment &d = _deployments[id];
    // Place stragglers first: capacity may have appeared.
    for (ContainerId cid : d.replicas) {
        Container &c = _containers[cid];
        if (c.state == ContainerState::pending)
            placeContainer(c);
    }

    unsigned fresh = 0, stale = 0, freshRunning = 0;
    for (ContainerId cid : d.replicas) {
        const Container &c = _containers[cid];
        if (c.state == ContainerState::stopped || c.draining)
            continue;
        if (c.version >= d.targetVersion) {
            ++fresh;
            if (c.routable())
                ++freshRunning;
        } else {
            ++stale;
        }
    }

    if (stale == 0) {
        // Steady state: enforce the desired replica count.
        while (fresh < d.spec.replicas) {
            startContainer(id, d.targetVersion);
            ++fresh;
        }
        while (fresh > d.spec.replicas) {
            // Retire the least-loaded fresh replica.
            Container *victim = nullptr;
            for (ContainerId cid : d.replicas) {
                Container &c = _containers[cid];
                if (c.state == ContainerState::stopped || c.draining ||
                    !c.routable()) {
                    continue;
                }
                if (!victim || c.activeTasks < victim->activeTasks)
                    victim = &c;
            }
            if (!victim)
                break;
            drainContainer(*victim);
            --fresh;
        }
        if (d.spec.version != d.targetVersion)
            d.spec.version = d.targetVersion;
        return;
    }

    // Rolling update: surge one fresh replica per pass, and retire
    // one stale replica for each fresh one that is up and serving.
    if (fresh < d.spec.replicas)
        startContainer(id, d.targetVersion);
    unsigned desiredStale = d.spec.replicas > freshRunning
                                ? d.spec.replicas - freshRunning
                                : 0;
    if (stale > desiredStale) {
        // Oldest stale replica first (lowest container id).
        for (ContainerId cid : d.replicas) {
            Container &c = _containers[cid];
            if (c.state == ContainerState::stopped || c.draining ||
                c.version >= d.targetVersion) {
                continue;
            }
            if (c.state == ContainerState::running ||
                c.state == ContainerState::pending) {
                drainContainer(c);
                break;
            }
        }
    }
}

void
Orchestrator::autoscaleDeployment(DeploymentId id)
{
    Deployment &d = _deployments[id];
    unsigned routable = 0;
    unsigned active = 0;
    for (ContainerId cid : d.replicas) {
        const Container &c = _containers[cid];
        if (!c.routable())
            continue;
        ++routable;
        active += c.activeTasks;
    }
    if (routable == 0)
        return;
    double capacity = static_cast<double>(routable) *
                      std::max(d.spec.container.cores, 1e-9);
    double load = static_cast<double>(active) / capacity;
    if (load > _cfg.autoscaleHigh &&
        d.spec.replicas < d.spec.maxReplicas) {
        ++d.spec.replicas;
        ++_stats.autoscaleUps;
        traceEvent("deploy" + std::to_string(id) + ".scale_up." +
                   std::to_string(d.spec.replicas));
    } else if (load < _cfg.autoscaleLow &&
               d.spec.replicas > d.spec.minReplicas) {
        --d.spec.replicas;
        ++_stats.autoscaleDowns;
        traceEvent("deploy" + std::to_string(id) + ".scale_down." +
                   std::to_string(d.spec.replicas));
    }
}

// ---------------------------------------------------------------------
// Introspection and statistics

const Container &
Orchestrator::container(ContainerId c) const
{
    return _containers.at(c);
}

std::vector<ContainerId>
Orchestrator::containersOn(std::size_t server) const
{
    std::vector<ContainerId> out;
    for (const Container &c : _containers) {
        if (c.server == server && c.state != ContainerState::stopped)
            out.push_back(c.id);
    }
    return out;
}

unsigned
Orchestrator::runningReplicas(DeploymentId d) const
{
    unsigned n = 0;
    for (ContainerId cid : _deployments.at(d).replicas)
        n += _containers[cid].routable();
    return n;
}

const DeploymentSpec &
Orchestrator::deploymentSpec(DeploymentId d) const
{
    return _deployments.at(d).spec;
}

std::size_t
Orchestrator::containersRunning() const
{
    std::size_t n = 0;
    for (const Container &c : _containers)
        n += c.routable();
    return n;
}

void
Orchestrator::addStats(StatGroup &g) const
{
    g.add("containers_total",
          static_cast<std::uint64_t>(_containers.size()));
    g.add("containers_running",
          static_cast<std::uint64_t>(containersRunning()));
    g.add("placements", _stats.placements);
    g.add("reschedules", _stats.reschedules);
    g.add("migrations_started", _stats.migrationsStarted);
    g.add("migrations_completed", _stats.migrationsCompleted);
    g.add("migrations_aborted", _stats.migrationsAborted);
    g.add("migrated_bytes", _stats.migratedBytes);
    g.add("total_downtime_s", toSeconds(_stats.totalDowntime));
    g.add("interference_inflated_s", _stats.interferenceInflatedSec);
    g.add("remote_mem_inflated_s", _stats.remoteMemInflatedSec);
    g.add("tasks_routed", _stats.tasksRouted);
    g.add("tasks_deferred", _stats.tasksDeferred);
    g.add("autoscale_up", _stats.autoscaleUps);
    g.add("autoscale_down", _stats.autoscaleDowns);
}

// ---------------------------------------------------------------------
// Tracing

TraceManager *
Orchestrator::tracer()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::orch))
        return nullptr;
    if (_eventTrack == noTraceTrack)
        _eventTrack = tr->track("orch", "events");
    return tr;
}

void
Orchestrator::traceContainer(Container &c, const std::string &state)
{
    TraceManager *tr = tracer();
    if (!tr)
        return;
    if (_containerTracks.size() <= c.id)
        _containerTracks.resize(c.id + 1, noTraceTrack);
    if (_containerTracks[c.id] == noTraceTrack) {
        _containerTracks[c.id] =
            tr->track("orch", "c" + std::to_string(c.id));
    }
    tr->transition(_containerTracks[c.id], TraceCategory::orch, state,
                   _sim.curTick());
}

void
Orchestrator::traceEvent(const std::string &name)
{
    if (TraceManager *tr = tracer())
        tr->instant(_eventTrack, TraceCategory::orch, name,
                    _sim.curTick());
}

} // namespace holdcsim
