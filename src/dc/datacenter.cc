#include "datacenter.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <new>
#include <ostream>

#include "exp/parallel_for.hh"
#include "sched/dispatch_policy.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace holdcsim {

namespace {

/** A transparent huge page: one PMD extent with 4 KiB base pages. */
constexpr std::size_t hugePageBytes = std::size_t{2} << 20;

std::size_t
roundUp(std::size_t n, std::size_t to)
{
    return (n + to - 1) / to * to;
}

} // namespace

void
DataCenter::Fleet::map(std::size_t n, unsigned n_cores)
{
    _serverBytes = roundUp(sizeof(Server), CorePool::slotBlockAlign());
    _stride = roundUp(_serverBytes + CorePool::slotBlockBytes(n_cores),
                      alignof(Server));
    _n = n;
    const std::size_t bytes = n * _stride;
    if (bytes == 0)
        return;
    // A block of one extent or more spans whole extents from a 2 MiB
    // boundary, so each can be one huge page: over-map by an extent,
    // then trim to the boundary. A smaller block could not get a huge
    // page anyway, so it keeps 4 KiB pages and its footprint.
    const bool huge = bytes >= hugePageBytes;
    const std::size_t slack = huge ? hugePageBytes : 0;
    _mapped = roundUp(bytes, huge ? hugePageBytes
                                  : static_cast<std::size_t>(
                                        sysconf(_SC_PAGESIZE)));
    void *p = mmap(nullptr, _mapped + slack, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const std::size_t head = huge ? roundUp(addr, hugePageBytes) - addr : 0;
    _base = static_cast<std::byte *>(p) + head;
    if (head > 0)
        munmap(p, head);
    if (slack > head)
        munmap(_base + _mapped, slack - head);
#ifdef MADV_HUGEPAGE
    // Advice only: where THP is off the block stays on 4 KiB pages.
    if (huge)
        madvise(_base, _mapped, MADV_HUGEPAGE);
#endif
}

std::size_t
DataCenter::Fleet::chunkStart(std::size_t c) const
{
    return std::min(_n, (c * hugePageBytes + _stride - 1) / _stride);
}

template <typename Setup>
void
DataCenter::Fleet::build(
    Simulator &sim, const ServerConfig &config,
    const std::shared_ptr<const ServerPowerProfile> &profile, bool threads,
    const Setup &setup)
{
    if (_serverBytes + CorePool::slotBlockBytes(config.nCores) > _stride)
        HOLDCSIM_PANIC("a ", config.nCores,
                       "-core server does not fit the fleet block");
    const std::size_t used = _n * _stride;
    const std::size_t chunks =
        _n == 0 ? 0 : (used - _stride) / hugePageBytes + 1;
    const std::size_t deferred = sim.reserveDeferred(_n);
    _built.assign(chunks, 0);
    const unsigned workers = threads && used >= 2 * hugePageBytes ? 0 : 1;
    parallelFor(workers, chunks, [&](std::size_t c) {
        ServerConfig sc = config;
        // Counted here and stored once: chunks' counts share a line.
        std::size_t built = 0;
        try {
            for (std::size_t i = chunkStart(c); i < chunkStart(c + 1);
                 ++i) {
                std::byte *at = _base + i * _stride;
                const CorePlacement place{at + _serverBytes, deferred + i};
                sc.id = static_cast<unsigned>(i);
                Server *server = new (at) Server(sim, sc, profile, &place);
                ++built;
                setup(i, *server);
                // Recorded while the server is hot, so a drain need
                // not visit it until it is next touched.
                sim.recordDeferred(deferred + i);
            }
        } catch (...) {
            _built[c] = built;
            throw;
        }
        _built[c] = built;
    });
}

DataCenter::Fleet::~Fleet()
{
    for (std::size_t c = 0; c < _built.size(); ++c) {
        for (std::size_t i = chunkStart(c), end = i + _built[c]; i < end;
             ++i) {
            std::launder(reinterpret_cast<Server *>(_base + i * _stride))
                ->~Server();
        }
    }
    if (_base)
        munmap(_base, _mapped);
}

/** One workload source feeding the scheduler. */
struct DataCenter::Pump {
    Pump(DataCenter &dc, std::unique_ptr<ArrivalProcess> process,
         JobGenerator &gen, std::size_t max_jobs, Tick until)
        : dc(dc), process(std::move(process)), gen(gen),
          remaining(max_jobs), until(until),
          arriveEvent([this] { onArrival(); }, "pump.arrival")
    {
        scheduleNext();
    }

    ~Pump()
    {
        if (arriveEvent.scheduled())
            dc._sim.deschedule(arriveEvent);
    }

    void
    scheduleNext()
    {
        if (remaining == 0 || process->exhausted())
            return;
        Tick t = process->nextArrival();
        if (t > until)
            return;
        if (t < dc._sim.curTick())
            t = dc._sim.curTick();
        dc._sim.schedule(arriveEvent, t);
    }

    void
    onArrival()
    {
        --remaining;
        Job job = gen.makeJob(dc._sim.curTick(), dc._nextJobId++);
        // With orchestration on, generated jobs route through the
        // default deployment unless the generator tagged them itself.
        if (dc._orch && dc._config.orch.tagJobs && job.orchGroup() < 0)
            job.setOrchGroup(0);
        dc._sched->submitJob(std::move(job));
        scheduleNext();
    }

    DataCenter &dc;
    std::unique_ptr<ArrivalProcess> process;
    JobGenerator &gen;
    std::size_t remaining;
    Tick until;
    EventFunctionWrapper arriveEvent;
};

DataCenter::DataCenter(const DataCenterConfig &config)
    : _config(config),
      // A 0 granularity is left to validate() and its error message.
      _sim(EventQueue::Backend::calendar,
           _config.timerMode == DataCenterConfig::TimerMode::wheel
               ? std::max<Tick>(_config.wheelGranularity, 1)
               : 1)
{
    _config.validate();
    // Record the experiment seed with the engine so a post-mortem
    // abort dump names the exact replica that died.
    _sim.setExperimentSeed(_config.seed);

    // Telemetry first so components see the tracer/probe from their
    // very first state transition. With the section absent (the
    // default), none of this runs and the engine carries two null
    // pointers -- the simulation is bit-identical to an untraced one.
    const auto &tel = _config.telemetry;
    if (tel.wantsTracing()) {
        std::unique_ptr<TraceSink> sink;
        if (tel.traceFormat == "csv")
            sink = std::make_unique<CsvTraceSink>(tel.traceOut);
        else
            sink = std::make_unique<JsonTraceSink>(tel.traceOut);
        _tracer = std::make_unique<TraceManager>(
            std::move(sink), parseTraceCategories(tel.traceCategories));
        _sim.setTracer(_tracer.get());
    }
    if (tel.wantsProfiling()) {
        _profiler = std::make_unique<LayerProbe>();
        _sim.setProbe(_profiler.get());
    }

    // Fabric first: topologies dictate the server count.
    if (_config.fabric != DataCenterConfig::Fabric::none) {
        Topology topo;
        switch (_config.fabric) {
          case DataCenterConfig::Fabric::star:
            topo = Topology::star(_config.nServers, _config.linkRate,
                                  _config.linkLatency);
            break;
          case DataCenterConfig::Fabric::fatTree:
            topo = Topology::fatTree(_config.fabricParam,
                                     _config.linkRate,
                                     _config.linkLatency);
            break;
          case DataCenterConfig::Fabric::flattenedButterfly:
            topo = Topology::flattenedButterfly(
                _config.fabricParam, _config.fabricParam2,
                _config.linkRate, _config.linkLatency);
            break;
          case DataCenterConfig::Fabric::bcube:
            topo = Topology::bcube(_config.fabricParam,
                                   _config.fabricParam2,
                                   _config.linkRate,
                                   _config.linkLatency);
            break;
          case DataCenterConfig::Fabric::camCube:
            topo = Topology::camCube(_config.fabricParam,
                                     _config.fabricParam,
                                     _config.fabricParam,
                                     _config.linkRate,
                                     _config.linkLatency);
            break;
          case DataCenterConfig::Fabric::none:
            break;
        }
        _config.nServers = static_cast<unsigned>(topo.numServers());
        _net = std::make_unique<Network>(_sim, std::move(topo),
                                         _config.switchProfile,
                                         _config.netConfig);
    }

    std::unique_ptr<DispatchPolicy> policy;
    switch (_config.dispatch) {
      case DataCenterConfig::Dispatch::roundRobin:
        policy = std::make_unique<RoundRobinPolicy>();
        break;
      case DataCenterConfig::Dispatch::leastLoaded:
        policy = std::make_unique<LeastLoadedPolicy>();
        break;
      case DataCenterConfig::Dispatch::random:
        policy = std::make_unique<RandomPolicy>(
            makeRng("dispatch.random"));
        break;
      case DataCenterConfig::Dispatch::networkAware:
        policy = std::make_unique<NetworkAwarePolicy>(*_net);
        break;
    }
    GlobalSchedulerConfig gsc;
    gsc.useGlobalQueue = _config.useGlobalQueue;
    gsc.antiAffinity = _config.taskAntiAffinity;
    // The scheduler keeps the one list of server pointers; it takes
    // each server as it is built.
    _sched = std::make_unique<GlobalScheduler>(
        _sim, _config.nServers, std::move(policy), gsc, _net.get());

    // One immutable profile for the whole fleet, not one per server:
    // the config's, validated once by _config.validate() above, which
    // outlives the fleet. Not owned, so sharing it costs no reference
    // count.
    const std::shared_ptr<const ServerPowerProfile> profile(
        std::shared_ptr<const ServerPowerProfile>(), &_config.serverProfile);
    ServerConfig sc;
    sc.nCores = _config.nCores;
    sc.queueMode = _config.queueMode;
    sc.corePick = _config.corePick;
    sc.allowPkgC6 = _config.allowPkgC6;
    const bool delay_timer =
        _config.controller == DataCenterConfig::Controller::delayTimer;
    _fleet.map(_config.nServers, _config.nCores);
    // A tracer keeps the build on this thread: servers register their
    // trace tracks as they are built, and the track order is output.
    _fleet.build(_sim, sc, profile, !_tracer,
                 [&](std::size_t i, Server &server) {
                     if (delay_timer)
                         server.setDelayTimer(_config.delayTimerTau);
                     _sched->adopt(i, server);
                 });
    if (_config.mc.seedBug && numServers() >= 2)
        _sched->debugArmPairCrashBug(0, 1);

    if (_config.fault.enabled) {
        RetryPolicy rp;
        rp.maxAttempts = _config.fault.maxRetries + 1;
        rp.backoffBase = _config.fault.retryBackoffBase;
        rp.backoffMax = _config.fault.retryBackoffMax;
        rp.taskTimeout = _config.fault.taskTimeout;
        _retryJitter = std::make_unique<Rng>(
            makeRng("fault.retry.jitter"));
        _sched->setRetryPolicy(rp, _retryJitter.get());

        std::unique_ptr<FaultModel> model;
        if (_config.fault.schedule) {
            model = std::make_unique<ScriptedFaultModel>(
                *_config.fault.schedule);
        } else if (!_config.fault.faultTrace.empty()) {
            model = std::make_unique<ScriptedFaultModel>(
                readFaultTrace(_config.fault.faultTrace));
        } else {
            auto dist = _config.fault.distribution == "weibull"
                ? StochasticFaultModel::Distribution::weibull
                : StochasticFaultModel::Distribution::exponential;
            model = std::make_unique<StochasticFaultModel>(
                _config.seed,
                fromSeconds(_config.fault.mttfHours * 3600.0),
                fromSeconds(_config.fault.mttrMinutes * 60.0),
                dist, _config.fault.weibullShape);
        }
        FaultManagerConfig fmc;
        fmc.faultServers = _config.fault.faultServers;
        fmc.faultSwitches = _config.fault.faultSwitches;
        fmc.faultLinecards = _config.fault.faultLinecards;
        fmc.faultLinks = _config.fault.faultLinks;
        _faults = std::make_unique<FaultManager>(
            _sim, std::move(model), _sched->servers(), _net.get(),
            _sched.get(), fmc);
    }

    // Orchestration layer: installs its task router into the
    // scheduler and (when faults run) a server up/down hook into the
    // fault manager. Absent the [orch] section nothing here runs and
    // the scheduler path is untouched.
    if (_config.orch.enabled) {
        const auto &oc = _config.orch;
        _orch = std::make_unique<Orchestrator>(_sim, *_sched,
                                               _net.get(), oc);

        DeploymentSpec ds;
        ds.name = "default";
        ds.container.cores = oc.containerCores;
        ds.container.memBytes = oc.containerMemBytes;
        ds.container.remoteMemFrac = oc.remoteMemFrac;
        ds.replicas = oc.replicas;
        ds.minReplicas = oc.minReplicas;
        ds.maxReplicas = oc.maxReplicas;
        ds.antiAffinity = oc.antiAffinity;
        ds.group = 0;
        _orch->createDeployment(std::move(ds));

        if (_faults) {
            _faults->setServerEventHook(
                [this](std::size_t idx, bool down) {
                    if (down)
                        _orch->onServerDown(idx);
                    else
                        _orch->onServerUp(idx);
                });
        }
    }

    // Invariant auditor: re-derives conservation properties from live
    // state every audit period. The "event_queue" structural check is
    // built in; the model-level checks close over the finished plant.
    if (_config.audit.enabled) {
        _auditor = std::make_unique<InvariantAuditor>(
            _sim, _config.audit.period);
        _auditor->setFatal(_config.audit.fatal);

        _auditor->addCheck("task_conservation", [this] {
            GlobalScheduler::TaskCensus c = _sched->taskCensus();
            if (c.created != c.finished + c.aborted + c.live) {
                return detail::format(
                    "tasks created (", c.created, ") != finished (",
                    c.finished, ") + aborted (", c.aborted,
                    ") + live (", c.live, ")");
            }
            return std::string();
        });

        _auditor->addCheck("energy_accounting", [this] {
            FleetEnergy fe = fleetEnergy(_sched->servers());
            double components = fe.total.total();
            double servers = 0.0;
            for (const EnergyBreakdown &e : fe.perServer) {
                if (!std::isfinite(e.total()) || e.total() < 0.0) {
                    return detail::format(
                        "non-finite or negative server energy ",
                        e.total(), " J");
                }
                servers += e.total();
            }
            double tol = _config.audit.energyTolerance *
                         std::max({std::abs(components),
                                   std::abs(servers), 1.0});
            if (std::abs(components - servers) > tol) {
                return detail::format(
                    "component energy sum ", components,
                    " J != per-server total ", servers,
                    " J (tolerance ", tol, " J)");
            }
            return std::string();
        });

        if (_tracer && _tracer->wants(TraceCategory::audit)) {
            TraceTrackId track = _tracer->track("audit", "invariants");
            _auditor->setViolationHook(
                [this, track](const std::string &name,
                              const std::string &msg) {
                    _tracer->instant(track, TraceCategory::audit,
                                     name + ": " + msg,
                                     _sim.curTick());
                });
        }
        _auditor->start();
    }

    // Sampler last: its probes read the finished plant. All probes
    // are read-only, and the sampling event is a background event at
    // stats priority, so an armed sampler perturbs neither event
    // ordering nor the model.
    if (tel.wantsSampling()) {
        _sampler = std::make_unique<Sampler>(_sim, tel.sampleOut,
                                             tel.samplePeriod);
        _sampler->addProbe("server_power_w",
                           [this] { return serverPower(); });
        _sampler->addProbe("awake_servers", [this] {
            return static_cast<double>(awakeServers());
        });
        _sampler->addProbe("global_queue_len", [this] {
            return static_cast<double>(_sched->globalQueueLength());
        });
        _sampler->addProbe("active_jobs", [this] {
            return static_cast<double>(_sched->activeJobs());
        });
        if (_net) {
            _sampler->addProbe("switch_power_w",
                               [this] { return switchPower(); });
            _sampler->addProbe("active_flows", [this] {
                return static_cast<double>(_net->flows().activeFlows());
            });
            // Solver cost over time: watch the bandwidth-share
            // solver's workload evolve with the traffic mix.
            _sampler->addProbe("solver_resolves", [this] {
                return static_cast<double>(
                    _net->flows().solverStats().resolves);
            });
            _sampler->addProbe("solver_resolved_flows", [this] {
                return static_cast<double>(
                    _net->flows().solverStats().resolvedFlows);
            });
            _sampler->addProbe("solver_dirty_links", [this] {
                return static_cast<double>(
                    _net->flows().solverStats().dirtyLinks);
            });
            _sampler->addProbe("solver_fast_path_hits", [this] {
                return static_cast<double>(
                    _net->flows().solverStats().fastPathHits);
            });
            _sampler->addProbe("solver_global_resolves", [this] {
                return static_cast<double>(
                    _net->flows().solverStats().globalResolves);
            });
        }
        if (_orch) {
            _sampler->addProbe("containers_running", [this] {
                return static_cast<double>(
                    _orch->containersRunning());
            });
            _sampler->addProbe("orch_migrations_active", [this] {
                const Orchestrator::Stats &s = _orch->stats();
                return static_cast<double>(s.migrationsStarted -
                                           s.migrationsCompleted -
                                           s.migrationsAborted);
            });
            _sampler->addProbe("orch_tasks_deferred", [this] {
                return static_cast<double>(_sched->deferredTasks());
            });
        }
        if (_faults) {
            _sampler->addProbe("components_down", [this] {
                return static_cast<double>(_faults->currentlyDown());
            });
        }
        _sampler->start();
    }
}

DataCenter::~DataCenter()
{
    // Pumps hold events against the simulator; drop them first.
    _pumps.clear();
}

void
DataCenter::pump(std::unique_ptr<ArrivalProcess> process,
                 JobGenerator &gen, std::size_t max_jobs, Tick until)
{
    if (!process)
        fatal("pump needs an arrival process");
    _pumps.push_back(std::make_unique<Pump>(*this, std::move(process),
                                            gen, max_jobs, until));
}

void
DataCenter::pumpTrace(std::vector<Tick> arrivals, JobGenerator &gen)
{
    pump(std::make_unique<TraceArrival>(std::move(arrivals)), gen);
}

FleetEnergy
DataCenter::energy()
{
    return fleetEnergy(_sched->servers());
}

std::vector<double>
DataCenter::residency()
{
    return fleetResidency(_sched->servers());
}

Joules
DataCenter::switchEnergy()
{
    if (!_net)
        return 0.0;
    _net->accrue();
    return _net->switchEnergy();
}

Watts
DataCenter::serverPower() const
{
    Watts total = 0.0;
    for (const Server *s : serverPtrs())
        total += s->power();
    return total;
}

Watts
DataCenter::switchPower() const
{
    return _net ? _net->switchPower() : 0.0;
}

std::size_t
DataCenter::awakeServers() const
{
    std::size_t count = 0;
    for (const Server *s : serverPtrs())
        count += !s->isAsleep();
    return count;
}

void
DataCenter::finishStats()
{
    for (Server *s : serverPtrs())
        s->finishStats();
    finishSharedStats();
}

void
DataCenter::finishSharedStats()
{
    if (_net)
        _net->finishStats();
    if (_faults)
        _faults->finishStats();
    if (_sampler)
        _sampler->stop();
    if (_tracer)
        _tracer->flush(_sim.curTick());
}

unsigned
DataCenter::statsDumpWorkers() const
{
    // Serial with a tracer, which must see every server close its
    // slices on this thread and before the fabric's, as finishStats()
    // orders them; and in a parallelFor cell, which has its thread.
    const std::size_t n = numServers();
    if (n < 2 * statsChunkServers || _sim.tracer() || inParallelWorker())
        return 0;
    const std::size_t chunks = (n + statsChunkServers - 1) / statsChunkServers;
    // One hardware thread is the caller's, which writes the rows.
    return static_cast<unsigned>(
        std::min<std::size_t>(defaultWorkers() - 1, chunks));
}

void
DataCenter::dumpStats(std::ostream &os)
{
    // Servers touch only their own books when they settle, so they
    // can close them on the dump's workers, after the shared books.
    const unsigned workers = statsDumpWorkers();
    if (workers == 0)
        finishStats();
    else
        finishSharedStats();
    Tick now = _sim.curTick();

    StatGroup sim_group("sim");
    sim_group.add("seconds", toSeconds(now));
    sim_group.add("events", _sim.eventsProcessed());
    sim_group.dump(os);

    if (_profiler)
        _profiler->dump(os, _sim.eventQueue(), timerWheel());

    if (_auditor) {
        StatGroup g("audit");
        g.add("audits_passed", _auditor->auditsPassed());
        g.add("checks_run", _auditor->checksRun());
        g.add("violations", _auditor->violations());
        g.dump(os);
    }

    StatGroup sched_group("scheduler");
    sched_group.add("jobs_submitted", _sched->jobsSubmitted());
    sched_group.add("jobs_completed", _sched->jobsCompleted());
    sched_group.add("tasks_dispatched", _sched->tasksDispatched());
    sched_group.add("transfers_started", _sched->transfersStarted());
    sched_group.add("global_queue_len",
                    static_cast<std::uint64_t>(
                        _sched->globalQueueLength()));
    const auto &lat = _sched->jobLatency();
    sched_group.add("job_latency_mean_s", lat.mean());
    sched_group.add("job_latency_p50_s", lat.p50());
    sched_group.add("job_latency_p90_s", lat.p90());
    sched_group.add("job_latency_p95_s", lat.p95());
    sched_group.add("job_latency_p99_s", lat.p99());
    sched_group.dump(os);

    if (_orch) {
        StatGroup g("orch");
        _orch->addStats(g);
        g.dump(os);
    }

    if (_faults) {
        ReliabilitySummary rel = fleetReliability(_sched->servers());
        StatGroup g("reliability");
        g.add("fleet_availability", _faults->fleetAvailability());
        g.add("faults_injected", _faults->faultsInjected());
        g.add("total_downtime_s", toSeconds(_faults->totalDowntime()));
        g.add("components_down",
              static_cast<std::uint64_t>(_faults->currentlyDown()));
        g.add("task_retries", _sched->taskRetries());
        g.add("task_timeouts", _sched->taskTimeouts());
        g.add("transfers_aborted", _sched->transfersAborted());
        g.add("jobs_failed", _sched->jobsFailed());
        g.add("server_failures", rel.serverFailures);
        g.add("tasks_killed", rel.tasksKilled);
        g.add("wasted_joules", rel.wastedJoules);
        g.add("wasted_energy_frac", rel.wastedFraction());
        if (_net)
            g.add("flows_aborted", _net->flows().flowsAborted());
        g.dump(os);
    }

    dumpServerRows(os, workers);

    if (_net) {
        StatGroup n("network");
        n.add("switch_energy_j", _net->switchEnergy());
        n.add("packets_delivered", _net->packetsDelivered());
        n.add("packets_dropped", _net->packetsDropped());
        n.add("flows_completed", _net->flows().flowsCompleted());
        n.add("flow_latency_mean_s", _net->flows().flowLatency().mean());
        n.add("packet_latency_mean_s", _net->packetLatency().mean());
        n.add("sleeping_switches",
              static_cast<std::uint64_t>(_net->sleepingSwitches()));
        // Solver cost counters: how often the bandwidth-share
        // solver ran, how much of the fabric each run touched, and
        // how many transfers the analytic fast path absorbed.
        const NetSolverStats &ss = _net->flows().solverStats();
        n.add("solver_resolves", ss.resolves);
        n.add("solver_dirty_flows_mean", ss.meanDirtyFlows());
        n.add("solver_dirty_flows_max", ss.maxDirtyFlows);
        n.add("solver_dirty_links", ss.dirtyLinks);
        n.add("fast_path_hits", ss.fastPathHits);
        n.dump(os);
        StatGroup rows("");
        for (std::size_t i = 0; i < _net->numSwitches(); ++i) {
            Switch &sw = _net->switchAt(i);
            rows.row(os, "switch", sw.id());
            rows.add("energy_j", sw.energy());
            rows.add("packets_forwarded", sw.packetsForwarded());
            rows.add("packets_dropped", sw.packetsDropped());
            rows.add("sleep_transitions", sw.sleepTransitions());
            rows.add("frac_asleep", sw.residency().fraction(1));
        }
        rows.flush(os);
    }
}

void
DataCenter::dumpServerRows(std::ostream &os, unsigned workers)
{
    // Workers settle and format contiguous chunks into a ring of two
    // buffers each while this thread writes the chunks in fleet order;
    // with no workers, this thread does both, chunk by chunk.
    const std::size_t n = numServers();
    std::vector<StatGroup> ring(std::max(2 * workers, 1u), StatGroup(""));
    auto produce = [&](std::size_t chunk, std::size_t slot) {
        StatGroup &rows = ring[slot];
        const std::size_t end = std::min(n, (chunk + 1) * statsChunkServers);
        for (std::size_t i = chunk * statsChunkServers; i < end; ++i) {
            Server &srv = *serverPtrs()[i];
            srv.finishStats(); // a no-op after the serial finishStats()
            rows.row("server", srv.id());
            const EnergyBreakdown &e = srv.energy();
            rows.add("energy_cpu_j", e.cpu);
            rows.add("energy_dram_j", e.dram);
            rows.add("energy_platform_j", e.platform);
            rows.add("energy_total_j", e.total());
            rows.add("tasks_completed", srv.tasksCompleted());
            rows.add("wake_transitions", srv.wakeTransitions());
            rows.add("sleep_transitions", srv.sleepTransitions());
            const StateResidency &r = srv.residency();
            auto frac = [&r](ServerState st) {
                return r.fraction(static_cast<int>(st));
            };
            rows.add("frac_active", frac(ServerState::active));
            rows.add("frac_wakeup", frac(ServerState::wakingUp));
            rows.add("frac_idle", frac(ServerState::idle));
            rows.add("frac_pkg_c6", frac(ServerState::pkgC6));
            rows.add("frac_sys_sleep", frac(ServerState::sysSleep));
            if (_faults)
                rows.add("frac_failed", frac(ServerState::failed));
        }
    };
    orderedPipeline(workers, (n + statsChunkServers - 1) / statsChunkServers,
                    ring.size(), produce,
                    [&](std::size_t, std::size_t slot) { ring[slot].flush(os); });
}

void
DataCenter::resetStats()
{
    for (Server *s : serverPtrs())
        s->resetStats();
    if (_net) {
        for (std::size_t i = 0; i < _net->numSwitches(); ++i)
            _net->switchAt(i).resetStats();
    }
    _sched->resetStats();
    if (_orch)
        _orch->resetStats();
    if (_faults)
        _faults->resetStats();
}

} // namespace holdcsim
