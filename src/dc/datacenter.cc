#include "datacenter.hh"

#include <cmath>
#include <ostream>

#include "sched/dispatch_policy.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace holdcsim {

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
        Job job = gen.makeJob(dc._sim.curTick());
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
    : _config(config)
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
        _profiler = std::make_unique<KernelProfiler>();
        _sim.setProbe(_profiler.get());
    }

    // The shared governor timer wheel must be installed before any
    // entity that arms power-state timeouts is built: pools, line
    // cards and switches latch the wheel pointer at construction.
    if (_config.timerMode == DataCenterConfig::TimerMode::wheel) {
        _wheel = std::make_unique<TimerWheel>(_sim,
                                              _config.wheelGranularity);
        _sim.setTimerWheel(_wheel.get());
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

    for (unsigned i = 0; i < _config.nServers; ++i) {
        ServerConfig sc;
        sc.id = i;
        sc.nCores = _config.nCores;
        sc.queueMode = _config.queueMode;
        sc.corePick = _config.corePick;
        sc.allowPkgC6 = _config.allowPkgC6;
        auto server = std::make_unique<Server>(_sim, sc,
                                               _config.serverProfile);
        switch (_config.controller) {
          case DataCenterConfig::Controller::alwaysOn:
            server->setController(
                std::make_unique<AlwaysOnController>());
            break;
          case DataCenterConfig::Controller::delayTimer:
            server->setController(
                std::make_unique<DelayTimerController>(
                    _config.delayTimerTau));
            break;
        }
        _serverPtrs.push_back(server.get());
        _servers.push_back(std::move(server));
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
    _sched = std::make_unique<GlobalScheduler>(
        _sim, _serverPtrs, std::move(policy), gsc, _net.get());
    if (_config.mc.seedBug && _servers.size() >= 2)
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
        if (_config.fault.useSchedule) {
            model = std::make_unique<ScheduleFaultModel>(
                _config.fault.schedule);
        } else if (!_config.fault.faultTrace.empty()) {
            model = TraceFaultModel::fromFile(_config.fault.faultTrace);
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
            _sim, std::move(model), _serverPtrs, _net.get(),
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
            FleetEnergy fe = fleetEnergy(_serverPtrs);
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
    return fleetEnergy(_serverPtrs);
}

std::vector<double>
DataCenter::residency()
{
    return fleetResidency(_serverPtrs);
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
    for (const auto &s : _servers)
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
    for (const auto &s : _servers)
        count += !s->isAsleep();
    return count;
}

void
DataCenter::finishStats()
{
    for (auto &s : _servers)
        s->finishStats();
    if (_net)
        _net->finishStats();
    if (_faults)
        _faults->finishStats();
    if (_sampler)
        _sampler->stop();
    if (_tracer)
        _tracer->flush(_sim.curTick());
}

void
DataCenter::dumpStats(std::ostream &os)
{
    finishStats();
    Tick now = _sim.curTick();

    StatGroup sim_group("sim");
    sim_group.add("seconds", toSeconds(now));
    sim_group.add("events", _sim.eventsProcessed());
    sim_group.dump(os);

    if (_profiler)
        _profiler->dump(os, _sim.eventQueue(), _wheel.get());

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
        ReliabilitySummary rel = fleetReliability(_serverPtrs);
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

    for (auto &srv : _servers) {
        StatGroup g("server" + std::to_string(srv->id()));
        const EnergyBreakdown &e = srv->energy();
        g.add("energy_cpu_j", e.cpu);
        g.add("energy_dram_j", e.dram);
        g.add("energy_platform_j", e.platform);
        g.add("energy_total_j", e.total());
        g.add("tasks_completed", srv->tasksCompleted());
        g.add("wake_transitions", srv->wakeTransitions());
        g.add("sleep_transitions", srv->sleepTransitions());
        const StateResidency &r = srv->residency();
        g.add("frac_active",
              r.fraction(static_cast<int>(ServerState::active)));
        g.add("frac_wakeup",
              r.fraction(static_cast<int>(ServerState::wakingUp)));
        g.add("frac_idle",
              r.fraction(static_cast<int>(ServerState::idle)));
        g.add("frac_pkg_c6",
              r.fraction(static_cast<int>(ServerState::pkgC6)));
        g.add("frac_sys_sleep",
              r.fraction(static_cast<int>(ServerState::sysSleep)));
        if (_faults) {
            g.add("frac_failed",
                  r.fraction(static_cast<int>(ServerState::failed)));
        }
        g.dump(os);
    }

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
        for (std::size_t i = 0; i < _net->numSwitches(); ++i) {
            Switch &sw = _net->switchAt(i);
            StatGroup g("switch" + std::to_string(sw.id()));
            g.add("energy_j", sw.energy());
            g.add("packets_forwarded", sw.packetsForwarded());
            g.add("packets_dropped", sw.packetsDropped());
            g.add("sleep_transitions", sw.sleepTransitions());
            g.add("frac_asleep", sw.residency().fraction(1));
            g.dump(os);
        }
    }
}

void
DataCenter::resetStats()
{
    for (auto &s : _servers)
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
