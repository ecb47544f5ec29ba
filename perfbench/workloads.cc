#include "workloads.hh"

#include <ostream>

#include "dc/datacenter.hh"
#include "dc/metrics.hh"
#include "sim/stats.hh"
#include "workload/service.hh"

namespace perfbench {

using namespace holdcsim;

namespace {

/** A plant assembled by DataCenter from a config. */
class DcPlant : public Plant
{
  public:
    explicit DcPlant(const DataCenterConfig &cfg) : _dc(cfg) {}

    Simulator &sim() override { return _dc.sim(); }
    GlobalScheduler &scheduler() override { return _dc.scheduler(); }
    const std::vector<Server *> &servers() override
    {
        return _dc.serverPtrs();
    }
    Network *network() override { return _dc.network(); }
    TimerWheel *timerWheel() override { return _dc.timerWheel(); }

    void
    pump(std::unique_ptr<ArrivalProcess> arrivals, JobGenerator &jobs,
         std::size_t max_jobs) override
    {
        _dc.pump(std::move(arrivals), jobs, max_jobs);
    }

    void run() override { _dc.run(); }
    void dumpStats(std::ostream &os) override { _dc.dumpStats(os); }

  private:
    DataCenter _dc;
};

constexpr int webTier = 1;
constexpr int appTier = 2;
constexpr int dbTier = 3;

/**
 * The examples/three_tier fleet: 12 servers typed web/app/db behind
 * one star switch. DataCenter builds untyped servers, so this plant
 * is assembled from the component API, as the example does, with a
 * pump that behaves like DataCenter's.
 */
class TierPlant : public Plant
{
  public:
    TierPlant()
        : _net(_sim, Topology::star(12, 1e9, 5 * usec),
               SwitchPowerProfile::cisco2960_24()),
          _arriveEvent([this] { onArrival(); }, "pump.arrival")
    {
        ServerPowerProfile profile;
        for (unsigned i = 0; i < 12; ++i) {
            ServerConfig cfg;
            cfg.id = i;
            cfg.nCores = 4;
            cfg.taskTypes = {i < 4 ? webTier : i < 8 ? appTier : dbTier};
            _owned.push_back(std::make_unique<Server>(_sim, cfg, profile));
            _servers.push_back(_owned.back().get());
        }
        _sched = std::make_unique<GlobalScheduler>(
            _sim, _servers, std::make_unique<LeastLoadedPolicy>(),
            GlobalSchedulerConfig{}, &_net);
    }

    ~TierPlant() override
    {
        if (_arriveEvent.scheduled())
            _sim.deschedule(_arriveEvent);
    }

    Simulator &sim() override { return _sim; }
    GlobalScheduler &scheduler() override { return *_sched; }
    const std::vector<Server *> &servers() override { return _servers; }
    Network *network() override { return &_net; }
    TimerWheel *timerWheel() override { return nullptr; }

    void
    pump(std::unique_ptr<ArrivalProcess> arrivals, JobGenerator &jobs,
         std::size_t max_jobs) override
    {
        _arrivals = std::move(arrivals);
        _jobs = &jobs;
        _remaining = max_jobs;
        scheduleNext();
    }

    void run() override { _sim.run(); }

    /** The groups and fields DataCenter::dumpStats writes. */
    void
    dumpStats(std::ostream &os) override
    {
        for (Server *s : _servers)
            s->finishStats();
        _net.finishStats();

        StatGroup sim_group("sim");
        sim_group.add("seconds", toSeconds(_sim.curTick()));
        sim_group.add("events", _sim.eventsProcessed());
        sim_group.dump(os);

        StatGroup sched("scheduler");
        sched.add("jobs_submitted", _sched->jobsSubmitted());
        sched.add("jobs_completed", _sched->jobsCompleted());
        sched.add("tasks_dispatched", _sched->tasksDispatched());
        sched.add("transfers_started", _sched->transfersStarted());
        sched.add("global_queue_len",
                  static_cast<std::uint64_t>(_sched->globalQueueLength()));
        const Percentile &lat = _sched->jobLatency();
        sched.add("job_latency_mean_s", lat.mean());
        sched.add("job_latency_p50_s", lat.p50());
        sched.add("job_latency_p90_s", lat.p90());
        sched.add("job_latency_p95_s", lat.p95());
        sched.add("job_latency_p99_s", lat.p99());
        sched.dump(os);

        for (Server *s : _servers) {
            StatGroup g("server" + std::to_string(s->id()));
            const EnergyBreakdown &e = s->energy();
            g.add("energy_cpu_j", e.cpu);
            g.add("energy_dram_j", e.dram);
            g.add("energy_platform_j", e.platform);
            g.add("energy_total_j", e.total());
            g.add("tasks_completed", s->tasksCompleted());
            g.add("wake_transitions", s->wakeTransitions());
            g.add("sleep_transitions", s->sleepTransitions());
            const StateResidency &r = s->residency();
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
            g.dump(os);
        }

        StatGroup n("network");
        n.add("switch_energy_j", _net.switchEnergy());
        n.add("packets_delivered", _net.packetsDelivered());
        n.add("packets_dropped", _net.packetsDropped());
        n.add("flows_completed", _net.flows().flowsCompleted());
        n.add("flow_latency_mean_s", _net.flows().flowLatency().mean());
        n.add("packet_latency_mean_s", _net.packetLatency().mean());
        n.add("sleeping_switches",
              static_cast<std::uint64_t>(_net.sleepingSwitches()));
        const NetSolverStats &ss = _net.flows().solverStats();
        n.add("solver_resolves", ss.resolves);
        n.add("solver_dirty_flows_mean", ss.meanDirtyFlows());
        n.add("solver_dirty_flows_max", ss.maxDirtyFlows);
        n.add("solver_dirty_links", ss.dirtyLinks);
        n.add("fast_path_hits", ss.fastPathHits);
        n.dump(os);
        for (std::size_t i = 0; i < _net.numSwitches(); ++i) {
            Switch &sw = _net.switchAt(i);
            StatGroup g("switch" + std::to_string(sw.id()));
            g.add("energy_j", sw.energy());
            g.add("packets_forwarded", sw.packetsForwarded());
            g.add("packets_dropped", sw.packetsDropped());
            g.add("sleep_transitions", sw.sleepTransitions());
            g.add("frac_asleep", sw.residency().fraction(1));
            g.dump(os);
        }
    }

  private:
    void
    scheduleNext()
    {
        if (_remaining == 0 || _arrivals->exhausted())
            return;
        Tick t = _arrivals->nextArrival();
        _sim.schedule(_arriveEvent, t < _sim.curTick() ? _sim.curTick() : t);
    }

    void
    onArrival()
    {
        --_remaining;
        _sched->submitJob(_jobs->makeJob(_sim.curTick()));
        scheduleNext();
    }

    Simulator _sim;
    Network _net;
    std::vector<std::unique_ptr<Server>> _owned;
    std::vector<Server *> _servers;
    std::unique_ptr<GlobalScheduler> _sched;
    std::unique_ptr<ArrivalProcess> _arrivals;
    JobGenerator *_jobs = nullptr;
    std::size_t _remaining = 0;
    EventFunctionWrapper _arriveEvent;
};

/** Web -> app -> db request chains on the typed 12-server fleet. */
class ThreeTier : public Workload
{
  public:
    ThreeTier(std::uint64_t seed, bool quick) : _seed(seed), _quick(quick)
    {}

    std::unique_ptr<Plant>
    build() const override
    {
        return std::make_unique<TierPlant>();
    }

    std::unique_ptr<DispatchPolicy>
    policy() const override
    {
        return std::make_unique<LeastLoadedPolicy>();
    }

    std::unique_ptr<JobGenerator>
    jobs(Plant &) const override
    {
        auto web = std::make_shared<ExponentialService>(
            1 * msec, Rng(_seed, "web"));
        auto app = std::make_shared<ExponentialService>(
            4 * msec, Rng(_seed, "app"));
        auto db = std::make_shared<ExponentialService>(
            8 * msec, Rng(_seed, "db"));
        return std::make_unique<ChainJobGenerator>(
            std::vector<std::shared_ptr<ServiceModel>>{web, app, db},
            std::vector<int>{webTier, appTier, dbTier}, 64 * 1024);
    }

    std::unique_ptr<ArrivalProcess>
    arrivals(Plant &) const override
    {
        return std::make_unique<PoissonArrival>(600.0,
                                                Rng(_seed, "arrivals"));
    }

    std::size_t numJobs() const override { return _quick ? 2000 : 120'000; }

  private:
    std::uint64_t _seed;
    bool _quick;
};

/** Workloads whose plant DataCenter builds from a config. */
class DcWorkload : public Workload
{
  public:
    DcWorkload(std::uint64_t seed, bool quick) : _seed(seed), _quick(quick)
    {}

    std::unique_ptr<Plant>
    build() const override
    {
        return std::make_unique<DcPlant>(config());
    }

    std::unique_ptr<DispatchPolicy>
    policy() const override
    {
        if (config().dispatch == DataCenterConfig::Dispatch::roundRobin)
            return std::make_unique<RoundRobinPolicy>();
        return std::make_unique<LeastLoadedPolicy>();
    }

  protected:
    virtual DataCenterConfig config() const = 0;

    std::shared_ptr<ServiceModel>
    service(Tick mean) const
    {
        return std::make_shared<ExponentialService>(mean,
                                                    Rng(_seed, "service"));
    }

    std::uint64_t _seed;
    bool _quick;
};

/** Paper Table I: the 20,480-server flat farm under Poisson load. */
class Farm20k : public DcWorkload
{
  public:
    using DcWorkload::DcWorkload;

    std::unique_ptr<JobGenerator>
    jobs(Plant &) const override
    {
        return std::make_unique<SingleTaskGenerator>(service(5 * msec));
    }

    std::unique_ptr<ArrivalProcess>
    arrivals(Plant &) const override
    {
        double rate = PoissonArrival::rateForUtilization(
            0.3, servers(), 4, 0.005);
        return std::make_unique<PoissonArrival>(rate,
                                                Rng(_seed, "arrivals"));
    }

    std::size_t numJobs() const override { return _quick ? 5000 : 150'000; }

  protected:
    unsigned servers() const { return _quick ? 512 : 20'480; }

    DataCenterConfig
    config() const override
    {
        DataCenterConfig cfg;
        cfg.nServers = servers();
        cfg.nCores = 4;
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = 500 * msec;
        cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
        cfg.seed = _seed;
        return cfg;
    }
};

/** Partition/aggregate jobs whose every edge is a fat-tree flow. */
class FatTreeFanout : public DcWorkload
{
  public:
    using DcWorkload::DcWorkload;

    std::unique_ptr<JobGenerator>
    jobs(Plant &) const override
    {
        auto svc = service(5 * msec);
        return std::make_unique<FanOutInGenerator>(svc, svc, svc, width,
                                                   32 * 1024);
    }

    std::unique_ptr<ArrivalProcess>
    arrivals(Plant &plant) const override
    {
        // rho = 0.3 over every core, at width + 2 tasks per job.
        auto n = static_cast<unsigned>(plant.servers().size());
        double rate =
            PoissonArrival::rateForUtilization(0.3, n, 4, 0.005) /
            (width + 2.0);
        return std::make_unique<PoissonArrival>(rate,
                                                Rng(_seed, "arrivals"));
    }

    std::size_t numJobs() const override { return _quick ? 1000 : 6000; }

  protected:
    static constexpr unsigned width = 4;

    DataCenterConfig
    config() const override
    {
        DataCenterConfig cfg;
        cfg.fabric = DataCenterConfig::Fabric::fatTree;
        cfg.fabricParam = _quick ? 4 : 8;
        cfg.nCores = 4;
        cfg.taskAntiAffinity = true;
        cfg.seed = _seed;
        return cfg;
    }
};

/**
 * A 100k-server warehouse whose core governors ride the shared timer
 * wheel, idle servers suspend, and a small bursty stream keeps
 * dispatch from dominating.
 */
class Warehouse100k : public DcWorkload
{
  public:
    using DcWorkload::DcWorkload;

    std::unique_ptr<JobGenerator>
    jobs(Plant &) const override
    {
        return std::make_unique<SingleTaskGenerator>(service(5 * msec));
    }

    std::unique_ptr<ArrivalProcess>
    arrivals(Plant &) const override
    {
        // Bursts at 10x the quiet rate, 20% of the time.
        return std::make_unique<Mmpp2Arrival>(
            200'000.0, 20'000.0, 0.002, 0.008, Rng(_seed, "arrivals"));
    }

    std::size_t numJobs() const override { return _quick ? 2000 : 8000; }

  protected:
    DataCenterConfig
    config() const override
    {
        DataCenterConfig cfg;
        cfg.nServers = _quick ? 2000 : 100'000;
        cfg.nCores = 4;
        cfg.controller = DataCenterConfig::Controller::delayTimer;
        cfg.delayTimerTau = 50 * msec;
        cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
        cfg.timerMode = DataCenterConfig::TimerMode::wheel;
        cfg.wheelGranularity = 100 * usec;
        cfg.seed = _seed;
        return cfg;
    }
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool quick)
{
    if (name == "three_tier")
        return std::make_unique<ThreeTier>(seed, quick);
    if (name == "farm_20k")
        return std::make_unique<Farm20k>(seed, quick);
    if (name == "fattree_fanout")
        return std::make_unique<FatTreeFanout>(seed, quick);
    if (name == "warehouse_100k")
        return std::make_unique<Warehouse100k>(seed, quick);
    return nullptr;
}

} // namespace perfbench
