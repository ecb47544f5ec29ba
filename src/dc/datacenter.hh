/**
 * @file
 * The assembled data center (paper Figure 1): workload in, servers +
 * network + global scheduler in the middle, runtime statistics out.
 *
 * DataCenter owns the Simulator, the server fleet (with their power
 * controllers), the optional network fabric and the global
 * scheduler, and provides workload pumps that inject jobs from an
 * arrival process / trace through a JobGenerator.
 */

#ifndef HOLDCSIM_DC_DATACENTER_HH
#define HOLDCSIM_DC_DATACENTER_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "dc_config.hh"
#include "fault/fault_manager.hh"
#include "metrics.hh"
#include "network/network.hh"
#include "orch/orchestrator.hh"
#include "sched/global_scheduler.hh"
#include "server/server.hh"
#include "sim/auditor.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"
#include "telemetry/layer_probe.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_manager.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"

namespace holdcsim {

/** A complete simulated data center instance. */
class DataCenter
{
  public:
    explicit DataCenter(const DataCenterConfig &config);
    ~DataCenter();
    DataCenter(const DataCenter &) = delete;
    DataCenter &operator=(const DataCenter &) = delete;

    /** @name Component access */
    ///@{
    Simulator &sim() { return _sim; }
    GlobalScheduler &scheduler() { return *_sched; }
    std::size_t numServers() const { return serverPtrs().size(); }
    Server &server(std::size_t i) { return *serverPtrs().at(i); }
    const std::vector<Server *> &serverPtrs() const
    {
        return _sched->servers();
    }
    /** Bytes the fleet block maps: every server and its core slots. */
    std::size_t fleetBytes() const { return _fleet.mappedBytes(); }
    /** Null when the config has no fabric. */
    Network *network() { return _net.get(); }
    /** Null unless config.fault.enabled. */
    FaultManager *faults() { return _faults.get(); }
    /** Null unless config.orch.enabled. */
    Orchestrator *orchestrator() { return _orch.get(); }
    /** Null unless telemetry tracing is configured. */
    TraceManager *tracer() { return _tracer.get(); }
    /** Null unless telemetry sampling is configured. */
    Sampler *sampler() { return _sampler.get(); }
    /** Null unless telemetry profiling is configured. */
    LayerProbe *profiler() { return _profiler.get(); }
    /** Null unless config.audit.enabled. */
    InvariantAuditor *auditor() { return _auditor.get(); }
    /** The engine's timer wheel when config.timerMode ==
     *  TimerMode::wheel, else null (its granularity is then not
     *  reported). */
    TimerWheel *
    timerWheel()
    {
        return _config.timerMode == DataCenterConfig::TimerMode::wheel
                   ? &_sim.timerWheel()
                   : nullptr;
    }
    const DataCenterConfig &config() const { return _config; }
    ///@}

    /** Derive a named random stream from the experiment seed. */
    Rng makeRng(const std::string &stream) const
    {
        return Rng(_config.seed, stream);
    }

    /** @name Workload pumps
     * The JobGenerator must outlive the simulation run. Several
     * pumps may be active at once (multi-workload experiments); the
     * jobs they make are numbered 0, 1, ... per plant, so a job
     * submitted to scheduler() directly needs an id of its own.
     */
    ///@{
    /**
     * Inject jobs at the arrival instants of @p process (which the
     * pump takes ownership of), at most @p max_jobs jobs, with no
     * arrivals after @p until.
     */
    void pump(std::unique_ptr<ArrivalProcess> process,
              JobGenerator &gen,
              std::size_t max_jobs = static_cast<std::size_t>(-1),
              Tick until = maxTick);

    /** Inject one job per trace timestamp. */
    void pumpTrace(std::vector<Tick> arrivals, JobGenerator &gen);
    ///@}

    /** @name Running */
    ///@{
    /** Run until all events drain (arrivals exhausted, jobs done). */
    Tick run() { return _sim.run(); }
    Tick runUntil(Tick limit) { return _sim.runUntil(limit); }
    ///@}

    /** @name Fleet metrics */
    ///@{
    /** Aggregate + per-server energy (accrued to the current tick). */
    FleetEnergy energy();
    /** Fleet residency fractions over the five observable states. */
    std::vector<double> residency();
    /** Total switch energy (0 without a fabric). */
    Joules switchEnergy();
    /** Instantaneous total server power. */
    Watts serverPower() const;
    /** Instantaneous total switch power (0 without a fabric). */
    Watts switchPower() const;
    /** Servers not in S3/S5 (awake or waking). */
    std::size_t awakeServers() const;
    /** Close all books (end of measurement). */
    void finishStats();
    /** Zero all statistics (end of warmup). */
    void resetStats();
    /**
     * Dump every runtime statistic the paper's Figure 1 lists
     * (power/energy, network delays, job latency, state
     * transitions) as gem5-style "component.stat value" lines.
     * Closes every book first, as finishStats() does. A fleet of two
     * chunks or more settles and formats its server rows on host
     * threads while the calling thread writes them in fleet order;
     * the bytes are those of the serial loop (DESIGN.md).
     */
    void dumpStats(std::ostream &os);
    /**
     * Servers one dumpStats worker settles and formats per chunk: at
     * about 390 B a row, a chunk fits the 68 KiB a row buffer
     * reserves, and each chunk costs the writer one hand-off.
     */
    static constexpr std::size_t statsChunkServers = 160;
    ///@}

  private:
    struct Pump;

    /**
     * Every server and its core slots in one anonymous mapping, server
     * i at base + i * stride with its slots right behind it. A block of
     * one 2 MiB extent or more starts on a 2 MiB boundary, spans whole
     * extents and is advised for transparent huge pages: the 100k
     * fleet's block then takes 38 page faults, not about 20,000
     * (DESIGN.md §4). Destroys the servers in id order, then unmaps.
     */
    class Fleet
    {
      public:
        Fleet() = default;
        ~Fleet();
        Fleet(const Fleet &) = delete;
        Fleet &operator=(const Fleet &) = delete;

        /** Map room for @p n servers of @p n_cores cores each. */
        void map(std::size_t n, unsigned n_cores);
        /**
         * Build every mapped server in its place, registering its core
         * pool in a deferred-timer slot reserved for the whole fleet
         * (server i in the i-th, as if each had appended itself), then
         * call setup(i, server). Chunks of servers, those whose first
         * byte lies in one 2 MiB extent, run on parallelFor workers:
         * one extent, and so each huge page, per chunk. One worker, in
         * id order on the calling thread, unless @p threads and the
         * fleet spans two extents or more. A server's construction
         * schedules no event and draws no random number, so the fleet
         * is the same either way (DESIGN.md §4). If a server throws,
         * the ones built so far stay built (the destructor destroys
         * exactly those), and the lowest chunk's exception propagates.
         */
        template <typename Setup>
        void build(Simulator &sim, const ServerConfig &config,
                   const std::shared_ptr<const ServerPowerProfile> &profile,
                   bool threads, const Setup &setup);
        std::size_t mappedBytes() const { return _mapped; }

      private:
        /** First server of build chunk @p c (n past the last). */
        std::size_t chunkStart(std::size_t c) const;

        std::byte *_base = nullptr;
        std::size_t _mapped = 0;
        std::size_t _n = 0;
        /** Bytes of a Server, rounded up for its slot block. */
        std::size_t _serverBytes = 0;
        std::size_t _stride = 0;
        /** Servers built in each chunk, from its first one. */
        std::vector<std::size_t> _built;
    };

    /** Close every book but the servers': fabric, faults, telemetry. */
    void finishSharedStats();
    /** Threads that produce dumpStats' server rows; 0 keeps the
     *  serial order, all on the calling thread. */
    unsigned statsDumpWorkers() const;
    /** Write every server row, settling each server first. */
    void dumpServerRows(std::ostream &os, unsigned workers);

    DataCenterConfig _config;
    /** Owns the governor timer granularity (G = wheelGranularity in
     *  wheel mode, 1 tick otherwise). */
    Simulator _sim;
    /**
     * Telemetry sits between the engine and the plant: constructed
     * before (destroyed after) every component that may emit trace
     * records in its state machinery.
     */
    std::unique_ptr<TraceManager> _tracer;
    std::unique_ptr<LayerProbe> _profiler;
    std::unique_ptr<Sampler> _sampler;
    std::unique_ptr<Network> _net;
    Fleet _fleet;
    /** Jitter stream handed to the scheduler; must outlive it. */
    std::unique_ptr<Rng> _retryJitter;
    std::unique_ptr<GlobalScheduler> _sched;
    std::unique_ptr<FaultManager> _faults;
    /** Declared after the scheduler and fault manager: its dtor
     *  uninstalls the hooks it placed into both. */
    std::unique_ptr<Orchestrator> _orch;
    std::unique_ptr<InvariantAuditor> _auditor;
    std::vector<std::unique_ptr<Pump>> _pumps;
    /** The id of the next job a pump makes (ids count per plant). */
    JobId _nextJobId = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_DC_DATACENTER_HH
