#include "pod_cluster.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <string>
#include <utility>

#include "network/topology.hh"
#include "sched/dispatch_policy.hh"
#include "sim/logging.hh"

namespace holdcsim {

namespace {

/** 4 web (type 1) + 4 app (type 2) + 4 db (type 3) per pod. */
constexpr unsigned kServersPerPod = 12;
constexpr unsigned kCoresPerServer = 2;
constexpr Bytes kStageTransfer = static_cast<Bytes>(64) << 10;

} // namespace

struct PodCluster::Pod {
    unsigned index;
    unsigned partition;
    Simulator *sim;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<Server *> serverPtrs;
    /** After the fleet and fabric: destroyed before both. */
    std::unique_ptr<GlobalScheduler> sched;
    std::vector<std::shared_ptr<ServiceModel>> services;
    std::unique_ptr<ChainJobGenerator> gen;
    std::unique_ptr<PoissonArrival> arrivals;
    std::unique_ptr<Rng> forwardRng;
    /** Remaining forward-chain budget of each live request. */
    std::map<JobId, unsigned> hops;
    std::uint64_t injected = 0;
    std::uint64_t nextJobSeq = 0;
    std::uint64_t forwardedOut = 0;
    std::uint64_t forwardedIn = 0;
    /** True inside a scripted outage episode. */
    bool down = false;
    /** Local, delivery-delayed view of peer health (index by pod). */
    std::vector<char> peerUp;
    std::uint64_t refusedInjections = 0;
    std::uint64_t forwardsDropped = 0;
    std::uint64_t forwardsRefused = 0;
    std::uint64_t healthUpdates = 0;
    PodStats stats;
    EventFunctionWrapper injectEvent;
    EventFunctionWrapper closeEvent;
    /** Down/up transition events of this pod's scripted episodes. */
    std::vector<std::unique_ptr<EventFunctionWrapper>> faultEvents;

    Pod(PodCluster &cluster, unsigned idx, unsigned part, Simulator &s)
        : index(idx), partition(part), sim(&s),
          injectEvent([&cluster, this] { cluster.injectOne(*this); },
                      "pod" + std::to_string(idx) + ".inject"),
          closeEvent([&cluster, this] { cluster.closeStats(*this); },
                     "pod" + std::to_string(idx) + ".close",
                     Event::statsPriority)
    {}

    /** An aborted run (audit violation, interrupt) leaves the pump
     *  and close events on the calendar; take them back off. */
    ~Pod()
    {
        if (injectEvent.scheduled())
            sim->deschedule(injectEvent);
        if (closeEvent.scheduled())
            sim->deschedule(closeEvent);
        for (auto &ev : faultEvents)
            if (ev->scheduled())
                sim->deschedule(*ev);
    }
};

PodCluster::PodCluster(const PodClusterConfig &cfg, unsigned n_partitions)
    : _cfg(cfg), _nPartitions(n_partitions)
{
    if (_cfg.pods < 2)
        fatal("pod cluster needs >= 2 pods (forwards need a peer)");
    if (_nPartitions > _cfg.pods)
        fatal("pod cluster: ", _nPartitions, " partitions but only ",
              _cfg.pods, " pods");
    if (_cfg.interPodLatency == 0)
        fatal("pod cluster: inter-pod latency is the lookahead and "
              "must be nonzero");
    // Scripted outages: in range, forward in time, per-pod disjoint.
    std::map<unsigned, std::vector<std::pair<Tick, Tick>>> episodes;
    for (const PodFaultEpisode &f : _cfg.podFaults) {
        if (f.pod >= _cfg.pods)
            fatal("pod fault targets pod ", f.pod, " but the cluster "
                  "has ", _cfg.pods, " pods");
        if (f.downAt >= f.upAt)
            fatal("pod fault on pod ", f.pod, " repairs at ", f.upAt,
                  " <= its failure at ", f.downAt);
        episodes[f.pod].emplace_back(f.downAt, f.upAt);
    }
    for (auto &[pod, spans] : episodes) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i)
            if (spans[i].first < spans[i - 1].second)
                fatal("pod fault episodes overlap on pod ", pod,
                      " around tick ", spans[i].first);
    }

    const std::size_t shards = _nPartitions == 0 ? 1 : _nPartitions;
    for (std::size_t i = 0; i < shards; ++i)
        _sims.push_back(std::make_unique<Simulator>());
    if (_nPartitions >= 1)
        for (std::size_t i = 0; i < shards; ++i)
            _partitions.push_back(std::make_unique<pdes::Partition>(
                static_cast<std::uint32_t>(i), *_sims[i]));
    // Scheme B routing: with a single shard every cross-pod send is
    // scheduled directly at send time (chronological calendar
    // insertion); with several, every one goes through the outbox and
    // the barrier drain reproduces exactly that insertion order (see
    // the header's file comment). Both paths share mailboxPriority.
    if (shards == 1)
        _direct = std::make_unique<OneShotPool>(
            *_sims[0], "pdes.direct", Event::mailboxPriority);

    // Every pod server shares one immutable profile. Partitions only
    // read it, so sharing it across their threads needs no locking.
    const auto profile = std::make_shared<const ServerPowerProfile>();
    for (unsigned i = 0; i < _cfg.pods; ++i) {
        const unsigned part = partitionOf(i);
        Simulator &sim = *_sims[_nPartitions == 0 ? 0 : part];
        const std::string ps = "pod" + std::to_string(i);
        auto pod = std::make_unique<Pod>(*this, i, part, sim);

        pod->net = std::make_unique<Network>(
            sim,
            Topology::star(kServersPerPod, 1e9, _cfg.intraPodLatency),
            SwitchPowerProfile::cisco2960_24());
        for (unsigned s = 0; s < kServersPerPod; ++s) {
            ServerConfig sc;
            sc.id = s;
            sc.nCores = kCoresPerServer;
            sc.taskTypes = {1 + static_cast<int>(s / (kServersPerPod / 3))};
            auto server = std::make_unique<Server>(sim, sc, profile);
            pod->serverPtrs.push_back(server.get());
            pod->servers.push_back(std::move(server));
        }
        pod->sched = std::make_unique<GlobalScheduler>(
            sim, pod->serverPtrs, std::make_unique<LeastLoadedPolicy>(),
            GlobalSchedulerConfig{}, pod->net.get());
        Pod *pp = pod.get();
        pod->sched->setJobDoneCallback(
            [this, pp](JobId id, Tick) { onJobDone(*pp, id); });

        pod->services = {
            std::make_shared<ExponentialService>(
                1 * msec, Rng(_cfg.seed, ps + ".web")),
            std::make_shared<ExponentialService>(
                4 * msec, Rng(_cfg.seed, ps + ".app")),
            std::make_shared<ExponentialService>(
                8 * msec, Rng(_cfg.seed, ps + ".db")),
        };
        pod->gen = std::make_unique<ChainJobGenerator>(
            pod->services, std::vector<int>{1, 2, 3}, kStageTransfer);
        pod->forwardRng = std::make_unique<Rng>(_cfg.seed,
                                                ps + ".forward");
        pod->arrivals = std::make_unique<PoissonArrival>(
            _cfg.arrivalRate, Rng(_cfg.seed, ps + ".arrivals"));

        pod->peerUp.assign(_cfg.pods, 1);

        if (_cfg.requestsPerPod > 0)
            sim.schedule(pod->injectEvent, pod->arrivals->nextArrival());
        sim.schedule(pod->closeEvent, _cfg.statsHorizon);

        _podv.push_back(std::move(pod));
    }

    for (const PodFaultEpisode &f : _cfg.podFaults) {
        Pod &pod = *_podv[f.pod];
        const std::string ps = "pod" + std::to_string(f.pod);
        auto downEv = std::make_unique<EventFunctionWrapper>(
            [this, &pod] { applyPodFault(pod, true); },
            ps + ".fault_down");
        auto upEv = std::make_unique<EventFunctionWrapper>(
            [this, &pod] { applyPodFault(pod, false); },
            ps + ".fault_up");
        pod.sim->schedule(*downEv, f.downAt);
        pod.sim->schedule(*upEv, f.upAt);
        pod.faultEvents.push_back(std::move(downEv));
        pod.faultEvents.push_back(std::move(upEv));
    }
}

PodCluster::~PodCluster() = default;

unsigned
PodCluster::partitionOf(unsigned pod) const
{
    if (_nPartitions <= 1)
        return 0;
    // Contiguous blocks of pods per partition.
    return static_cast<unsigned>(
        static_cast<std::size_t>(pod) * _nPartitions / _cfg.pods);
}

void
PodCluster::injectOne(Pod &pod)
{
    // A down pod refuses the attempt but the attempt still consumes
    // its slot in the pump budget and its arrival draw, so the
    // injection timeline is identical whether or not faults fire.
    if (pod.down) {
        ++pod.refusedInjections;
    } else {
        // Per-pod id namespace: the process-global counter hands out
        // ids in wall-clock interleaving order, which would differ
        // run to run under the parallel kernel (ids key scheduler
        // maps).
        const JobId id = (static_cast<JobId>(pod.index) << 40)
                         | pod.nextJobSeq++;
        pod.hops.emplace(id, _cfg.maxForwards);
        pod.sched->submitJob(pod.gen->makeJob(pod.sim->curTick(), id));
    }
    ++pod.injected;
    if (pod.injected < _cfg.requestsPerPod)
        pod.sim->schedule(pod.injectEvent, pod.arrivals->nextArrival());
}

void
PodCluster::onJobDone(Pod &pod, JobId id)
{
    auto it = pod.hops.find(id);
    unsigned budget = 0;
    if (it != pod.hops.end()) {
        budget = it->second;
        pod.hops.erase(it);
    }
    // Drawn unconditionally so the stream's consumption sequence is a
    // pure function of the pod's completion order.
    const double u = pod.forwardRng->uniform();
    if (budget == 0 || u >= _cfg.forwardProbability)
        return;
    unsigned dst = static_cast<unsigned>(
        pod.forwardRng->uniformInt(0, _cfg.pods - 2));
    if (dst >= pod.index)
        ++dst; // skip self
    // Health gating happens after every draw above so the stream is
    // still a pure function of the completion order. The sender
    // consults only its *local* view of the peer: remote state is
    // reached exclusively through messages, never read across shards.
    if (pod.down || !pod.peerUp[dst]) {
        ++pod.forwardsDropped;
        return;
    }
    ++pod.forwardedOut;

    // The +index skew keeps (delivery, send) timestamp pairs unique
    // across source pods, which pins the cross-pod merge order.
    const Tick latency = _cfg.interPodLatency
                         + static_cast<Tick>(pod.index) * nsec;
    const unsigned hopsLeft = budget - 1;
    auto fn = [this, dst, hopsLeft] { deliverForward(dst, hopsLeft); };
    if (_sims.size() <= 1)
        _direct->scheduleAt(pod.sim->curTick() + latency, std::move(fn));
    else
        _partitions[pod.partition]->post(partitionOf(dst), latency,
                                         std::move(fn));
}

void
PodCluster::deliverForward(unsigned dst_pod, unsigned hops_left)
{
    Pod &pod = *_podv[dst_pod];
    // The sender's health view lags by the broadcast latency, so a
    // forward can still reach a pod that just went down; the refusal
    // happens here, on the destination's own timeline.
    if (pod.down) {
        ++pod.forwardsRefused;
        return;
    }
    const JobId id = (static_cast<JobId>(pod.index) << 40)
                     | pod.nextJobSeq++;
    pod.hops.emplace(id, hops_left);
    ++pod.forwardedIn;
    pod.sched->submitJob(pod.gen->makeJob(pod.sim->curTick(), id));
}

void
PodCluster::applyPodFault(Pod &pod, bool down)
{
    pod.down = down;
    // Announce the transition to every peer as a timestamped message
    // on the same mailbox path forwards use: the sequential build
    // schedules the delivery directly, the parallel build routes it
    // through the partition outbox, and the per-source +index skew
    // keeps the cross-pod merge order identical in both.
    const Tick latency = _cfg.interPodLatency
                         + static_cast<Tick>(pod.index) * nsec;
    for (unsigned dst = 0; dst < _cfg.pods; ++dst) {
        if (dst == pod.index)
            continue;
        auto fn = [this, dst, src = pod.index, down] {
            deliverHealth(dst, src, !down);
        };
        if (_sims.size() <= 1)
            _direct->scheduleAt(pod.sim->curTick() + latency,
                                std::move(fn));
        else
            _partitions[pod.partition]->post(partitionOf(dst), latency,
                                             std::move(fn));
    }
}

void
PodCluster::deliverHealth(unsigned dst_pod, unsigned src_pod, bool up)
{
    Pod &pod = *_podv[dst_pod];
    pod.peerUp[src_pod] = up ? 1 : 0;
    ++pod.healthUpdates;
}

void
PodCluster::closeStats(Pod &pod)
{
    for (auto &server : pod.servers)
        server->finishStats();
    pod.net->finishStats();

    PodStats &st = pod.stats;
    st.injected = pod.injected;
    st.forwardedOut = pod.forwardedOut;
    st.forwardedIn = pod.forwardedIn;
    st.jobsSubmitted = pod.sched->jobsSubmitted();
    st.jobsCompleted = pod.sched->jobsCompleted();
    st.tasksDispatched = pod.sched->tasksDispatched();
    st.transfersStarted = pod.sched->transfersStarted();
    const Percentile &lat = pod.sched->jobLatency();
    st.latencyCount = lat.count();
    if (st.latencyCount > 0) {
        st.latencyMean = lat.mean();
        st.latencyP50 = lat.p50();
        st.latencyP95 = lat.p95();
        st.latencyP99 = lat.p99();
    }
    for (auto &server : pod.servers) {
        st.tasksCompleted += server->tasksCompleted();
        st.serverEnergy += server->energy().total();
    }
    st.switchEnergy = pod.net->switchEnergy();
    st.census = pod.sched->taskCensus();
    st.refusedInjections = pod.refusedInjections;
    st.forwardsDropped = pod.forwardsDropped;
    st.forwardsRefused = pod.forwardsRefused;
    st.healthUpdates = pod.healthUpdates;
}

Tick
PodCluster::run()
{
    Tick end = 0;
    if (_nPartitions == 0) {
        end = _sims[0]->run();
    } else {
        std::vector<pdes::Partition *> parts;
        for (auto &p : _partitions)
            parts.push_back(p.get());
        pdes::WindowScheduler ws(parts, _cfg.interPodLatency);
        if (_interrupt)
            ws.setInterruptFlag(_interrupt);
        if (_boundaryAudits)
            ws.setBoundaryHook([this](Tick floor) {
                _auditFloor = floor;
                _auditor->auditNow();
            });
        end = ws.run();
        _pdesStats = ws.stats();
    }
    // Single-shard runs have no window barriers; audit once at the
    // end so sequential and pods:1 runs still exercise every check.
    if (_boundaryAudits && _sims.size() == 1)
        _auditor->auditNow();
    _eventsTotal = 0;
    for (auto &sim : _sims)
        _eventsTotal += sim->eventsProcessed();
    return end;
}

void
PodCluster::enableBoundaryAudits()
{
    if (_auditor)
        return;
    // Never start()ed: the auditor is driven manually from the window
    // boundary hook (or once at the end of a single-shard run), so it
    // schedules nothing and cannot perturb the event count.
    _auditor = std::make_unique<InvariantAuditor>(*_sims[0], 1 * sec);
    for (std::size_t i = 1; i < _sims.size(); ++i)
        _auditor->addEventQueueCheck(*_sims[i],
                                     "shard" + std::to_string(i));
    _auditor->addCheck("pdes.task_conservation",
                       [this] { return checkTaskConservation(); });
    _auditor->addCheck("pdes.mailbox_floor",
                       [this] { return checkMailboxFloor(); });
    _boundaryAudits = true;
}

std::string
PodCluster::checkTaskConservation() const
{
    // Within a window a task may be created in one shard while its
    // forward-parent's books are mid-update in another, but at a
    // barrier (and at the end of a run) every shard is quiescent, so
    // the global identity must hold exactly.
    std::uint64_t created = 0, finished = 0, aborted = 0, live = 0;
    for (const auto &pod : _podv) {
        const auto census = pod->sched->taskCensus();
        created += census.created;
        finished += census.finished;
        aborted += census.aborted;
        live += census.live;
    }
    if (created == finished + aborted + live)
        return {};
    return detail::format("task conservation: created ", created,
                          " != finished ", finished, " + aborted ",
                          aborted, " + live ", live);
}

std::string
PodCluster::checkMailboxFloor() const
{
    // Every undelivered message must land at or after the floor of
    // the window that just executed -- an earlier one would mean a
    // destination already simulated past its delivery tick.
    for (const auto &part : _partitions) {
        for (const auto &msg : part->outbox().pending()) {
            if (msg.when < _auditFloor)
                return detail::format(
                    "partition ", part->index(), " message for ",
                    msg.dst, " lands at ", msg.when,
                    " before the window floor ", _auditFloor);
            if (msg.when < msg.sentAt)
                return detail::format(
                    "partition ", part->index(),
                    " message travels backwards: sent ", msg.sentAt,
                    ", lands ", msg.when);
        }
    }
    return {};
}

const PodStats &
PodCluster::podStats(unsigned pod) const
{
    return _podv.at(pod)->stats;
}

GlobalScheduler &
PodCluster::scheduler(unsigned pod)
{
    return *_podv.at(pod)->sched;
}

void
PodCluster::dumpStats(std::ostream &os) const
{
    const auto flags = os.flags();
    const auto precision = os.precision();
    // Hexfloat round-trips doubles exactly: the dump is a faithful
    // byte-comparable image of the statistics, not a rounding of it.
    os << std::hexfloat;

    std::uint64_t jobs = 0, tasks = 0, forwards = 0;
    for (const auto &podPtr : _podv) {
        const Pod &pod = *podPtr;
        const PodStats &st = pod.stats;
        const std::string p = "pod" + std::to_string(pod.index) + ".";
        os << p << "injected " << st.injected << '\n'
           << p << "forwarded_out " << st.forwardedOut << '\n'
           << p << "forwarded_in " << st.forwardedIn << '\n'
           << p << "jobs_submitted " << st.jobsSubmitted << '\n'
           << p << "jobs_completed " << st.jobsCompleted << '\n'
           << p << "tasks_dispatched " << st.tasksDispatched << '\n'
           << p << "transfers_started " << st.transfersStarted << '\n'
           << p << "tasks_completed " << st.tasksCompleted << '\n'
           << p << "latency_count " << st.latencyCount << '\n'
           << p << "latency_mean " << st.latencyMean << '\n'
           << p << "latency_p50 " << st.latencyP50 << '\n'
           << p << "latency_p95 " << st.latencyP95 << '\n'
           << p << "latency_p99 " << st.latencyP99 << '\n'
           << p << "server_energy_j " << st.serverEnergy << '\n'
           << p << "switch_energy_j " << st.switchEnergy << '\n'
           << p << "tasks_created " << st.census.created << '\n'
           << p << "tasks_finished " << st.census.finished << '\n'
           << p << "tasks_aborted " << st.census.aborted << '\n'
           << p << "tasks_live " << st.census.live << '\n';
        if (!_cfg.podFaults.empty())
            os << p << "refused_injections " << st.refusedInjections
               << '\n'
               << p << "forwards_dropped " << st.forwardsDropped << '\n'
               << p << "forwards_refused " << st.forwardsRefused << '\n'
               << p << "health_updates " << st.healthUpdates << '\n';
        jobs += st.jobsCompleted;
        tasks += st.tasksCompleted;
        forwards += st.forwardedOut;
    }
    os << "cluster.jobs_completed " << jobs << '\n'
       << "cluster.tasks_completed " << tasks << '\n'
       << "cluster.forwards " << forwards << '\n'
       << "cluster.events_total " << _eventsTotal << '\n';

    os.flags(flags);
    os.precision(precision);
}

void
PodCluster::setInterruptFlag(const std::atomic<bool> *flag)
{
    _interrupt = flag;
    if (_nPartitions == 0)
        _sims[0]->setInterruptFlag(flag);
}

} // namespace holdcsim
